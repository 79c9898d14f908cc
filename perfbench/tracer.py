"""In-memory span and count tracer that wraps the package's public layer
functions from outside.

Wrapping replaces a name where callers look it up: a module attribute in
every ``superbsde`` namespace that holds the same object (so
``dual_mc.simulate_paths`` is wrapped together with
``forward_model.simulate_paths``), or a method in a class ``__dict__``.
``Tracer.restore`` puts every original object back; nothing under ``src/``
is edited.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top).  A span's self time is its duration minus
the durations of its direct children.  The layer of a span is the part of
its name before the first dot.
"""

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments


def _points(x):
    return int(np.size(x))


def _count_solve(counts, fn, args, kwargs, sol):
    sub = np.asarray(sol.substeps, dtype=np.int64)
    counts["hj_solver.solves"] += 1
    counts["hj_solver.substeps"] += int(sub.sum())
    counts["hj_solver.max_level_substeps"] = max(
        counts["hj_solver.max_level_substeps"], int(sub.max(initial=0)))
    counts["hj_solver.cell_updates"] += int(sub.sum()) * int(sol.x_grid.size)
    counts["hj_solver.cap_levels"] += int(np.count_nonzero(sol.cap_active))


def _count_lookup(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    counts["hj_solver.lookups"] += int(np.broadcast(a["t"], a["x"]).size)


def _count_simulate(counts, fn, args, kwargs, bundle):
    a = _bound(fn, args, kwargs)
    counts["forward_model.path_steps"] += int(a["n_paths"]) * int(a["n_steps"])


def _count_rate(counts, fn, args, kwargs, result):
    counts["dual_mc.rate_points"] += _points(_bound(fn, args, kwargs)["x"])


def _count_evaluate(counts, fn, args, kwargs, result):
    counts["dual_mc.controls"] += 1


def _count_profile(counts, fn, args, kwargs, result):
    counts["generators.profile_calls"] += 1


def _count_terminal(counts, fn, args, kwargs, result):
    counts["terminal_data.eval_points"] += _points(_bound(fn, args, kwargs)["x"])


def _count_run(counts, fn, args, kwargs, status):
    out = Path(_bound(fn, args, kwargs)["cfg"].out)
    counts["cli.commands"] += 1
    counts["cli.bytes_written"] += sum(p.stat().st_size for p in out.rglob("*")
                                       if p.is_file())


class _CountingGenerator:
    """numpy ``Generator`` stand-in that counts the normals it draws."""

    def __init__(self, counts, key, bit_generator):
        self._gen = np.random.Generator(bit_generator)
        self._counts = counts
        self._key = key

    def standard_normal(self, size=None, *args, **kwargs):
        out = self._gen.standard_normal(size, *args, **kwargs)
        self._counts[self._key] += int(np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Spans and counts of one traced workload pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------------
    def _wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, fn, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr, name, count=None):
        """Wrap ``module.attr`` in every package namespace that shares it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, count)
        for mod_name, mod in sorted(sys.modules.items()):
            if (mod_name == "superbsde" or mod_name.startswith("superbsde.")) \
                    and vars(mod).get(attr) is original:
                self._patch(mod, attr, wrapper)

    def wrap_method(self, cls, attr, name, count=None):
        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], count))

    def count_rng(self, module, layer):
        """Count ``Philox`` constructions and normals drawn in ``module``."""
        counts = self.counts
        philox, key = module.Philox, f"{layer}.normals"

        def counting_philox(*args, **kwargs):
            counts[f"{layer}.philox_streams"] += 1
            return philox(*args, **kwargs)

        self._patch(module, "Philox", counting_philox)
        self._patch(module, "Generator",
                    lambda bit_generator: _CountingGenerator(counts, key, bit_generator))

    def install(self, pkg):
        """Wrap every traced layer boundary of the ``superbsde`` package."""
        hj, fm, dm = pkg.hj_solver, pkg.forward_model, pkg.dual_mc
        pc, gens, td = pkg.path_checks, pkg.generators, pkg.terminal_data
        cx, cli = pkg.counterexamples, pkg.cli

        self.wrap_function(hj, "solve", "hj_solver.solve", _count_solve)
        self.wrap_method(hj.PdeSolution, "u_at", "hj_solver.lookup", _count_lookup)
        self.wrap_method(hj.PdeSolution, "z_at", "hj_solver.lookup", _count_lookup)

        self.wrap_function(fm, "draw_increments", "forward_model.draw")
        self.wrap_function(fm, "simulate_paths", "forward_model.simulate",
                           _count_simulate)
        self.count_rng(fm, "forward_model")

        self.wrap_function(dm, "duality_gap", "dual_mc.duality_gap")
        self.wrap_function(dm, "evaluate_control", "dual_mc.evaluate",
                           _count_evaluate)
        for cls in (dm.ZeroControl, dm.ConstantControl,
                    dm.PiecewiseConstantControl, dm.FeedbackControl):
            self.wrap_method(cls, "rate", "dual_mc.rate", _count_rate)

        self.wrap_function(pc, "bsde_residual", "path_checks.residual")
        for attr in ("apriori_z_bound", "penalty_bound_check",
                     "bmo_energy_check", "exponent_fit"):
            self.wrap_function(pc, attr, "path_checks.envelope")

        for cls in vars(gens).values():
            if isinstance(cls, type) and issubclass(cls, gens.Generator):
                for attr in ("h", "hp", "eval", "grad"):
                    if attr in vars(cls):
                        self.wrap_method(cls, attr, "generators.profile",
                                         _count_profile)
        self.wrap_method(gens.Conjugate, "eval", "generators.conjugate")

        self.wrap_method(td.TerminalCondition, "__call__", "terminal_data.eval",
                         _count_terminal)

        self.wrap_function(cx, "thm34_checks", "counterexamples.thm34_checks")
        self.wrap_function(cx, "limit_not_solution_witness",
                           "counterexamples.thm34_witness")
        self.wrap_function(cx, "thm34_mc_nu", "counterexamples.thm34_nu")
        self.wrap_function(cx, "thm34_joint_paths", "counterexamples.thm34_joint")
        self.wrap_function(cx, "simulate_thm33_excursion", "counterexamples.thm33")
        self.wrap_function(cx, "build_thm31", "counterexamples.thm31")
        self.wrap_function(cx, "thm31_series_report", "counterexamples.thm31")
        self.count_rng(cx, "counterexamples")

        self.wrap_function(cli, "main", "cli.main")
        self.wrap_function(cli, "load_config", "cli.config")
        self.wrap_function(cli, "run", "cli.run", _count_run)
        for cls in (hj.PdeSolution, fm.PathBundle, dm.DualityReport):
            self.wrap_method(cls, "to_csv", "cli.to_csv")

    def restore(self):
        """Put every wrapped attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------
    def times(self):
        """(inclusive, self) seconds per span name.  Inclusive time counts
        only spans with no ancestor of the same name, so recursion and
        nesting (eval -> h) are not counted twice."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_t = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            self_t[name] += dur - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += dur
        return incl, self_t

    def write(self, fh, pass_no):
        """Append the spans as CSV rows ``pass,index,name,start,end,parent``
        and then the counts as ``# pass name value`` lines."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{pass_no},{i},{name},{start!r},{end!r},{parent}\n")
        for key in sorted(self.counts):
            fh.write(f"# {pass_no} {key} {self.counts[key]}\n")
