"""The four benchmark workloads.

Each workload is a class: the constructor is the set-up (building models,
generators, terminal data and configs), and ``run_pass()`` is one full
closed-loop pass that returns ``(checks, facts)``.  ``checks`` are the
hard checks at the thresholds of ``tests/test_acceptance.py``; ``facts``
are deterministic outputs (reference error, standard error, exact counts
read off the results) that a rerun must reproduce.

Package functions are always called through their module (``hj_solver.solve``,
not a name bound at import), so the tracer's wrappers see every call.

``seed`` is an offset added to the acceptance seeds, so seed 0 reproduces
the seeds of ``tests/test_acceptance.py``.  ``toy=True`` shrinks every
size for the benchmark's own smoke test.
"""

import contextlib
import filecmp
import io
import shutil
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from superbsde import cli
from superbsde import counterexamples as cx
from superbsde import dual_mc, forward_model, generators, hj_solver, path_checks
from superbsde import terminal_data


class Check(NamedTuple):
    name: str
    value: float
    threshold: float
    passed: bool


def _bm_model():
    return forward_model.ForwardModel(forward_model.ZeroDrift(), 1.0, 1.0)


def _grid(n_x, dt):
    return hj_solver.GridSpec(n_x=n_x, dt=dt, x_lo=-8.0, x_hi=8.0)


class PdeRefine:
    """A2 Cole-Hopf agreement, A3 three-grid refinement and the A10
    regularization ladder: the solver alone, no RNG."""

    name = "pde_refine"

    def __init__(self, seed, toy=False):
        self.model = _bm_model()
        self.quad = generators.QuadraticGenerator(0.5)
        self.inv_quad = terminal_data.TerminalCondition.analytic("inv_quad", amplitude=1.0)
        self.a2_grid = _grid(201, 1e-2) if toy else _grid(1601, 1e-3)
        self.power3 = generators.PowerGenerator(3.0)
        self.cos = terminal_data.TerminalCondition.analytic("cos", amplitude=0.5)
        self.a3_grids = [_grid(n, 1e-2 if toy else 1e-3)
                         for n in ((101, 201, 401) if toy else (801, 1601, 3201))]
        self.ladder_grid = _grid(201, 1e-2) if toy else _grid(801, 2e-3)
        self.ms = [2.0, 4.0, 8.0, 16.0]
        # continuous spike with slope 50 (the A10 profile)
        self.spike = terminal_data.TerminalCondition.tabulated(
            [-8.0, -0.02, 0.0, 0.02, 8.0], [0.0, 0.0, 1.0, 0.0, 0.0])

    def run_pass(self):
        checks = []
        start = time.perf_counter()
        sol = hj_solver.solve(self.model, self.quad, self.inv_quad, self.a2_grid, 0.0)
        window = np.abs(sol.x_grid) <= 3.0
        oracle = hj_solver.cole_hopf_reference(self.model, self.quad, self.inv_quad,
                                               0.0, sol.x_grid[window])
        ref_err = float(np.max(np.abs(sol.u[-1][window] - oracle)))
        elapsed = time.perf_counter() - start
        checks.append(Check("A2 sup |u - Cole-Hopf| on |x| <= 3", ref_err, 5e-3,
                            ref_err <= 5e-3))
        checks.append(Check("A2 wall seconds", elapsed, 60.0, elapsed < 60.0))
        substeps = int(sol.substeps.sum())

        start = time.perf_counter()
        sols = [hj_solver.solve(self.model, self.power3, self.cos, g, 0.0)
                for g in self.a3_grids]
        d01 = float(np.max(np.abs(sols[0].u[-1] - sols[1].u[-1][::2])))
        d12 = float(np.max(np.abs(sols[1].u[-1] - sols[2].u[-1][::2])))
        elapsed = time.perf_counter() - start
        checks.append(Check("A3 refinement ratio", d01 / d12, 1.7, d01 / d12 >= 1.7))
        checks.append(Check("A3 wall seconds", elapsed, 120.0, elapsed < 120.0))
        substeps += sum(int(s.substeps.sum()) for s in sols)

        lower = hj_solver.solve_regularized_family(
            self.model, self.power3, self.spike, self.ms, "lower", self.ladder_grid, 0.0)
        upper = hj_solver.solve_regularized_family(
            self.model, self.power3, self.spike, self.ms, "upper", self.ladder_grid, 0.0)
        lo = [s.u_at(0.0, 0.0) for s in lower]
        hi = [s.u_at(0.0, 0.0) for s in upper]
        gaps = [h - l for h, l in zip(hi, lo)]
        mono = (all(b >= a - 1e-12 for a, b in zip(lo, lo[1:]))
                and all(b <= a + 1e-12 for a, b in zip(hi, hi[1:])))
        squeeze = (all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
                   and gaps[-1] < gaps[0])
        checks.append(Check("A10 ladder monotone on both sides", float(mono), 1.0, mono))
        checks.append(Check("A10 squeeze: gap shrinks along the ladder", gaps[-1],
                            gaps[0], squeeze))
        substeps += sum(int(s.substeps.sum()) for s in lower + upper)
        return checks, {"ref_err": ref_err, "hj_solver.substeps": substeps,
                        "a3_ratio": d01 / d12, "ladder_gaps": tuple(gaps)}


class McDual:
    """One q=3 solve, the duality gap for the zero, feedback and constant
    controls, and the BSDE residual with the BMO check."""

    name = "mc_dual"

    def __init__(self, seed, toy=False):
        self.model = _bm_model()
        self.gen = generators.PowerGenerator(3.0)
        self.conj = generators.conjugate_of(self.gen)
        self.tc = terminal_data.TerminalCondition.analytic("cos", amplitude=0.5)
        self.grid = _grid(201, 1e-2) if toy else _grid(801, 1e-3)
        self.extras = (dual_mc.ConstantControl(0.5),)
        self.dual_paths, self.dual_steps = (2_000, 50) if toy else (50_000, 200)
        self.res_paths, self.res_steps = (1_000, 20) if toy else (20_000, 100)
        self.dual_seed = 405 + seed
        self.res_seed = 503 + seed

    def run_pass(self):
        sol = hj_solver.solve(self.model, self.gen, self.tc, self.grid, 0.0)
        rep = dual_mc.duality_gap(self.model, self.gen, self.conj, self.tc, sol,
                                  0.0, 0.0, self.dual_paths, seed=self.dual_seed,
                                  n_steps=self.dual_steps, scheme_tol=1e-2,
                                  extra_controls=self.extras)
        checks = [Check(f"A6 dual lower bound [{r.control_kind}]",
                        r.value + 3.0 * r.std_error, rep.u0 - rep.scheme_tol,
                        r.lower_bound_pass) for r in rep.rows]
        mc_se = [r.std_error for r in rep.rows if r.control_kind == "feedback"][0]

        bundle = forward_model.simulate_paths(self.model, 0.0, 0.0, self.res_paths,
                                              self.res_steps, seed=self.res_seed)
        res = path_checks.bsde_residual(sol, self.model, self.gen, bundle)
        bmo = path_checks.bmo_energy_check(res, self.tc.sup_norm)
        checks.append(Check("path exclusion fraction <= 1%", res.excluded_fraction,
                            0.01, res.excluded_fraction <= 0.01))
        checks.append(Check("A11 BMO energy <= 4||Phi||^2 + 3SE", bmo.energy,
                            bmo.bound + 3.0 * res.energy_se, bmo.passed))
        return checks, {"mc_se": mc_se, "hj_solver.substeps": int(sol.substeps.sum()),
                        "dual_values": tuple(r.value for r in rep.rows),
                        "residual": (res.rms_terminal_residual, res.energy)}


class CxComb:
    """The three ill-posedness constructions: thm34 checks and the limit
    witness, the thm33 excursion for n = 2, 3 and the thm31 series."""

    name = "cx_comb"

    def __init__(self, seed, toy=False):
        self.thm34_paths, self.coarse = (200, 512) if toy else (2_000, 4096)
        self.witness_paths = 64 if toy else 256
        self.thm33_paths = 1_000 if toy else 10_000
        self.thm31_K = 1_000 if toy else 10_000
        self.seed34 = 77 + seed
        self.seed33 = {n: 88 + n + seed for n in (2, 3)}

    def run_pass(self):
        cfg34 = cx.build_thm34(3.0, 6, 1.0)
        rep = cx.thm34_checks(cfg34, self.thm34_paths, self.coarse, seed=self.seed34)
        wit = cx.limit_not_solution_witness(cfg34, seed=self.seed34,
                                            n_paths=self.witness_paths,
                                            n_coarse=self.coarse)
        rows = list(rep.rows) + list(wit.rows)
        facts = {"p_nu_T": rep.p_nu_T}
        for n in (2, 3):
            cfg33 = cx.build_thm33(3.0, n, 0.5, 0.5, 8)
            rep33 = cx.simulate_thm33_excursion(cfg33, self.thm33_paths, 64,
                                                seed=self.seed33[n])
            rows.extend(rep33.rows)
            facts[f"thm33_n{n}"] = (rep33.estimate, rep33.dominating_estimate)
        seq = cx.build_thm31(3.0, self.thm31_K, 1.0)
        rep31 = cx.thm31_series_report(seq)
        rows.extend(rep31.rows)
        checks = [Check(f"{r.construction} {r.check}", r.value, r.threshold, r.passed)
                  for r in rows]
        inv_a = 1.0 / seq.alpha
        harmonic = float(np.sum(1.0 / np.arange(1, self.thm31_K + 1)))
        checks += [
            Check("A9 cost <= pi^2/(6a)", rep31.cost_partial, inv_a * np.pi**2 / 6.0,
                  rep31.cost_partial <= inv_a * np.pi**2 / 6.0),
            Check("A9 z^2 sum <= zeta(3)/a", rep31.z2_partial,
                  inv_a * 1.2020569031595943,
                  rep31.z2_partial <= inv_a * 1.2020569031595943),
            Check("A9 q^2 sum >= H_K/a", rep31.q2_partial, inv_a * harmonic,
                  rep31.q2_partial >= inv_a * harmonic),
        ]
        facts["divergence_K"] = rep31.divergence_K
        facts["values"] = tuple(float(c.value) for c in checks)
        return checks, facts


FAST_CFG = """
generator: {kind: power, q: 3.0}
terminal: {profile: cos, amplitude: 0.5}
model: {drift: zero, sigma: 1.0, T: 1.0}
grid: {n_x: 128, dt: 0.005, x_lo: -8.0, x_hi: 8.0}
mc: {n_paths: 400, n_steps: 40, seed: 5}
regularize: {m_list: [2.0, 8.0]}
counterexample: {K: 3}
"""

TOY_CFG = FAST_CFG.replace("n_x: 128, dt: 0.005", "n_x: 64, dt: 0.02").replace(
    "n_paths: 400, n_steps: 40", "n_paths: 100, n_steps: 20")

COMMANDS = (("solve", "fast"), ("checks", "fast"), ("dual", "fast"),
            ("regularize", "fast"), ("oracle", "quad"),
            ("counterexample 3.1", "fast"), ("counterexample 3.3", "fast"),
            ("counterexample 3.4", "fast"))


class CliFast:
    """All eight CLI commands in process through ``cli.main(argv)`` with the
    A12 configs; artifacts go to a throwaway directory and must be
    byte-identical to the first pass."""

    name = "cli_fast"

    def __init__(self, seed, toy=False, *, work_dir):
        self.root = Path(work_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        fast = TOY_CFG if toy else FAST_CFG
        texts = {"fast": fast, "quad": fast.replace("{kind: power, q: 3.0}",
                                                    "{kind: quadratic, gamma: 0.5}")}
        self.configs = {}
        for key, text in texts.items():
            path = self.root / f"{key}.yaml"
            path.write_text(text)
            self.configs[key] = path
        self.seed = 5 + seed
        self.reference = None
        self.passes = 0

    def _argv(self, label, cfg_key, out):
        argv = [*label.split(), "--config", str(self.configs[cfg_key]),
                "--out", str(out), "--seed", str(self.seed)]
        return argv + ["--dump-paths"] if label == "checks" else argv

    def run_pass(self):
        self.passes += 1
        pass_dir = self.root / f"pass{self.passes}"
        checks = []
        sink = io.StringIO()
        for label, cfg_key in COMMANDS:
            out = pass_dir / label.replace(" ", "_")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = cli.main(self._argv(label, cfg_key, out))
            checks.append(Check(f"exit status 0 [{label}]", status, 0, status == 0))
        files = sorted(p.relative_to(pass_dir) for p in pass_dir.rglob("*") if p.is_file())
        written = sum((pass_dir / rel).stat().st_size for rel in files)
        if self.reference is None:
            self.reference = (pass_dir, files)
        else:
            ref_dir, ref_files = self.reference
            same = files == ref_files and all(
                filecmp.cmp(pass_dir / rel, ref_dir / rel, shallow=False) for rel in files)
            checks.append(Check("artifacts byte-identical to the first pass",
                                float(same), 1.0, same))
            shutil.rmtree(pass_dir)
        return checks, {"cli.bytes_written": written}


WORKLOADS = {w.name: w for w in (PdeRefine, McDual, CxComb, CliFast)}
