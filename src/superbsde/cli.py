"""Batch command-line front end.

Commands: solve, dual, checks, regularize, counterexample {3.1|3.3|3.4},
oracle.  Run configurations are YAML trees validated against a strict
schema (unknown keys are errors); every command works with built-in
defaults when no config is given.  load_config then builds every input a
command computes with once, before any compute and before the output
directory exists; the runners only compute and write.  Outputs are CSV
tables of results and checks, the whole fields as NumPy .npy/.npz files
(`solve`'s u, and the paths of `checks --dump-paths`), plus a
human-readable summary; reruns with the same config and seed are
byte-identical.  Exit status is 0 iff every hard check passed.
"""

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import counterexamples as cx
from . import (dual_mc, forward_model, generators, hj_solver, path_checks,
               terminal_data)
from .errors import ConfigError, SuperbsdeError
from .forward_model import (ForwardModel, LinearDrift, TanhDrift, ZeroDrift,
                            simulate_paths)

_DEFAULTS = {
    "generator": {"kind": "power", "q": 3.0},
    "terminal": {"profile": "cos", "amplitude": 0.5},
    "model": {"drift": "zero", "sigma": 1.0, "T": 1.0},
    "grid": {"n_x": 321, "dt": 2e-3, "pad": 2.0},
    "mc": {"n_paths": 4000, "n_steps": 100, "seed": 1234},
    "x0": 0.0,
    "t0": 0.0,
    "out": "out",
    "counterexample": {"q": 3.0, "K": None, "T": 1.0, "n": 2, "theta": 0.5,
                       "epsilon": 0.5},
    "regularize": {"m_list": [2.0, 4.0, 8.0, 16.0]},
    "dual": {"scheme_tol": 1e-2, "constants": []},
}

_SCHEMA = {
    "generator": {"kind": str, "q": float, "gamma": float, "csv": str},
    "terminal": {"profile": str, "amplitude": float, "frequency": float,
                 "offset": float, "jump": float, "low": float, "high": float,
                 "csv": str, "inf_convolve_m": float},
    "model": {"drift": object, "sigma": float, "T": float},
    "grid": {"n_x": int, "dt": float, "pad": float, "x_lo": float, "x_hi": float},
    "mc": {"n_paths": int, "n_steps": int, "seed": int},
    "x0": float,
    "t0": float,
    "out": str,
    "counterexample": {"q": float, "K": int, "T": float, "n": int,
                       "theta": float, "epsilon": float},
    "regularize": {"m_list": list},
    "dual": {"scheme_tol": float, "constants": list},
}


@dataclass(frozen=True)
class Inputs:
    """The objects a command computes with, built once by load_config."""

    gen: object = None
    conj: object = None
    tc: object = None
    model: object = None
    grid: object = None
    m_list: tuple = ()
    controls: tuple = ()
    construction: object = None


@dataclass
class RunConfig:
    command: str
    which: str = ""
    generator: dict = field(default_factory=dict)
    terminal: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    mc: dict = field(default_factory=dict)
    x0: float = 0.0
    t0: float = 0.0
    out: str = "out"
    dump_paths: bool = False
    counterexample: dict = field(default_factory=dict)
    regularize: dict = field(default_factory=dict)
    dual: dict = field(default_factory=dict)
    inputs: Inputs = field(default_factory=Inputs)

    def echo(self):
        """The config the command read, as one JSON line: a counterexample
        reads only its own section."""
        keys = (("counterexample",) if self.command == "counterexample"
                else [k for k in _SCHEMA if k != "out"])
        body = {k: getattr(self, k) for k in ("command", "which", *keys)}
        return json.dumps(body, sort_keys=True)


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean",
               str: "a string", list: "a list"}


def _coerce(value, want, where):
    if want is object:
        return value
    numeric = want in (float, int)
    if (not isinstance(value, (int, float) if want is float else want)
            or numeric and isinstance(value, bool)):
        raise ConfigError(where, f"expected {_TYPE_NAMES[want]}, got {value!r}")
    return want(value) if numeric else value


def _validate(raw):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    out = {}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(key, "unknown key")
        want = _SCHEMA[key]
        if isinstance(want, dict):
            if not isinstance(value, dict):
                raise ConfigError(key, "expected a mapping")
            sub = {}
            for k2, v2 in value.items():
                if k2 not in want:
                    raise ConfigError(f"{key}.{k2}", "unknown key")
                sub[k2] = _coerce(v2, want[k2], f"{key}.{k2}")
            out[key] = sub
        else:
            out[key] = _coerce(value, want, key)
    return out


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser where it is installed, that
    also reads an exponent without a dot (`1e-3`) as a float; YAML 1.1
    would read it as a string."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"))


def load_config(path=None, command="solve", which="", overrides=None):
    """Parse, validate and default a YAML run config, then build its inputs.

    Everything happens before any compute; an unknown key or a value a
    builder rejects raises ConfigError with the offending field name."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            try:
                raw = yaml.load(fh, Loader=_Loader)
            except yaml.YAMLError as exc:
                mark = getattr(exc, "problem_mark", None)
                line = f" (line {mark.line + 1})" if mark is not None else ""
                raise ConfigError("<parse>", f"{exc.problem or exc}{line}") from exc
    clean = _validate(raw)
    cfg = RunConfig(command=command, which=which)
    for key, want in _SCHEMA.items():
        value = clean.get(key, _DEFAULTS[key])
        setattr(cfg, key, {**_DEFAULTS[key], **value} if isinstance(want, dict) else value)
    if overrides:
        if overrides.get("seed") is not None:
            cfg.mc["seed"] = int(overrides["seed"])
        if overrides.get("out") is not None:
            cfg.out = overrides["out"]
        cfg.dump_paths = bool(overrides.get("dump_paths", False))
    _check_config(cfg)
    cfg.inputs = _build_inputs(cfg)
    return cfg


# smallest allowed values; grid.dt must also be positive
_LOWER_BOUNDS = {"mc.n_paths": 2, "mc.n_steps": 1, "grid.n_x": 64}
# the most floats (1 GiB) of one array a command sizes from its config
_MAX_FLOATS = 2**27
# per-path arrays of path_checks.bsde_residual: exclusion flags, X_T and
# its two running sums
_RESIDUAL_PER_PATH = 4


def _check_config(cfg):
    # mc.seed is the high word of every Philox key (forward_model.path_normals)
    seed = cfg.mc["seed"]
    if not 0 <= seed < 2**63:
        raise ConfigError("mc.seed", f"must be in [0, 2**63), got {seed}")
    for where, low in _LOWER_BOUNDS.items():
        section, key = where.split(".")
        value = getattr(cfg, section)[key]
        if value < low:
            raise ConfigError(where, f"must be >= {low}, got {value}")
    # the default grid is centred on x0; no grid bound or time may be NaN or inf
    for where, value in (("x0", cfg.x0), ("t0", cfg.t0),
                         *((f"grid.{k}", cfg.grid.get(k)) for k in ("x_lo", "x_hi", "pad"))):
        if value is not None and not np.isfinite(value):
            raise ConfigError(where, f"must be finite, got {value!r}")
    if not cfg.grid["dt"] > 0.0:
        raise ConfigError("grid.dt", f"must be > 0, got {cfg.grid['dt']}")
    # a negative pad would cut the default domain inside x0 +- 6 sigma sqrt(T - t0)
    if not cfg.grid["pad"] >= 0.0:
        raise ConfigError("grid.pad", f"must be >= 0, got {cfg.grid['pad']!r}")
    T = cfg.model["T"]
    if 0.0 < T < np.inf and not cfg.t0 < T:  # building the model names a bad T
        raise ConfigError("t0", f"must be below model.T = {T!r}, got {cfg.t0!r}")
    if not 0.0 <= cfg.dual["scheme_tol"] < np.inf:
        raise ConfigError("dual.scheme_tol",
                          f"must be finite and >= 0, got {cfg.dual['scheme_tol']}")
    if not 0.0 < cfg.counterexample["T"] < np.inf:
        raise ConfigError("counterexample.T",
                          f"must be finite and > 0, got {cfg.counterexample['T']}")
    _check_sizes(cfg)


def _check_sizes(cfg):
    """Refuse a config that sizes one array past _MAX_FLOATS, before any is
    allocated, naming the key of the larger factor.  The arrays: levels x
    nodes of a PDE solve; a replayed block of knots (the drawn block of
    increments beside it is one knot smaller) and the residual's per-path
    arrays of `checks`; the feedback plan, a drawn block and the per-path
    results of `dual`.  No counterexample reads a size from the config."""
    n_x, n_paths, n_steps = cfg.grid["n_x"], cfg.mc["n_paths"], cfg.mc["n_steps"]
    block = min(n_paths, forward_model.BLOCK_PATHS)
    span = cfg.model["T"] - cfg.t0  # > 0 and finite for a valid model.T
    arrays = {"checks": [("block paths x knots", "mc.n_paths", block, "mc.n_steps",
                          n_steps + 1),
                         ("paths x per-path arrays", "mc.n_paths", n_paths, None,
                          _RESIDUAL_PER_PATH)],
              "dual": [("knots x nodes", "mc.n_steps", n_steps, "grid.n_x", n_x),
                       ("block paths x steps", "mc.n_paths", block, "mc.n_steps", n_steps),
                       ("paths x controls", "mc.n_paths", n_paths,
                        "dual.constants", 2 + len(cfg.dual["constants"]))],
              }.get(cfg.command, [])
    if cfg.command != "counterexample" and 0.0 < span < np.inf:
        arrays.append(("levels x nodes", "grid.dt", max(1.0, span / cfg.grid["dt"]) + 1.0,
                       "grid.n_x", n_x))
    for what, key_a, a, key_b, b in arrays:
        if float(a) * float(b) > _MAX_FLOATS:
            raise ConfigError(key_a if a >= b or key_b is None else key_b,
                              f"{what} = {a:.6g} x {b:.6g} = {float(a) * b:.3g} floats; "
                              f"one array may hold at most 2**27")


def _built(where, build, *args):
    """build(*args); a value it rejects becomes ConfigError(where)."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValueError, OSError, SuperbsdeError) as exc:
        raise ConfigError(where, str(exc)) from exc


def _build_inputs(cfg):
    if cfg.command == "counterexample":
        return Inputs(construction=_built("counterexample", _build_construction, cfg))
    gen, conj = _built("generator", build_generator, cfg)
    tc = _built("terminal", build_terminal, cfg)
    model = _built("model", build_model, cfg)
    grid = build_grid(cfg)
    # with a pad >= 0 the default domain x0 +- radius is empty only when x0
    # is too large for x0 - radius < x0 + radius
    xs, _ = _built("grid" if grid.x_lo is not None else "x0",
                   hj_solver._grid_arrays, model, grid, cfg.t0)
    if not xs[0] <= cfg.x0 <= xs[-1]:
        raise ConfigError("x0", f"must lie in [grid.x_lo, grid.x_hi], got {cfg.x0!r}")
    if cfg.command == "oracle" and not isinstance(gen, generators.QuadraticGenerator):
        raise ConfigError("generator.kind", "oracle requires the quadratic kind")
    if cfg.command == "oracle" and not model.drift.zero:
        raise ConfigError("model.drift", "oracle requires zero drift")
    m_list = tuple(_coerce(m, float, "regularize.m_list") for m in cfg.regularize["m_list"])
    if not (m_list and 0.0 <= m_list[0] and m_list[-1] < np.inf
            and all(a <= b for a, b in zip(m_list, m_list[1:]))):
        raise ConfigError("regularize.m_list", "need a non-empty increasing list of "
                          f"finite m >= 0, got {list(m_list)}")
    # the smallest m is the one for which (hi - lo) / m can overflow
    _built("regularize.m_list", tc.inf_convolved, m_list[0])
    controls = tuple(_built("dual.constants", dual_mc.ConstantControl,
                            _coerce(q, float, "dual.constants"))
                     for q in cfg.dual["constants"])
    span = model.horizon - cfg.t0
    for ctrl in controls:
        # a constant control's penalty is f(q) (T - t0); an overflow would
        # give its row an infinite value
        with np.errstate(over="ignore"):
            penalty = float(conj.eval(ctrl.q)) * span
        if not np.isfinite(penalty):
            raise ConfigError("dual.constants", f"the penalty f(q) (T - t0) of q = "
                              f"{ctrl.q!r} overflows")
    return Inputs(gen, conj, tc, model, grid, m_list, controls)


_CX_DEFAULT_K = {"3.1": 10_000, "3.3": 8, "3.4": 6}


def _build_construction(cfg):
    """The Thm 3.1/3.3/3.4 configuration, with K resolved once."""
    p = cfg.counterexample
    if cfg.which not in _CX_DEFAULT_K:
        raise ConfigError("counterexample", f"unknown construction {cfg.which!r}")
    K = p["K"] if p["K"] is not None else _CX_DEFAULT_K[cfg.which]
    if cfg.which == "3.1":
        # one K serves the three constructions, and a K sized for 3.4 (A12
        # runs every command with K: 3) is raised to the 10 build_thm31 needs
        return cx.build_thm31(p["q"], max(K, 10), p["T"])
    if cfg.which == "3.3":
        return cx.build_thm33(p["q"], p["n"], p["theta"], p["epsilon"], K, p["T"])
    return cx.build_thm34(p["q"], K, p["T"])


def build_generator(cfg):
    g = cfg.generator
    kind = g["kind"]
    if kind == "power":
        gen = generators.PowerGenerator(g["q"])
    elif kind == "quadratic":
        gen = generators.QuadraticGenerator(g.get("gamma", 0.5))
    elif kind == "sampled":
        if "csv" not in g:
            raise ConfigError("generator.csv", "sampled kind needs a csv path")
        gen = generators.SampledGenerator.from_csv(g["csv"])
    else:
        raise ConfigError("generator.kind", f"unknown kind {kind!r}")
    return gen, generators.conjugate_of(gen)


def build_terminal(cfg):
    t = cfg.terminal
    profile = t["profile"]
    if profile in ("const", "cos", "inv_quad", "tanh"):
        kwargs = {k: t[k] for k in ("amplitude", "frequency", "offset") if k in t}
        tc = terminal_data.TerminalCondition.analytic(profile, **kwargs)
    elif profile == "step":
        tc = terminal_data.TerminalCondition.step(
            t.get("jump", 0.0), t.get("low", 0.0), t.get("high", 1.0))
    elif profile == "tabulated":
        if "csv" not in t:
            raise ConfigError("terminal.csv", "tabulated profile needs a csv path")
        tc = terminal_data.TerminalCondition.from_csv(t["csv"])
    else:
        raise ConfigError("terminal.profile", f"unknown profile {profile!r}")
    if "inf_convolve_m" in t:
        tc = _built("terminal.inf_convolve_m", tc.inf_convolved, t["inf_convolve_m"])
    return tc


def build_model(cfg):
    m = cfg.model
    spec = m["drift"]
    if spec == "zero":
        drift = ZeroDrift()
    elif isinstance(spec, dict) and "linear" in spec and len(spec) == 1:
        drift = LinearDrift(_coerce(spec["linear"], float, "model.drift"))
    elif isinstance(spec, dict) and "tanh" in spec and len(spec) == 1:
        drift = TanhDrift(_coerce(spec["tanh"], float, "model.drift"))
    else:
        raise ConfigError("model.drift",
                          f"expected 'zero', {{linear: b}} or {{tanh: a}}, got {spec!r}")
    return ForwardModel(drift, m["sigma"], m["T"])


def build_grid(cfg):
    g = cfg.grid
    return hj_solver.GridSpec(n_x=g["n_x"], dt=g["dt"], x_center=cfg.x0, pad=g["pad"],
                              x_lo=g.get("x_lo"), x_hi=g.get("x_hi"))


@dataclass(frozen=True)
class CheckLine:
    name: str
    statistic: float
    threshold: float
    passed: bool
    hard: bool = True


def _fmt(v):
    return repr(float(v))


def _write_checks(rows, path):
    with open(path, "w", newline="") as fh:
        fh.write("check,statistic,threshold,pass\n")
        for r in rows:
            fh.write(f"{r.name},{_fmt(r.statistic)},{_fmt(r.threshold)},{int(r.passed)}\n")


def _write_summary(cfg, rows, extra_lines, path):
    hard_fail = [r for r in rows if r.hard and not r.passed]
    with open(path, "w") as fh:
        fh.write(f"command: {cfg.command} {cfg.which}".rstrip() + "\n")
        fh.write(f"config: {cfg.echo()}\n")
        for line in extra_lines:
            fh.write(line + "\n")
        for r in rows:
            tag = "PASS" if r.passed else ("FAIL" if r.hard else "fail(soft)")
            fh.write(f"{tag} [{'hard' if r.hard else 'soft'}] {r.name}: "
                     f"{_fmt(r.statistic)} vs {_fmt(r.threshold)}\n")
        fh.write(f"hard_failures: {len(hard_fail)}\n")
    return len(hard_fail) == 0


def _solution_rows(sol):
    """The terminal, maximum-principle and sup-norm rows of a solve; the
    extremes over every level come from one streamed pass (`walk`)."""
    lo, hi = float(np.min(sol.u[0])), float(np.max(sol.u[0]))
    terminal_err = float(np.max(np.abs(sol.u[0] - np.asarray(sol.tc(sol.x_grid)))))
    u_max, u_min, u_abs = -np.inf, np.inf, 0.0
    for row in sol.walk():
        u_max, u_min = max(u_max, float(np.max(row))), min(u_min, float(np.min(row)))
        u_abs = max(u_abs, float(np.max(np.abs(row))))
    bound = sol.tc.sup_norm + 1e-9
    return [
        CheckLine("terminal layer imposed exactly", terminal_err, 1e-12,
                  terminal_err <= 1e-12),
        CheckLine("maximum principle: max u <= max Phi", u_max, hi + 1e-9, u_max <= hi + 1e-9),
        CheckLine("maximum principle: min u >= min Phi", u_min, lo - 1e-9, u_min >= lo - 1e-9),
        CheckLine("sup bound |u| <= ||Phi||", u_abs, bound, u_abs <= bound),
    ]


def _run_solve(cfg, inp, out):
    sol = hj_solver.solve(inp.model, inp.gen, inp.tc, inp.grid, cfg.t0)
    sol.to_npy(out / "solution.npy")
    np.savez(out / "grid.npz", t=sol.t_grid, x=sol.x_grid, cap_active=sol.cap_active)
    rows = _solution_rows(sol)
    u0 = sol.u_at(cfg.t0, cfg.x0)
    return rows, [f"u(t0, x0) = {u0!r}", f"substeps_total = {int(sol.substeps.sum())}"]


def _run_oracle(cfg, inp, out):
    xs, _ = hj_solver._grid_arrays(inp.model, inp.grid, cfg.t0)
    vals = hj_solver.cole_hopf_reference(inp.model, inp.gen, inp.tc, cfg.t0, xs)
    with open(out / "oracle.csv", "w", newline="") as fh:
        fh.write("x,u_oracle\n")
        for x, v in zip(xs.tolist(), vals.tolist()):
            fh.write(f"{x!r},{v!r}\n")
    mid = hj_solver.cole_hopf_reference(inp.model, inp.gen, inp.tc, cfg.t0, cfg.x0)
    rows = [CheckLine("oracle finite on grid", float(np.max(np.abs(vals))),
                      float("inf"), bool(np.all(np.isfinite(vals))))]
    return rows, [f"u_oracle(t0, x0) = {mid!r}"]


def _run_dual(cfg, inp, out):
    sol = hj_solver.solve(inp.model, inp.gen, inp.tc, inp.grid, cfg.t0)
    report = dual_mc.duality_gap(inp.model, inp.gen, inp.conj, inp.tc, sol, cfg.x0,
                                 cfg.t0, cfg.mc["n_paths"], cfg.mc["seed"],
                                 n_steps=cfg.mc["n_steps"],
                                 scheme_tol=cfg.dual["scheme_tol"],
                                 extra_controls=inp.controls)
    report.to_csv(out / "dual.csv")
    rows = []
    for r in report.rows:
        rows.append(CheckLine(f"dual lower bound [{r.control_kind}]",
                              r.value + 3.0 * r.std_error,
                              report.u0 - report.scheme_tol, r.lower_bound_pass))
        if r.control_kind == "feedback":
            rows.append(CheckLine("feedback attainment gap (soft)",
                                  r.attainment_gap,
                                  3.0 * r.std_error + report.scheme_tol,
                                  r.attainment_within_tol, hard=False))
    sampled = [r.control_kind for r in report.rows if r.method == "monte_carlo"]
    exact = [r.control_kind for r in report.rows if r.method == "quadrature"]
    extra = [f"u(t0, x0) = {report.u0!r}",
             f"rng: per-path Philox keys (seed << 64) + (salt << 48) + p; the "
             f"sampled rows ({', '.join(sampled)}) read salt 0 of seed "
             f"{cfg.mc['seed']}"]
    if exact:
        extra.append(f"quadrature rows ({', '.join(exact)}): Gauss-Hermite "
                     "expectation of the Gaussian Euler X_T, no paths")
    return rows, extra


def _run_checks(cfg, inp, out):
    gen, tc, model = inp.gen, inp.tc, inp.model
    sol = hj_solver.solve(model, gen, tc, inp.grid, cfg.t0)
    bundle = simulate_paths(model, cfg.x0, cfg.t0, cfg.mc["n_paths"],
                            cfg.mc["n_steps"], cfg.mc["seed"])
    if cfg.dump_paths:
        bundle.to_npy(out / "paths.npy")
    report = path_checks.bsde_residual(sol, model, gen, bundle)
    bmo = path_checks.bmo_energy_check(report, tc.sup_norm)
    rows = [
        CheckLine("path exclusion fraction <= 1%", report.excluded_fraction,
                  path_checks.MAX_EXCLUDED,
                  report.excluded_fraction <= path_checks.MAX_EXCLUDED),
        CheckLine("BMO energy <= 4||Phi||^2 + 3SE", bmo.energy,
                  bmo.bound + 3.0 * report.energy_se, bmo.passed),
        CheckLine("rms terminal residual (soft)", report.rms_terminal_residual,
                  float("inf"), True, hard=False),
        CheckLine("max step residual (soft)", report.max_step_residual,
                  float("inf"), True, hard=False),
    ]
    # an envelope with no level EDGE_STEPS base steps from T checks nothing
    no_level = f"no level {path_checks.EDGE_STEPS} steps from T"
    zrep = path_checks.apriori_z_bound(sol, model, tc.sup_norm)
    if zrep.n_levels:
        rows.append(CheckLine("Z envelope ratio <= 1", zrep.worst_ratio, 1.0,
                              zrep.passed))
    else:
        rows.append(CheckLine(f"Z envelope (skipped: {no_level})", 0.0, 1.0, True,
                              hard=False))
    prep = path_checks.penalty_bound_check(sol, gen, inp.conj, tc.sup_norm)
    if prep.skipped_reason or not prep.n_levels:
        reason = "non-convex composite" if prep.skipped_reason else no_level
        rows.append(CheckLine(f"penalty envelope (skipped: {reason})",
                              0.0, 1.0, True, hard=False))
    else:
        rows.append(CheckLine("penalty envelope ratio <= 1", prep.worst_ratio,
                              1.0, prep.passed))
    extra = [f"rng: per-path Philox keys (seed << 64) + (salt << 48) + p; the "
             f"residual's paths read salt 0 of seed {cfg.mc['seed']}, their knots "
             f"replayed in blocks of {forward_model.BLOCK_PATHS} paths"]
    if isinstance(gen, generators.PowerGenerator):
        try:
            fit = path_checks.exponent_fit(sol, gen.q)
            rows.append(CheckLine("exponent fit slope ~ -1/q (soft)", fit.slope,
                                  fit.expected, abs(fit.slope - fit.expected) <= 0.15,
                                  hard=False))
            extra.append(f"exponent fit: slope={fit.slope!r} +- {fit.stderr!r}")
        except (path_checks.NoFitError, SuperbsdeError) as exc:
            extra.append(f"exponent fit skipped: {exc}")
    return rows, extra


def _run_regularize(cfg, inp, out):
    tc, m_list = inp.tc, inp.m_list
    lower, upper = (hj_solver.solve_regularized_family(
        inp.model, inp.gen, tc, m_list, side, inp.grid, cfg.t0)
        for side in ("lower", "upper"))
    lo_vals = [s.u_at(cfg.t0, cfg.x0) for s in lower]
    hi_vals = [s.u_at(cfg.t0, cfg.x0) for s in upper]
    gaps = [h - l for h, l in zip(hi_vals, lo_vals)]
    certified = tc.lipschitz is not None
    certs = [terminal_data.uniform_gap_bound(tc, m) if certified else float("nan")
             for m in m_list]
    with open(out / "regularize.csv", "w", newline="") as fh:
        fh.write("m,lower_value,upper_value,gap,certified_terminal_gap\n")
        for row in zip(m_list, lo_vals, hi_vals, gaps, certs):
            fh.write(",".join(repr(v) for v in row) + "\n")
    mono_lo = all(b >= a - 1e-10 for a, b in zip(lo_vals, lo_vals[1:]))
    mono_hi = all(b <= a + 1e-10 for a, b in zip(hi_vals, hi_vals[1:]))
    rows = [
        CheckLine("lower ladder nondecreasing in m", float(mono_lo), 1.0, mono_lo),
        CheckLine("upper ladder nonincreasing in m", float(mono_hi), 1.0, mono_hi),
        CheckLine("squeeze: gap shrinks along the ladder", gaps[-1],
                  gaps[0] + 1e-10, gaps[-1] <= gaps[0] + 1e-10),
    ]
    if certified:
        # solve starts each member at u[0] = Phi_m on its grid; a kink between
        # two nodes is seen only at Phi's own critical points, so read those too
        top = lower[-1]
        measured = float(np.max(np.asarray(tc(top.x_grid)) - top.u[0]))
        crit = [c for c in tc.crit if top.x_grid[0] <= c <= top.x_grid[-1]]
        if crit:
            measured = max(measured, float(np.max(np.asarray(tc(crit))
                                                  - np.asarray(top.tc(crit)))))
        rows.append(CheckLine("certified terminal gap >= measured", measured,
                              certs[-1], measured <= certs[-1] + 1e-9))
    return rows, [f"gaps: {[repr(g) for g in gaps]}"]


def _run_counterexample(cfg, inp, out):
    built = inp.construction
    if cfg.which == "3.1":
        report = cx.thm31_series_report(built)
        extra = [f"alpha = {built.alpha!r}",
                 f"divergence witness K = {report.divergence_K}"]
    elif cfg.which == "3.3":
        report = cx.simulate_thm33_excursion(built)
        extra = [f"P(min V < -a) in [{report.estimate!r}, {report.dominating_estimate!r}] "
                 f"(bound {report.paper_bound!r})",
                 f"final quantiles (10/50/90%) = {report.final_quantiles!r}"]
    else:
        report = cx.thm34_bounds(built)
        extra = [f"P[nu = T] >= {report.p_nu_T!r}"]
    with open(out / "counterexample.csv", "w", newline="") as fh:
        fh.write("construction,check,value,threshold,pass\n")
        for r in report.rows:
            fh.write(f"{r.construction},\"{r.check}\",{_fmt(r.value)},"
                     f"{_fmt(r.threshold)},{int(r.passed)}\n")
    rows = [CheckLine(f"{r.construction}: {r.check}", r.value, r.threshold,
                      r.passed, hard=r.hard)
            for r in report.rows]
    return rows, extra


_RUNNERS = {
    "solve": _run_solve,
    "oracle": _run_oracle,
    "dual": _run_dual,
    "checks": _run_checks,
    "regularize": _run_regularize,
    "counterexample": _run_counterexample,
}


def run(cfg):
    """Execute a validated config; returns the process exit status."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    rows, extra = _RUNNERS[cfg.command](cfg, cfg.inputs, out)
    _write_checks(rows, out / "checks.csv")
    ok = _write_summary(cfg, rows, extra, out / "summary.txt")
    print(f"{cfg.command}: {'ok' if ok else 'HARD CHECK FAILED'} "
          f"({len(rows)} checks) -> {out}")
    return 0 if ok else 1


@functools.cache
def _defaults_yaml():
    """The config sections' defaults as YAML, for the --help epilog; dumped
    once per process."""
    return yaml.safe_dump(
        {k: v for k, v in _DEFAULTS.items() if isinstance(v, dict)},
        default_flow_style=True, sort_keys=True, width=100)


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="YAML run config")
    common.add_argument("--seed", type=int, default=None, help="override mc.seed")
    common.add_argument("--out", default=None, help="override output directory")
    common.add_argument("--dump-paths", action="store_true",
                        help="checks: also write the simulated paths to paths.npy")
    parser = argparse.ArgumentParser(
        prog="superbsde",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Superquadratic Markovian BSDEs via the viscous "
                    "Hamilton-Jacobi PDE: solver, dual bounds, checks and "
                    "ill-posedness witnesses.",
        epilog="config defaults (YAML):\n" + _defaults_yaml())
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "dual", "checks", "regularize", "oracle"):
        sub.add_parser(name, parents=[common])
    pc = sub.add_parser("counterexample", parents=[common])
    pc.add_argument("which", choices=["3.1", "3.3", "3.4"])

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, command=args.command,
                          which=getattr(args, "which", ""),
                          overrides={"seed": args.seed, "out": args.out,
                                     "dump_paths": args.dump_paths})
        return run(cfg)
    except SuperbsdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
