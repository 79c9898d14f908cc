"""Batch command-line front end.

Commands: solve, dual, checks, regularize, counterexample {3.1|3.3|3.4},
oracle.  Run configurations are YAML trees validated against a strict
schema (unknown keys are errors); every command works with built-in
defaults when no config is given.  load_config then builds every input a
command computes with once, before any compute and before the output
directory exists; the runners only compute and write.  Outputs are CSV
files plus a human-readable summary; reruns with the same config and seed
are byte-identical.  Exit status is 0 iff every hard check passed.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import counterexamples as cx
from . import dual_mc, generators, hj_solver, path_checks, terminal_data
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
        body = {k: getattr(self, k) for k in ("command", "which", *_SCHEMA) if k != "out"}
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


def load_config(path=None, command="solve", which="", overrides=None):
    """Parse, validate and default a YAML run config, then build its inputs.

    Everything happens before any compute; an unknown key or a value a
    builder rejects raises ConfigError with the offending field name."""
    raw = {}
    if path is not None:
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh)
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
    # the default grid is centred on x0
    if not np.isfinite(cfg.x0):
        raise ConfigError("x0", f"must be finite, got {cfg.x0!r}")
    if not cfg.grid["dt"] > 0.0:
        raise ConfigError("grid.dt", f"must be > 0, got {cfg.grid['dt']}")
    if not 0.0 <= cfg.dual["scheme_tol"] < np.inf:
        raise ConfigError("dual.scheme_tol",
                          f"must be finite and >= 0, got {cfg.dual['scheme_tol']}")
    if not 0.0 < cfg.counterexample["T"] < np.inf:
        raise ConfigError("counterexample.T",
                          f"must be finite and > 0, got {cfg.counterexample['T']}")


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
    xs, _ = _built("grid", hj_solver._grid_arrays, model, grid, cfg.t0)
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
    controls = tuple(_built("dual.constants", dual_mc.ConstantControl,
                            _coerce(q, float, "dual.constants"))
                     for q in cfg.dual["constants"])
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
        tc = tc.inf_convolved(t["inf_convolve_m"])
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
    lo, hi = float(np.min(sol.u[0])), float(np.max(sol.u[0]))
    terminal_err = float(np.max(np.abs(sol.u[0] - np.asarray(sol.tc(sol.x_grid)))))
    u_max, u_min = float(np.max(sol.u)), float(np.min(sol.u))
    u_abs, bound = float(np.max(np.abs(sol.u))), sol.tc.sup_norm + 1e-9
    return [
        CheckLine("terminal layer imposed exactly", terminal_err, 1e-12,
                  terminal_err <= 1e-12),
        CheckLine("maximum principle: max u <= max Phi", u_max, hi + 1e-9, u_max <= hi + 1e-9),
        CheckLine("maximum principle: min u >= min Phi", u_min, lo - 1e-9, u_min >= lo - 1e-9),
        CheckLine("sup bound |u| <= ||Phi||", u_abs, bound, u_abs <= bound),
    ]


def _run_solve(cfg, inp, out):
    sol = hj_solver.solve(inp.model, inp.gen, inp.tc, inp.grid, cfg.t0)
    sol.to_csv(out / "solution.csv")
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
    sol.to_csv(out / "solution.csv")
    bundle = simulate_paths(model, cfg.x0, cfg.t0, cfg.mc["n_paths"],
                            cfg.mc["n_steps"], cfg.mc["seed"])
    if cfg.dump_paths:
        bundle.to_csv(out / "paths.csv")
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
    zrep = path_checks.apriori_z_bound(sol, model, tc.sup_norm)
    rows.append(CheckLine("Z envelope ratio <= 1", zrep.worst_ratio, 1.0,
                          zrep.passed))
    prep = path_checks.penalty_bound_check(sol, gen, inp.conj, tc.sup_norm)
    if prep.skipped_reason:
        rows.append(CheckLine("penalty envelope (skipped: non-convex composite)",
                              0.0, 1.0, True, hard=False))
    else:
        rows.append(CheckLine("penalty envelope ratio <= 1", prep.worst_ratio,
                              1.0, prep.passed))
    extra = []
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
    built, mc = inp.construction, cfg.mc
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
        report = cx.thm34_checks(built, mc["n_paths"], 4096, mc["seed"])
        extra = [f"P[nu = T] = {report.p_nu_T!r}"]
        for j, k, rho in report.skipped_pairs:
            extra.append(f"cross-covariance ({j},{k}) below float resolution; "
                         f"correlation bound {rho!r}")
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
                        help="also write simulated paths as CSV")
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
