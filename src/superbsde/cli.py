"""Batch command-line front end.

Commands: solve, dual, checks, regularize, counterexample {3.1|3.3|3.4},
oracle.  Run configurations are YAML trees validated against a strict
schema (unknown keys are errors) before any compute starts; every command
works with built-in defaults when no config is given.  Outputs are CSV
files plus a human-readable summary; reruns with the same config and seed
are byte-identical.  Exit status is 0 iff every hard check passed.
"""

import argparse
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
                       "epsilon": 0.5, "full_simulation": False},
    "regularize": {"m_list": [2.0, 4.0, 8.0, 16.0]},
    "dual": {"scheme_tol": 1e-2, "constants": []},
}

_SCHEMA = {
    "generator": {"kind": str, "q": float, "gamma": float, "csv": str},
    "terminal": {"profile": str, "amplitude": float, "frequency": float,
                 "offset": float, "jump": float, "low": float, "high": float,
                 "csv": str, "inf_convolve_m": float},
    "model": {"drift": object, "sigma": float, "T": float, "lambda": float},
    "grid": {"n_x": int, "dt": float, "pad": float, "x_lo": float, "x_hi": float},
    "mc": {"n_paths": int, "n_steps": int, "seed": int},
    "x0": float,
    "t0": float,
    "out": str,
    "counterexample": {"q": float, "K": int, "T": float, "n": int,
                       "theta": float, "epsilon": float, "full_simulation": bool},
    "regularize": {"m_list": list},
    "dual": {"scheme_tol": float, "constants": list},
}


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
    warnings: list = field(default_factory=list)

    def echo(self):
        body = {k: getattr(self, k) for k in
                ("command", "which", "generator", "terminal", "model", "grid",
                 "mc", "x0", "t0", "counterexample", "regularize", "dual")}
        return json.dumps(body, sort_keys=True)


def _coerce(value, want, where):
    if want is object or want is list:
        return value
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(where, f"expected a number, got {value!r}")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(where, f"expected an integer, got {value!r}")
        return int(value)
    if want is bool:
        if not isinstance(value, bool):
            raise ConfigError(where, f"expected a boolean, got {value!r}")
        return value
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(where, f"expected a string, got {value!r}")
        return value
    raise ConfigError(where, "unhandled schema type")


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
    """Parse, validate and default a YAML run config.

    Validation happens before any compute; unknown keys raise ConfigError
    with the offending field name."""
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
    for section in ("generator", "terminal", "model", "grid", "mc",
                    "counterexample", "regularize", "dual"):
        merged = dict(_DEFAULTS[section])
        merged.update(clean.get(section, {}))
        setattr(cfg, section, merged)
    cfg.x0 = clean.get("x0", _DEFAULTS["x0"])
    cfg.t0 = clean.get("t0", _DEFAULTS["t0"])
    cfg.out = clean.get("out", _DEFAULTS["out"])
    if overrides:
        if overrides.get("seed") is not None:
            cfg.mc["seed"] = int(overrides["seed"])
        if overrides.get("out") is not None:
            cfg.out = overrides["out"]
        cfg.dump_paths = bool(overrides.get("dump_paths", False))
    _check_config(cfg)
    return cfg


def _check_config(cfg):
    # mc.seed is the high word of every Philox key (forward_model.path_normals)
    seed = cfg.mc["seed"]
    if not 0 <= seed < 2**63:
        raise ConfigError("mc.seed", f"must be in [0, 2**63), got {seed}")
    if cfg.command == "counterexample" and cfg.which == "3.4":
        K = cfg.counterexample["K"] or _CX_DEFAULT_K["3.4"]
        if cfg.counterexample["full_simulation"] and K > 3:
            cfg.warnings.append(
                "full simulation requested but the path channel is capped at "
                "k <= 3; higher k get the deterministic checks only")
    # constructing the objects now surfaces value errors before any compute
    if cfg.command in ("solve", "dual", "checks", "regularize", "oracle"):
        build_generator(cfg)
        build_terminal(cfg)
        build_model(cfg)


def build_generator(cfg):
    g = cfg.generator
    kind = g.get("kind", "power")
    if kind == "power":
        gen = generators.PowerGenerator(g.get("q", 3.0))
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
    profile = t.get("profile", "cos")
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
    spec = m.get("drift", "zero")
    if spec == "zero":
        drift = ZeroDrift()
    elif isinstance(spec, dict) and "linear" in spec and len(spec) == 1:
        drift = LinearDrift(float(spec["linear"]))
    elif isinstance(spec, dict) and "tanh" in spec and len(spec) == 1:
        drift = TanhDrift(float(spec["tanh"]))
    else:
        raise ConfigError("model.drift",
                          f"expected 'zero', {{linear: b}} or {{tanh: a}}, got {spec!r}")
    return ForwardModel(drift, m.get("sigma", 1.0), m.get("T", 1.0),
                        lam=m.get("lambda"))


def build_grid(cfg):
    g = cfg.grid
    return hj_solver.GridSpec(n_x=g.get("n_x", 321), dt=g.get("dt", 2e-3),
                              x_center=cfg.x0, pad=g.get("pad", 2.0),
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
        for w in cfg.warnings:
            fh.write(f"warning: {w}\n")
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
    return [
        CheckLine("terminal layer imposed exactly", terminal_err, 1e-12,
                  terminal_err <= 1e-12),
        CheckLine("maximum principle: max u <= max Phi", float(np.max(sol.u)),
                  hi + 1e-9, float(np.max(sol.u)) <= hi + 1e-9),
        CheckLine("maximum principle: min u >= min Phi", float(np.min(sol.u)),
                  lo - 1e-9, float(np.min(sol.u)) >= lo - 1e-9),
        CheckLine("sup bound |u| <= ||Phi||", float(np.max(np.abs(sol.u))),
                  sol.sup_norm_used + 1e-9,
                  float(np.max(np.abs(sol.u))) <= sol.sup_norm_used + 1e-9),
    ]


def _run_solve(cfg, out):
    gen, _ = build_generator(cfg)
    tc = build_terminal(cfg)
    model = build_model(cfg)
    sol = hj_solver.solve(model, gen, tc, build_grid(cfg), cfg.t0)
    sol.to_csv(out / "solution.csv")
    rows = _solution_rows(sol)
    u0 = sol.u_at(cfg.t0, cfg.x0)
    return rows, [f"u(t0, x0) = {u0!r}", f"substeps_total = {int(sol.substeps.sum())}"]


def _run_oracle(cfg, out):
    gen, _ = build_generator(cfg)
    tc = build_terminal(cfg)
    model = build_model(cfg)
    if not isinstance(gen, generators.QuadraticGenerator):
        raise ConfigError("generator.kind", "oracle requires the quadratic kind")
    grid = build_grid(cfg)
    xs, _ = hj_solver._grid_arrays(model, grid, cfg.t0)
    vals = hj_solver.cole_hopf_reference(model, gen, tc, cfg.t0, xs)
    with open(out / "oracle.csv", "w", newline="") as fh:
        fh.write("x,u_oracle\n")
        for x, v in zip(xs.tolist(), vals.tolist()):
            fh.write(f"{x!r},{v!r}\n")
    mid = hj_solver.cole_hopf_reference(model, gen, tc, cfg.t0, cfg.x0)
    rows = [CheckLine("oracle finite on grid", float(np.max(np.abs(vals))),
                      float("inf"), bool(np.all(np.isfinite(vals))))]
    return rows, [f"u_oracle(t0, x0) = {mid!r}"]


def _run_dual(cfg, out):
    gen, conj = build_generator(cfg)
    tc = build_terminal(cfg)
    model = build_model(cfg)
    sol = hj_solver.solve(model, gen, tc, build_grid(cfg), cfg.t0)
    extra = tuple(dual_mc.ConstantControl(q) for q in cfg.dual["constants"])
    report = dual_mc.duality_gap(model, gen, conj, tc, sol, cfg.x0, cfg.t0,
                                 cfg.mc["n_paths"], cfg.mc["seed"],
                                 n_steps=cfg.mc["n_steps"],
                                 scheme_tol=cfg.dual["scheme_tol"],
                                 extra_controls=extra)
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
    return rows, [f"u(t0, x0) = {report.u0!r}"]


def _run_checks(cfg, out):
    gen, conj = build_generator(cfg)
    tc = build_terminal(cfg)
    model = build_model(cfg)
    sol = hj_solver.solve(model, gen, tc, build_grid(cfg), cfg.t0)
    sol.to_csv(out / "solution.csv")
    bundle = simulate_paths(model, cfg.x0, cfg.t0, cfg.mc["n_paths"],
                            cfg.mc["n_steps"], cfg.mc["seed"])
    if cfg.dump_paths:
        bundle.to_csv(out / "paths.csv")
    report = path_checks.bsde_residual(sol, model, gen, bundle)
    bmo = path_checks.bmo_energy_check(report, tc.sup_norm)
    rows = [
        CheckLine("path exclusion fraction <= 1%", report.excluded_fraction,
                  0.01, report.excluded_fraction <= 0.01),
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
    prep = path_checks.penalty_bound_check(sol, gen, conj, tc.sup_norm)
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


def _run_regularize(cfg, out):
    gen, _ = build_generator(cfg)
    tc = build_terminal(cfg)
    model = build_model(cfg)
    grid = build_grid(cfg)
    m_list = [float(m) for m in cfg.regularize["m_list"]]
    lower = hj_solver.solve_regularized_family(model, gen, tc, m_list, "lower",
                                               grid, cfg.t0)
    upper = hj_solver.solve_regularized_family(model, gen, tc, m_list, "upper",
                                               grid, cfg.t0)
    lo_vals = [s.u_at(cfg.t0, cfg.x0) for s in lower]
    hi_vals = [s.u_at(cfg.t0, cfg.x0) for s in upper]
    gaps = [h - l for h, l in zip(hi_vals, lo_vals)]
    xs = lower[0].x_grid
    with open(out / "regularize.csv", "w", newline="") as fh:
        fh.write("m,lower_value,upper_value,gap,certified_terminal_gap\n")
        for m, lo, hi, gp in zip(m_list, lo_vals, hi_vals, gaps):
            cert = terminal_data.uniform_gap_bound(tc, m) if not isinstance(
                tc.regularity, terminal_data.LowerSemiContinuous) else float("nan")
            fh.write(f"{m!r},{lo!r},{hi!r},{gp!r},{cert!r}\n")
    mono_lo = all(b >= a - 1e-10 for a, b in zip(lo_vals, lo_vals[1:]))
    mono_hi = all(b <= a + 1e-10 for a, b in zip(hi_vals, hi_vals[1:]))
    rows = [
        CheckLine("lower ladder nondecreasing in m", float(mono_lo), 1.0, mono_lo),
        CheckLine("upper ladder nonincreasing in m", float(mono_hi), 1.0, mono_hi),
        CheckLine("squeeze: gap shrinks along the ladder", gaps[-1],
                  gaps[0] + 1e-10, gaps[-1] <= gaps[0] + 1e-10),
    ]
    if not isinstance(tc.regularity, terminal_data.LowerSemiContinuous):
        measured = float(np.max(np.asarray(tc(xs)) -
                                np.asarray(tc.inf_convolved(m_list[-1])(xs))))
        cert = terminal_data.uniform_gap_bound(tc, m_list[-1])
        rows.append(CheckLine("certified terminal gap >= measured", measured,
                              cert, measured <= cert + 1e-9))
    return rows, [f"gaps: {[repr(g) for g in gaps]}"]


_CX_DEFAULT_K = {"3.1": 10_000, "3.3": 8, "3.4": 6}


def _run_counterexample(cfg, out):
    p = cfg.counterexample
    mc = cfg.mc
    K = p["K"] if p["K"] is not None else _CX_DEFAULT_K[cfg.which]
    if cfg.which == "3.1":
        seq = cx.build_thm31(p["q"], max(K, 10), p["T"])
        report = cx.thm31_series_report(seq)
        rows_cx = report.rows
        extra = [f"alpha = {seq.alpha!r}",
                 f"divergence witness K = {report.divergence_K}"]
    elif cfg.which == "3.3":
        cfg33 = cx.build_thm33(p["q"], p["n"], p["theta"], p["epsilon"],
                               min(K, 16), p["T"])
        report = cx.simulate_thm33_excursion(cfg33, mc["n_paths"],
                                             max(mc["n_steps"], 4 * cfg33.K),
                                             mc["seed"])
        rows_cx = report.rows
        extra = [f"estimate = {report.estimate!r} (bound {report.paper_bound!r})",
                 f"dominating = {report.dominating_estimate!r} "
                 f"(exact {report.dominating_exact!r})",
                 f"final quantiles (10/50/90%) = {report.final_quantiles!r}"]
    elif cfg.which == "3.4":
        cfg34 = cx.build_thm34(p["q"], K, p["T"])
        report = cx.thm34_checks(cfg34, mc["n_paths"], 4096, mc["seed"])
        witness = cx.limit_not_solution_witness(cfg34, mc["seed"])
        rows_cx = report.rows + witness.rows
        extra = [f"P[nu = T] = {report.p_nu_T!r}"]
        for j, k, rho in report.skipped_pairs:
            extra.append(f"cross-covariance ({j},{k}) below float resolution; "
                         f"correlation bound {rho!r}")
    else:
        raise ConfigError("counterexample", f"unknown construction {cfg.which!r}")
    with open(out / "counterexample.csv", "w", newline="") as fh:
        fh.write("construction,check,value,threshold,pass\n")
        for r in rows_cx:
            fh.write(f"{r.construction},\"{r.check}\",{_fmt(r.value)},"
                     f"{_fmt(r.threshold)},{int(r.passed)}\n")
    rows = [CheckLine(f"{r.construction}: {r.check}", r.value, r.threshold,
                      r.passed,
                      hard=not r.check.startswith("divergence witness"))
            for r in rows_cx]
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
    rows, extra = _RUNNERS[cfg.command](cfg, out)
    _write_checks(rows, out / "checks.csv")
    ok = _write_summary(cfg, rows, extra, out / "summary.txt")
    for w in cfg.warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"{cfg.command}: {'ok' if ok else 'HARD CHECK FAILED'} "
          f"({len(rows)} checks) -> {out}")
    return 0 if ok else 1


def main(argv=None):
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="YAML run config")
    common.add_argument("--seed", type=int, default=None, help="override mc.seed")
    common.add_argument("--out", default=None, help="override output directory")
    common.add_argument("--dump-paths", action="store_true",
                        help="also write simulated paths as CSV")
    defaults = yaml.safe_dump(
        {k: v for k, v in _DEFAULTS.items() if isinstance(v, dict)},
        default_flow_style=True, sort_keys=True, width=100)
    parser = argparse.ArgumentParser(
        prog="superbsde",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Superquadratic Markovian BSDEs via the viscous "
                    "Hamilton-Jacobi PDE: solver, dual bounds, checks and "
                    "ill-posedness witnesses.",
        epilog="config defaults (YAML):\n" + defaults)
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
