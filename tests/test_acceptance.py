"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import filecmp
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from superbsde import counterexamples as cx
from superbsde.dual_mc import ConstantControl, duality_gap
from superbsde.forward_model import (ForwardModel, TanhDrift, ZeroDrift,
                                     simulate_paths)
from superbsde.generators import PowerGenerator, QuadraticGenerator, conjugate_of
from superbsde.hj_solver import (GridSpec, cole_hopf_reference, solve,
                                 solve_regularized_family)
from superbsde.path_checks import (apriori_z_bound, bmo_energy_check,
                                   bsde_residual, exponent_fit,
                                   penalty_bound_check)
from superbsde.terminal_data import TerminalCondition, uniform_gap_bound


def criterion(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name} failed: {detail}"


def bm_model(T=1.0):
    return ForwardModel(ZeroDrift(), 1.0, T)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # pay first-call costs (lazy imports, allocator warm-up) outside any timed region
    tc = TerminalCondition.analytic("const", amplitude=0.1)
    solve(bm_model(), PowerGenerator(3.0), tc,
          GridSpec(n_x=64, dt=0.5, x_lo=-4, x_hi=4), 0.0)
    simulate_paths(bm_model(), 0.0, 0.0, 4, 4, seed=0)


@pytest.fixture(scope="module")
def quadratic_solution():
    model = bm_model()
    gen = QuadraticGenerator(0.5)
    tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
    t0 = time.monotonic()
    sol = solve(model, gen, tc, GridSpec(n_x=1601, dt=1e-3, x_lo=-8.0, x_hi=8.0), 0.0)
    return model, gen, tc, sol, time.monotonic() - t0


@pytest.fixture(scope="module")
def a4_solutions():
    model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
    tc = TerminalCondition.analytic("cos", amplitude=1.0)
    grid = GridSpec(n_x=1601, dt=1e-3, x_lo=-8.0, x_hi=8.0)
    return model, tc, {q: solve(model, PowerGenerator(q), tc, grid, 0.0)
                       for q in (3.0, 4.0)}


def test_A1_fenchel_machinery():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_young = np.inf
    worst_fenchel = 0.0
    worst_biconj = 0.0
    for q in (2.5, 3.0, 4.0):
        gen = PowerGenerator(q)
        conj = conjugate_of(gen)
        z = rng.uniform(-50.0, 50.0, 10_000)
        x = rng.uniform(-50.0, 50.0, 10_000)
        gaps = np.asarray(gen.eval(z)) + np.asarray(conj.eval(x)) - z * x
        worst_young = min(worst_young, float(gaps.min()))
        zz = rng.uniform(-5.0, 5.0, 2_000)
        grads = np.asarray(gen.grad(zz))
        fen = np.abs(np.asarray(conj.eval(grads)) - (zz * grads - np.asarray(gen.eval(zz))))
        worst_fenchel = max(worst_fenchel, float(fen.max()))
        for zv in np.geomspace(0.1, 10.0, 7):
            xs = np.linspace(0.0, 3.5 * gen.grad(zv), 20_001)
            bi = float(np.max(zv * xs - np.asarray(conj.eval(xs))))
            worst_biconj = max(worst_biconj,
                               abs(bi - gen.eval(zv)) / gen.eval(zv))
    elapsed = time.monotonic() - start
    ok = (worst_young >= -1e-9 and worst_fenchel <= 1e-9
          and worst_biconj <= 1e-4 and elapsed < 5.0)
    criterion("A1", ok, f"young>={worst_young:.2e}, fenchel<={worst_fenchel:.2e}, "
                        f"biconj<={worst_biconj:.2e}, {elapsed:.1f}s")


def test_A2_cole_hopf_agreement(quadratic_solution):
    start = time.monotonic()
    model, gen, tc, sol, solve_seconds = quadratic_solution
    window = np.abs(sol.x_grid) <= 3.0
    oracle = cole_hopf_reference(model, gen, tc, 0.0, sol.x_grid[window])
    gap = float(np.max(np.abs(sol.u[-1][window] - oracle)))
    elapsed = solve_seconds + (time.monotonic() - start)
    ok = gap <= 5e-3 and elapsed < 60.0
    criterion("A2", ok, f"sup gap {gap:.2e} <= 5e-3, {elapsed:.1f}s")


def test_A3_self_convergence():
    start = time.monotonic()
    gen = PowerGenerator(3.0)
    tc = TerminalCondition.analytic("cos", amplitude=0.5)
    sols = [solve(bm_model(), gen, tc,
                  GridSpec(n_x=n, dt=1e-3, x_lo=-8.0, x_hi=8.0), 0.0)
            for n in (801, 1601, 3201)]
    d01 = float(np.max(np.abs(sols[0].u[-1] - sols[1].u[-1][::2])))
    d12 = float(np.max(np.abs(sols[1].u[-1] - sols[2].u[-1][::2])))
    ratio = d01 / d12
    elapsed = time.monotonic() - start
    ok = ratio >= 1.7 and elapsed < 120.0
    criterion("A3", ok, f"refinement ratio {ratio:.2f} >= 1.7, {elapsed:.1f}s")


def test_A4_apriori_envelopes(a4_solutions):
    model, tc, sols = a4_solutions
    z3 = apriori_z_bound(sols[3.0], model, tc.sup_norm)
    z4 = apriori_z_bound(sols[4.0], model, tc.sup_norm)
    gen3 = PowerGenerator(3.0)
    pen = penalty_bound_check(sols[3.0], gen3, conjugate_of(gen3), tc.sup_norm)
    ok = z3.passed and z4.passed and pen.passed and not pen.skipped_reason
    criterion("A4", ok, f"Z ratios q3={z3.worst_ratio:.3f}, q4={z4.worst_ratio:.3f}, "
                        f"penalty q3={pen.worst_ratio:.3f}, all <= 1")


def test_A5_exponent_fit():
    rough = TerminalCondition.step(0.0, -1.0, 1.0).inf_convolved(50.0)
    grid = GridSpec(n_x=1601, dt=1e-3, x_lo=-8.0, x_hi=8.0)
    errs = {}
    for q in (3.0, 4.0):
        sol = solve(bm_model(), PowerGenerator(q), rough, grid, 0.0)
        fit = exponent_fit(sol, q)
        errs[q] = abs(fit.slope - fit.expected)
    ok = all(e <= 0.15 for e in errs.values())
    criterion("A5", ok, f"slope errors q3={errs[3.0]:.3f}, q4={errs[4.0]:.3f} <= 0.15")


def test_A6_duality(quadratic_solution):
    start = time.monotonic()
    model, gen, tc, sol, _ = quadratic_solution
    conj = conjugate_of(gen)
    extras = tuple(ConstantControl(q) for q in (-1.0, 0.5, 2.0))
    rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 100_000, seed=404,
                      n_steps=200, scheme_tol=1e-2, extra_controls=extras)
    fb = [r for r in rep.rows if r.control_kind == "feedback"][0]
    lower_ok = rep.all_lower_bounds_pass

    # superquadratic case: the one-sided inequality must hold as well
    gen3 = PowerGenerator(3.0)
    tc3 = TerminalCondition.analytic("cos", amplitude=0.5)
    sol3 = solve(bm_model(), gen3, tc3,
                 GridSpec(n_x=801, dt=1e-3, x_lo=-8.0, x_hi=8.0), 0.0)
    rep3 = duality_gap(bm_model(), gen3, conjugate_of(gen3), tc3, sol3,
                       0.0, 0.0, 100_000, seed=405, n_steps=200,
                       scheme_tol=1e-2, extra_controls=extras)
    elapsed = time.monotonic() - start
    ok = (lower_ok and rep3.all_lower_bounds_pass
          and fb.attainment_within_tol and elapsed < 120.0)
    criterion("A6", ok, f"feedback gap {fb.attainment_gap:.2e} "
                        f"(3SE+tol={3 * fb.std_error + 1e-2:.2e}), "
                        f"lower bounds all pass, {elapsed:.0f}s")


def test_A7_counterexample_34():
    cfg = cx.build_thm34(3.0, 6, 1.0)
    rep = cx.thm34_checks(cfg, 10_000, 4096, seed=77)
    wit = cx.limit_not_solution_witness(cfg, seed=77)
    p_row = [r for r in rep.rows if r.check.startswith("P[nu = T]")][0]
    ok = rep.all_passed and wit.all_passed
    criterion("A7", ok, f"det k<=6 + MC k<=3 + pathwise all pass, "
                        f"P[nu=T]={rep.p_nu_T:.3f} >= {p_row.threshold:.3f}")


def test_A8_counterexample_33():
    results = {}
    for n in (2, 3):
        cfg = cx.build_thm33(3.0, n, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg, 10_000, 64, seed=88 + n)
        results[n] = rep
    witness = "divergence witness: median V at mesh end"
    ok = all(r.all_passed and [w.passed for w in r.rows if w.check == witness] == [True]
             for r in results.values())
    criterion("A8", ok, ", ".join(
        f"n={n}: est {r.estimate:.4f} <= {r.paper_bound:.4f}+3SE, dom within 3SE"
        for n, r in results.items()))


def test_A9_counterexample_31():
    seq = cx.build_thm31(3.0, 10_000, 1.0)
    rep = cx.thm31_series_report(seq)
    inv_a = 1.0 / seq.alpha
    zeta_ok = (rep.cost_partial <= inv_a * math.pi**2 / 6.0
               and rep.z2_partial <= inv_a * 1.2020569031595943)
    harmonic = float(np.sum(1.0 / np.arange(1, 10_001)))
    div_ok = rep.q2_partial >= inv_a * harmonic
    ok = rep.all_passed and zeta_ok and div_ok
    criterion("A9", ok, f"cost {rep.cost_partial:.3f} <= pi^2/(6a), "
                        f"divergence witness {rep.q2_partial:.1f} >= H_K/a="
                        f"{inv_a * harmonic:.1f}")


def test_A10_regularization_ladder():
    model = bm_model()
    gen = PowerGenerator(3.0)
    grid = GridSpec(n_x=801, dt=2e-3, x_lo=-8.0, x_hi=8.0)
    ms = [2.0, 4.0, 8.0, 16.0]
    # continuous spike with slope 50: the m-regularizations differ for every
    # tested m, so the squeeze is non-trivial at each rung
    tc = TerminalCondition.tabulated([-8.0, -0.02, 0.0, 0.02, 8.0],
                                     [0.0, 0.0, 1.0, 0.0, 0.0])
    lower = solve_regularized_family(model, gen, tc, ms, "lower", grid, 0.0)
    upper = solve_regularized_family(model, gen, tc, ms, "upper", grid, 0.0)
    lo = [s.u_at(0.0, 0.0) for s in lower]
    hi = [s.u_at(0.0, 0.0) for s in upper]
    gaps = [h - l for h, l in zip(hi, lo)]
    mono = (all(b >= a - 1e-12 for a, b in zip(lo, lo[1:]))
            and all(b <= a + 1e-12 for a, b in zip(hi, hi[1:])))
    squeeze = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])) and gaps[-1] < gaps[0]

    cert_ok = True
    xs = np.linspace(-10.0, 10.0, 4001)
    profiles = {
        "cos": TerminalCondition.analytic("cos", amplitude=1.0),
        "lipschitz": TerminalCondition.tabulated(
            np.linspace(-10, 10, 21),
            np.clip(np.abs(np.linspace(-10, 10, 21)) - 5.0, -1.0, 1.0)),
    }
    for name, prof in profiles.items():
        for m in ms:
            measured = float(np.max(np.asarray(prof(xs))
                                    - np.asarray(prof.inf_convolved(m)(xs))))
            cert_ok &= measured <= uniform_gap_bound(prof, m) + 1e-9
    ok = mono and squeeze and cert_ok
    criterion("A10", ok, f"monotone both sides, gaps {gaps[0]:.3f}->{gaps[-1]:.3f}, "
                         f"certified >= measured on dense grid")


def test_A11_bmo_energy(quadratic_solution, a4_solutions):
    model_q, gen_q, tc_q, sol_q, _ = quadratic_solution
    model_4, tc_4, sols_4 = a4_solutions
    cases = [(model_q, gen_q, tc_q, sol_q)]
    for q, sol in sols_4.items():
        cases.append((model_4, PowerGenerator(q), tc_4, sol))
    gen3 = PowerGenerator(3.0)
    tc3 = TerminalCondition.analytic("cos", amplitude=0.5)
    sol3 = solve(bm_model(), gen3, tc3,
                 GridSpec(n_x=801, dt=2e-3, x_lo=-8.0, x_hi=8.0), 0.0)
    cases.append((bm_model(), gen3, tc3, sol3))
    details = []
    ok = True
    for i, (model, gen, tc, sol) in enumerate(cases):
        bundle = simulate_paths(model, 0.0, 0.0, 10_000, 100, seed=500 + i)
        rep = bsde_residual(sol, model, gen, bundle)
        check = bmo_energy_check(rep, tc.sup_norm)
        ok &= check.passed
        details.append(f"{check.energy:.3f}<={check.bound:.1f}")
    criterion("A11", ok, "energies " + ", ".join(details))


FAST_CFG = """
generator: {kind: power, q: 3.0}
terminal: {profile: cos, amplitude: 0.5}
model: {drift: zero, sigma: 1.0, T: 1.0}
grid: {n_x: 128, dt: 0.005, x_lo: -8.0, x_hi: 8.0}
mc: {n_paths: 400, n_steps: 40, seed: 5}
regularize: {m_list: [2.0, 8.0]}
counterexample: {K: 3}
"""

QUAD_CFG = FAST_CFG.replace("{kind: power, q: 3.0}",
                            "{kind: quadratic, gamma: 0.5}")


def test_A12_determinism(tmp_path, child_env):
    # library level: bit-identical reruns of the core pipelines
    gen = PowerGenerator(3.0)
    tc = TerminalCondition.analytic("cos", amplitude=0.5)
    grid = GridSpec(n_x=256, dt=5e-3, x_lo=-8.0, x_hi=8.0)
    s1 = solve(bm_model(), gen, tc, grid, 0.0)
    s2 = solve(bm_model(), gen, tc, grid, 0.0)
    lib_ok = (np.array_equal(s1.u, s2.u) and np.array_equal(s1.z, s2.z))
    r1 = cx.thm34_checks(cx.build_thm34(3.0, 3, 1.0), 500, 512, seed=1)
    r2 = cx.thm34_checks(cx.build_thm34(3.0, 3, 1.0), 500, 512, seed=1)
    lib_ok &= r1.rows == r2.rows

    # CLI level: byte-identical artifacts for every command family
    cases = [("solve", FAST_CFG), ("checks", FAST_CFG), ("dual", FAST_CFG),
             ("regularize", FAST_CFG), ("oracle", QUAD_CFG),
             ("counterexample 3.1", FAST_CFG), ("counterexample 3.3", FAST_CFG),
             ("counterexample 3.4", FAST_CFG)]
    cli_ok = True
    for label, cfg_text in cases:
        cfg_file = tmp_path / f"{label.replace(' ', '_')}.yaml"
        cfg_file.write_text(cfg_text)
        outs = []
        for run_id in ("r1", "r2"):
            out = tmp_path / f"{label.replace(' ', '_')}_{run_id}"
            args = [sys.executable, "-m", "superbsde.cli", *label.split(),
                    "--config", str(cfg_file), "--out", str(out)]
            res = subprocess.run(args, capture_output=True, text=True, env=child_env)
            assert res.returncode == 0, f"{label}: {res.stderr}"
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            cli_ok &= filecmp.cmp(f, outs[1] / f.name, shallow=False)
    ok = lib_ok and cli_ok
    criterion("A12", ok, "library reruns bit-identical, CLI artifacts "
                         "byte-identical across all commands")
