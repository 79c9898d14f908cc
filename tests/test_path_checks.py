import tracemalloc
import warnings

import numpy as np
import pytest

from superbsde import forward_model
from superbsde.errors import DomainError, ResolutionError
from superbsde.forward_model import (ForwardModel, TanhDrift, ZeroDrift,
                                     simulate_paths)
from superbsde.generators import (PowerGenerator, QuadraticGenerator,
                                  conjugate_of)
from superbsde.hj_solver import GridSpec, solve
from superbsde.path_checks import (MAX_EXCLUDED, NoFitError, ResidualReport,
                                   apriori_z_bound, bmo_energy_check,
                                   bsde_residual, exponent_fit,
                                   penalty_bound_check)
from superbsde.terminal_data import TerminalCondition

GRID = GridSpec(n_x=401, dt=5e-3, x_lo=-8.0, x_hi=8.0)


def bm_model():
    return ForwardModel(ZeroDrift(), 1.0, 1.0)


class TestResidual:
    def test_constant_phi_residuals_vanish(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        sol = solve(model, gen, tc, GRID, 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 200, 50, seed=1)
        rep = bsde_residual(sol, model, gen, bundle)
        assert rep.rms_terminal_residual <= 1e-10
        assert rep.max_step_residual <= 1e-10
        assert rep.energy == 0.0

    def test_refinement_shrinks_terminal_residual(self):
        model = bm_model()
        gen = QuadraticGenerator(0.5)
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        coarse = solve(model, gen, tc, GridSpec(n_x=401, dt=4e-3, x_lo=-8, x_hi=8), 0.0)
        fine = solve(model, gen, tc, GridSpec(n_x=801, dt=2e-3, x_lo=-8, x_hi=8), 0.0)
        b1 = simulate_paths(model, 0.0, 0.0, 4000, 50, seed=2)
        b2 = simulate_paths(model, 0.0, 0.0, 4000, 200, seed=2)
        r1 = bsde_residual(coarse, model, gen, b1)
        r2 = bsde_residual(fine, model, gen, b2)
        assert r1.rms_terminal_residual / r2.rms_terminal_residual >= 1.5

    def test_refinement_superquadratic(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        coarse = solve(model, gen, tc, GridSpec(n_x=401, dt=4e-3, x_lo=-8, x_hi=8), 0.0)
        fine = solve(model, gen, tc, GridSpec(n_x=801, dt=2e-3, x_lo=-8, x_hi=8), 0.0)
        b1 = simulate_paths(model, 0.0, 0.0, 4000, 50, seed=3)
        b2 = simulate_paths(model, 0.0, 0.0, 4000, 200, seed=3)
        r1 = bsde_residual(coarse, model, gen, b1)
        r2 = bsde_residual(fine, model, gen, b2)
        assert r1.rms_terminal_residual / r2.rms_terminal_residual >= 1.5

    def test_domain_error_when_paths_escape(self):
        # none of the 500 paths stays in [-0.25, 0.25], and the energy's
        # standard error needs two
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GridSpec(n_x=64, dt=5e-3, x_lo=-0.25, x_hi=0.25), 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 500, 50, seed=4)
        with pytest.raises(DomainError, match="0 stayed"):
            bsde_residual(sol, model, gen, bundle)

    @pytest.mark.parametrize("n_paths", [1, 2])
    def test_two_paths_on_the_grid_suffice(self, n_paths):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, n_paths, 50, seed=4)
        if n_paths == 1:
            with pytest.raises(DomainError, match="1 stayed"):
                bsde_residual(sol, model, gen, bundle)
        else:
            assert bsde_residual(sol, model, gen, bundle).excluded_fraction == 0.0

    def test_tilted_bundle_rejected(self):
        from superbsde.dual_mc import ConstantControl
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 10, 10, seed=5,
                                tilt=ConstantControl(1.0))
        with pytest.raises(ValueError):
            bsde_residual(sol, model, gen, bundle)

    @pytest.mark.parametrize("horizon, sol_t0, match", [
        (2.0, 0.0, r"\[0\.0, 2\.0\] but the solution spans \[0\.0, 1\.0\]"),
        (1.0, 0.5, r"\[0\.0, 1\.0\] but the solution spans \[0\.5, 1\.0\]"),
    ], ids=["horizon_2_against_1", "t0_0_against_0.5"])
    def test_bundle_from_another_span_refused(self, horizon, sol_t0, match):
        # clamped lookups would score these: rms 0.203 and 0.104, against
        # 0.033 when the spans match
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), gen, tc, GRID, sol_t0)
        model = ForwardModel(ZeroDrift(), 1.0, horizon)
        bundle = simulate_paths(model, 0.0, 0.0, 400, 50, seed=8)
        with pytest.raises(ValueError, match=match):
            bsde_residual(sol, model, gen, bundle)
        same = simulate_paths(bm_model(), 0.0, sol_t0, 400, 50, seed=8)
        assert bsde_residual(sol, bm_model(), gen, same).rms_terminal_residual < 0.05

    @pytest.mark.parametrize("other", [ForwardModel(ZeroDrift(), 1.5, 1.0),
                                       ForwardModel(TanhDrift(0.3), 1.0, 1.0),
                                       ForwardModel(ZeroDrift(), 1.0, 2.0)],
                             ids=["sigma", "drift", "horizon"])
    def test_model_other_than_the_bundles_refused(self, other):
        # the paths carry their own model; a `model` that is not it is a
        # caller's mix-up, not a residual
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), gen, tc, GRID, 0.0)
        bundle = simulate_paths(bm_model(), 0.0, 0.0, 400, 50, seed=8)
        with pytest.raises(ValueError, match="simulated under"):
            bsde_residual(sol, other, gen, bundle)
        assert bsde_residual(sol, bm_model(), gen, bundle).rms_terminal_residual < 0.05

    def test_deterministic_rerun(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        b = simulate_paths(model, 0.0, 0.0, 300, 50, seed=6)
        r1 = bsde_residual(sol, model, gen, b)
        r2 = bsde_residual(sol, model, gen, b)
        assert r1 == r2

    @staticmethod
    def per_knot_residual(sol, gen, bundle):
        """The residual with one u_at and one z_at lookup per knot on
        path-major columns, each computing its own bilinear weights.  The
        per-path sums run over the knots in order (cumsum), as the streamed
        sums do; numpy's pairwise row sum can differ in the last bit."""
        x = bundle.knots()
        inside = np.all((x >= sol.x_grid[0]) & (x <= sol.x_grid[-1]), axis=1)
        excluded = 1.0 - float(np.mean(inside))
        x = x[inside]
        dw = bundle.noise[inside]
        n_used, n_knots = x.shape
        dt = bundle.dt
        y = np.empty_like(x)
        z = np.empty((n_used, n_knots - 1))
        gz = np.empty_like(z)
        for k in range(n_knots):
            y[:, k] = sol.u_at(bundle.times[k], x[:, k])
            if k < n_knots - 1:
                z[:, k] = sol.z_at(bundle.times[k], x[:, k])
                gz[:, k] = np.asarray(gen.eval(z[:, k]), dtype=float)
        increments = gz * dt - z * dw
        step_res = y[:, 1:] - y[:, :-1] - increments
        inc_sum = np.cumsum(increments, axis=1)[:, -1]
        y_num_T = sol.u_at(bundle.t0, bundle.x0) + inc_sum
        terminal = y_num_T - np.asarray(sol.tc(x[:, -1]), dtype=float)
        energy_paths = np.cumsum(z * z, axis=1)[:, -1] * dt
        return ResidualReport(
            rms_terminal_residual=float(np.sqrt(np.mean(terminal**2))),
            max_step_residual=float(np.max(np.abs(step_res))),
            energy=float(np.mean(energy_paths)),
            energy_se=float(np.std(energy_paths, ddof=1) / np.sqrt(n_used)),
            excluded_fraction=excluded)

    @pytest.mark.parametrize("gen", [PowerGenerator(3.0), QuadraticGenerator(0.5)],
                             ids=["power3", "quadratic"])
    def test_equals_per_knot_lookups_with_exclusions(self, gen):
        # a narrow grid under a tanh drift: some paths leave it, fewer than
        # MAX_EXCLUDED, so the report covers a strict subset of paths
        model = ForwardModel(TanhDrift(0.7), 1.2, 1.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GridSpec(n_x=201, dt=5e-3, x_lo=-3.8, x_hi=3.8), 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 3000, 50, seed=9)
        rep = bsde_residual(sol, model, gen, bundle)
        assert 0.0 < rep.excluded_fraction <= MAX_EXCLUDED
        assert rep == self.per_knot_residual(sol, gen, bundle)

    def test_reports_any_excluded_share(self):
        # more than half of the paths leave [-1, 1]; the `checks` row, not
        # the residual, holds the share to MAX_EXCLUDED
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GridSpec(n_x=64, dt=5e-3, x_lo=-1, x_hi=1), 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 500, 50, seed=4)
        rep = bsde_residual(sol, model, gen, bundle)
        assert rep.excluded_fraction > 0.5
        assert rep == self.per_knot_residual(sol, gen, bundle)

    def test_holds_no_path_by_step_array(self, monkeypatch):
        # beside u and the increments, the residual holds one block of
        # replayed knots, the Z rows of two levels and arrays of one knot
        # (about 14 of n_paths floats), however many steps: the whole knot
        # matrix would take 201 of n_paths floats here, storing the two
        # per-knot terms it sums 400, and a Z field the size of u 160
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        n_paths, n_steps, block = 5000, 200, 500
        bundle = simulate_paths(model, 0.0, 0.0, n_paths, n_steps, seed=503)
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", block)
        tracemalloc.start()
        try:
            bsde_residual(sol, model, gen, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (block * (n_steps + 1) + 24 * n_paths) * 8


class TestResidualBlocks:
    """The residual replays the knots one block of paths at a time; the
    block size changes neither its bits nor those of the paths CSV."""

    N_PATHS, N_STEPS = 20_000, 100

    def traced_peak(self):
        """Traced peak of solve -> simulate_paths -> bsde_residual at the
        mc_dual benchmark's residual shape, and its budget: u, the
        increments and two default blocks of knots."""
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        tracemalloc.start()
        try:
            sol = solve(model, gen, tc, GridSpec(n_x=801, dt=1e-3, x_lo=-8.0, x_hi=8.0),
                        0.0)
            bundle = simulate_paths(model, 0.0, 0.0, self.N_PATHS, self.N_STEPS, seed=503)
            bsde_residual(sol, model, gen, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, sol.u.nbytes + bundle.noise.nbytes + 2 * 4096 * (self.N_STEPS + 1) * 8

    def test_peak_within_u_increments_and_two_blocks(self):
        # about 28 MiB; a stored knot matrix and Z field read 45 MiB
        peak, budget = self.traced_peak()
        assert peak <= budget

    def test_whole_knot_matrix_exceeds_the_budget(self, monkeypatch):
        # one block of all paths: the residual reads every knot at once
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", self.N_PATHS)
        peak, budget = self.traced_peak()
        assert peak > budget

    @pytest.mark.parametrize("block", [1, 7, 4096, None], ids=["1", "7", "4096", "all"])
    def test_report_and_csv_bits_do_not_depend_on_the_block(self, tmp_path,
                                                            monkeypatch, block):
        # 4100 paths on a narrow grid under a tanh drift: two default
        # blocks, and a share of paths leaves the grid
        model = ForwardModel(TanhDrift(0.7), 1.2, 1.0)
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GridSpec(n_x=201, dt=5e-3, x_lo=-2.5, x_hi=2.5), 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 4100, 3, seed=9)
        whole = bsde_residual(sol, model, gen, bundle)
        bundle.to_csv(tmp_path / "whole.csv")
        assert 0.0 < whole.excluded_fraction < 1.0
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", block or 4100)
        split = bsde_residual(sol, model, gen, bundle)
        bundle.to_csv(tmp_path / "split.csv")
        assert [np.float64(v).view(np.int64) for v in vars(split).values()] == \
            [np.float64(v).view(np.int64) for v in vars(whole).values()]
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


class TestBmo:
    def test_constant_phi(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("const", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 100, 20, seed=7)
        rep = bsde_residual(sol, model, gen, bundle)
        check = bmo_energy_check(rep, 0.5)
        assert check.passed and check.bound == 1.0

    def test_cos_energy_within_bound(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 4000, 100, seed=8)
        rep = bsde_residual(sol, model, gen, bundle)
        assert bmo_energy_check(rep, tc.sup_norm).passed

    def test_bound_scaling(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=1.0)
        sol = solve(model, gen, tc, GRID, 0.0)
        bundle = simulate_paths(model, 0.0, 0.0, 4000, 100, seed=9)
        rep = bsde_residual(sol, model, gen, bundle)
        check = bmo_energy_check(rep, 1.0)
        assert check.bound == 4.0 and check.passed


class TestEnvelopes:
    def test_constant_phi_zero_ratio(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("const", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        rep = apriori_z_bound(sol, model, 0.5)
        assert rep.worst_ratio == 0.0 and rep.passed

    def test_threshold_value_driftless(self):
        # with lambda = 0 and ||Phi|| = 1 the envelope is 2 (T-s)^{-1/2}
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=1.0)
        sol = solve(model, gen, tc, GRID, 0.0)
        rep = apriori_z_bound(sol, model, 1.0)
        tau = rep.worst_time_to_go
        assert rep.threshold_at_worst == pytest.approx(2.0 / np.sqrt(tau))
        assert rep.passed

    def test_penalty_composite_value(self):
        # f(g'(z)) = (q-1)|z|^q for the power kind
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        z = 1.7
        assert conj.eval(gen.grad(z)) == pytest.approx(2.0 * z**3, rel=1e-12)

    def test_penalty_envelope_threshold(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=1.0)
        sol = solve(model, gen, tc, GRID, 0.0)
        rep = penalty_bound_check(sol, gen, conj, 1.0)
        assert not rep.skipped_reason
        tau = rep.worst_time_to_go
        assert rep.threshold_at_worst == pytest.approx(2.0 / tau)
        assert rep.passed

    def test_worst_level_matches_per_level_loop(self):
        # the shared reduction: per-level max over threshold, first argmax
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=1.0)
        sol = solve(model, gen, tc, GRID, 0.0)
        tau = sol.level_time_to_go()
        levels = [k for k in range(tau.size) if tau[k] >= 10 * sol.dt - 1e-12]
        for rep, peak, thr in (
                (apriori_z_bound(sol, model, 1.0),
                 lambda k: float(np.max(np.abs(sol.z_rows(k)))),
                 lambda k: 2.0 * 1.0 / np.sqrt(tau[k])),
                (penalty_bound_check(sol, gen, conj, 1.0),
                 lambda k: float(np.max(conj.eval(gen.grad(sol.z_rows(k))))),
                 lambda k: 2.0 * 1.0 / tau[k])):
            ratios = [peak(k) / thr(k) for k in levels]
            k = levels[ratios.index(max(ratios))]
            assert rep.n_levels == len(levels)
            assert rep.worst_ratio == max(ratios)
            assert rep.worst_time_to_go == tau[k]
            assert rep.threshold_at_worst == thr(k)

    def test_zero_threshold(self):
        # zero data: a zero threshold passes with ratio 0 against a zero
        # peak and fails with inf against a positive one, with no 0/0
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        flat = solve(model, gen, TerminalCondition.analytic("cos", amplitude=0.0),
                     GRID, 0.0)
        wavy = solve(model, gen, TerminalCondition.analytic("cos", amplitude=0.5),
                     GRID, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rep in (apriori_z_bound(flat, model, 0.0),
                        penalty_bound_check(flat, gen, conj, 0.0)):
                assert rep.threshold_at_worst == 0.0
                assert rep.worst_ratio == 0.0 and rep.passed
            for rep in (apriori_z_bound(wavy, model, 0.0),
                        penalty_bound_check(wavy, gen, conj, 0.0)):
                assert rep.worst_ratio == np.inf and not rep.passed

    def test_empty_window_passes(self):
        # five levels of 0.2: none has T-s >= 10 dt
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=1.0)
        sol = solve(model, gen, tc, GridSpec(n_x=64, dt=0.2, x_lo=-8, x_hi=8), 0.0)
        for rep in (apriori_z_bound(sol, model, 1.0),
                    penalty_bound_check(sol, gen, conjugate_of(gen), 1.0)):
            assert rep.worst_ratio == -np.inf and rep.n_levels == 0 and rep.passed

    def test_nonconvex_composite_skipped(self):
        # sampled generator with a kink makes f(g'(.)) non-convex in general
        r = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        g = np.array([0.0, 0.05, 0.4, 3.0, 40.0])
        from superbsde.generators import SampledGenerator, Conjugate
        gen = SampledGenerator(r, g)
        conj = Conjugate(gen)
        model = bm_model()
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, PowerGenerator(3.0), tc, GRID, 0.0)
        rep = penalty_bound_check(sol, gen, conj, 0.5)
        assert rep.skipped_reason or rep.passed


class TestExponentFit:
    def test_constant_phi_no_fit(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("const", amplitude=0.5)
        sol = solve(model, gen, tc,
                    GridSpec(n_x=64, dt=1e-3, x_lo=-8, x_hi=8), 0.0)
        with pytest.raises(NoFitError):
            exponent_fit(sol, 3.0)

    def test_too_few_levels_rejected(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GridSpec(n_x=64, dt=0.1, x_lo=-8, x_hi=8), 0.0)
        with pytest.raises(ResolutionError):
            exponent_fit(sol, 3.0)

    def test_exponent_for_rough_data(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        rough = TerminalCondition.step(0.0, -1.0, 1.0).inf_convolved(50.0)
        sol = solve(model, gen, rough,
                    GridSpec(n_x=801, dt=1e-3, x_lo=-8, x_hi=8), 0.0)
        fit = exponent_fit(sol, 3.0)
        assert abs(fit.slope - (-1.0 / 3.0)) <= 0.15
