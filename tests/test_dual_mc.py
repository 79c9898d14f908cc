import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from superbsde import dual_mc, forward_model
from superbsde.dual_mc import (ConstantControl, FeedbackControl,
                               PiecewiseConstantControl, ZeroControl, duality_gap,
                               evaluate_control, evaluate_controls)
from superbsde.errors import ExtrapolationRangeError, SimulationDivergedError
from superbsde.forward_model import (Drift, ForwardModel, LinearDrift, TanhDrift,
                                     ZeroDrift, simulate_paths)
from superbsde.generators import (PowerGenerator, QuadraticGenerator,
                                  SampledGenerator, conjugate_of)
from superbsde.hj_solver import GridSpec, solve
from superbsde.path_checks import bsde_residual
from superbsde.terminal_data import TerminalCondition

GRID = GridSpec(n_x=401, dt=5e-3, x_lo=-8.0, x_hi=8.0)


def bm_model():
    return ForwardModel(ZeroDrift(), 1.0, 1.0)


def gauss_expectation(tc, mean, var):
    from numpy.polynomial.hermite_e import hermegauss
    y, w = hermegauss(64)
    return float(np.asarray(tc(mean + np.sqrt(var) * y)) @ w / np.sqrt(2 * np.pi))


class TestEvaluateControl:
    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_needs_two_paths(self, n_paths):
        gen = QuadraticGenerator(0.5)
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_paths >= 2"):
                evaluate_control(bm_model(), conjugate_of(gen), tc, ZeroControl(),
                                 0.0, 0.0, n_paths, 10, seed=1)

    def test_zero_control_matches_quadrature(self):
        model = bm_model()
        gen = QuadraticGenerator(0.5)
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        est = evaluate_control(model, conjugate_of(gen), tc, ZeroControl(),
                               0.0, 0.0, 50_000, 100, seed=1)
        # driftless: X_T ~ N(x0, sigma^2 (T - t0)) with x0 = t0 = 0
        mean, var = 0.0, model.sigma**2 * (model.horizon - 0.0)
        target = gauss_expectation(tc, mean, var)
        assert abs(est.value - target) <= 3.0 * est.std_error
        assert est.penalty_mean == 0.0

    def test_constant_payoff_decomposition(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("const", amplitude=0.3)
        est = evaluate_control(model, conjugate_of(gen), tc,
                               ConstantControl(1.5), 0.0, 0.0, 500, 50, seed=2)
        assert est.value == pytest.approx(0.3 + est.penalty_mean, abs=1e-12)
        assert est.penalty_mean >= 0.0

    def test_constant_penalty_closed_form(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        est = evaluate_control(model, conj, tc=TerminalCondition.analytic("cos"),
                               ctrl=ConstantControl(2.0), x0=0.0, t0=0.0,
                               n_paths=64, n_steps=37, seed=3)
        assert est.penalty_mean == pytest.approx(conj.eval(2.0) * 1.0, rel=1e-12)

    def test_piecewise_constant_penalty(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        ctrl = PiecewiseConstantControl([0.5], [1.0, 3.0])
        est = evaluate_control(model, conj, TerminalCondition.analytic("cos"),
                               ctrl, 0.0, 0.0, 64, 100, seed=4)
        expected = 0.5 * conj.eval(1.0) + 0.5 * conj.eval(3.0)
        assert est.penalty_mean == pytest.approx(expected, rel=1e-10)

    def test_translation_shifts_value_exactly(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        up = tc.shifted(0.4)
        for ctrl in (ZeroControl(), ConstantControl(0.7)):
            a = evaluate_control(model, conj, tc, ctrl, 0.0, 0.0, 2000, 50, seed=5)
            b = evaluate_control(model, conj, up, ctrl, 0.0, 0.0, 2000, 50, seed=5)
            assert b.value - a.value == pytest.approx(0.4, abs=1e-12)


def stored_path_oracle(model, conj, tc, ctrl, x0, t0, n_paths, n_steps, seed):
    """(value, std_error, penalty_mean) from the stored paths of
    simulate_paths and a second per-knot walk for the penalty."""
    tilt = None if isinstance(ctrl, ZeroControl) else ctrl
    bundle = simulate_paths(model, x0, t0, n_paths, n_steps, seed, tilt=tilt)
    x = bundle.knots()
    penalty = np.zeros(n_paths)
    if tilt is not None:
        for k in range(n_steps):
            q = ctrl.rate(bundle.times[k], x[:, k])
            penalty += np.asarray(conj.eval(q), dtype=float) * bundle.dt
    total = np.asarray(tc(x[:, -1]), dtype=float) + penalty
    return (float(np.mean(total)), float(np.std(total, ddof=1) / np.sqrt(n_paths)),
            float(np.mean(penalty)))


class TestConstantControl:
    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_non_finite_q_rejected(self, q):
        with pytest.raises(ValueError, match="finite constant q"):
            ConstantControl(q)


class TestBlockedPass:
    """evaluate_control streams blocks of paths through one fused Euler
    loop; it must agree exactly with the stored-path computation."""

    N_PATHS, N_STEPS = 1000, 20

    @pytest.fixture(scope="class")
    def setup(self):
        model = ForwardModel(TanhDrift(0.7), 0.8, 1.0)
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        controls = {"zero": ZeroControl(), "constant": ConstantControl(0.6),
                    "piecewise": PiecewiseConstantControl([0.3, 0.55], [0.2, -1.0, 1.5]),
                    "feedback": FeedbackControl(sol, gen)}
        return model, gen, conjugate_of(gen), tc, controls

    @pytest.mark.parametrize("block", [1, 777, 1000, 4096])
    @pytest.mark.parametrize("kind", ["zero", "constant", "piecewise", "feedback"])
    def test_matches_stored_paths_for_any_block(self, setup, monkeypatch, kind, block):
        model, gen, conj, tc, controls = setup
        ctrl = controls[kind]
        args = (0.1, 0.0, self.N_PATHS, self.N_STEPS, 11)
        expected = stored_path_oracle(model, conj, tc, ctrl, *args)
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", block)
        est = evaluate_control(model, conj, tc, ctrl, *args)
        assert (est.value, est.std_error, est.penalty_mean) == expected
        assert est.control_kind == kind

    @pytest.mark.parametrize("block", [1, 777, 4096])
    def test_shared_draw_matches_stored_paths_for_every_control(self, setup,
                                                                monkeypatch, block):
        model, gen, conj, tc, controls = setup
        args = (0.1, 0.0, self.N_PATHS, self.N_STEPS, 11)
        expected = [stored_path_oracle(model, conj, tc, c, *args)
                    for c in controls.values()]
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", block)
        ests = evaluate_controls(model, conj, tc, list(controls.values()), *args)
        assert [(e.value, e.std_error, e.penalty_mean) for e in ests] == expected
        assert [e.control_kind for e in ests] == list(controls)
        assert all(e.seed == 11 for e in ests)

    @pytest.mark.parametrize("scratch", [1, 7, 1000], ids=["1", "7", "block"])
    def test_bits_do_not_depend_on_the_scratch(self, setup, monkeypatch, scratch):
        model, gen, conj, tc, controls = setup
        args = (0.1, 0.0, self.N_PATHS, self.N_STEPS, 11)
        want = evaluate_controls(model, conj, tc, list(controls.values()), *args)
        monkeypatch.setattr(forward_model, "SCRATCH_PATHS", scratch)
        assert evaluate_controls(model, conj, tc, list(controls.values()), *args) == want

    def test_draws_into_one_step_major_buffer(self, setup, monkeypatch):
        # every block is drawn, step-major, into the one buffer of the call
        model, gen, conj, tc, controls = setup
        draw, outs = dual_mc.draw_increments, []

        def recording_draw(*args, **kwargs):
            outs.append(kwargs["out"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(dual_mc, "draw_increments", recording_draw)
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", 300)
        evaluate_controls(model, conj, tc, [controls["feedback"]], 0.1, 0.0,
                          self.N_PATHS, self.N_STEPS, 11)
        assert [o.shape for o in outs] == [(self.N_STEPS, n) for n in (300, 300, 300, 100)]
        assert all(o.base is outs[0].base and o.base.shape == (self.N_STEPS, 300)
                   for o in outs)

    @pytest.mark.parametrize("kind", ["zero", "constant", "feedback"])
    def test_rate_read_once_per_knot(self, setup, monkeypatch, kind):
        # the pass builds each control's knot plan once per call (the
        # feedback table once) and its Euler loop reads knot k at step k,
        # once per step and block, never the pointwise rate
        model, gen, conj, tc, controls = setup
        ctrl = copy.copy(controls[kind])
        knots, builds, steps = ctrl.knots, [], []

        def counting_knots(t0, dt, n_steps, conj):
            builds.append((t0, dt, n_steps))
            plan = knots(t0, dt, n_steps, conj)
            if plan is None:
                return None

            def step(k, x):
                steps.append((k, x.size))
                return plan(k, x)
            return step

        def no_rate(t, x):
            raise AssertionError("the pass read the pointwise rate")

        ctrl.knots, ctrl.rate = counting_knots, no_rate
        rows_of, rows_read = FeedbackControl._rows, []
        tables = []

        def counting_rows(self, t):
            tables.append((t.copy(), rows_of(self, t)))
            return tables[-1][1]

        read = FeedbackControl._read

        def recording_read(self, row, slope, x):
            rows_read.append(row.copy())
            assert np.array_equal(slope, row[1:] - row[:-1])
            return read(self, row, slope, x)

        monkeypatch.setattr(FeedbackControl, "_rows", counting_rows)
        monkeypatch.setattr(FeedbackControl, "_read", recording_read)
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", 300)
        evaluate_control(model, conj, tc, ctrl, 0.0, 0.0, 1000, 20, seed=3)
        assert builds == [(0.0, 0.05, 20)]
        blocks = [300, 300, 300, 100]
        assert steps == ([] if kind == "zero"
                         else [(k, n) for n in blocks for k in range(20)])
        if kind == "feedback":
            assert len(tables) == 1
            times, table = tables[0]
            assert np.array_equal(times, 0.0 + np.arange(20) * 0.05)
            assert table.shape == (20, GRID.n_x)
            assert len(rows_read) == 20 * len(blocks)
            for i, row in enumerate(rows_read):
                assert np.array_equal(row, table[i % 20])
        else:
            assert tables == [] and rows_read == []

    def test_look_ahead_row_fails_stored_path_oracle(self, setup, monkeypatch):
        # a defect that reads the feedback row of knot k + 1 at step k
        model, gen, conj, tc, controls = setup
        ctrl = controls["feedback"]
        args = (0.1, 0.0, self.N_PATHS, self.N_STEPS, 11)
        expected = stored_path_oracle(model, conj, tc, ctrl, *args)
        est = evaluate_control(model, conj, tc, ctrl, *args)
        assert (est.value, est.std_error, est.penalty_mean) == expected

        def look_ahead(self, t0, dt, n_steps, conj):
            table = self._rows(dual_mc.knot_times(t0, dt, n_steps))

            def step(k, x):
                row = table[min(k + 1, n_steps - 1)]
                q = self._read(row, row[1:] - row[:-1], x)
                return q, conj.eval(q)
            return step

        monkeypatch.setattr(FeedbackControl, "knots", look_ahead)
        est = evaluate_control(model, conj, tc, ctrl, *args)
        assert (est.value, est.std_error, est.penalty_mean) != expected
        assert est.value != expected[0] and est.penalty_mean != expected[2]

    class _ExplodingDrift(Drift):
        """b = 1e308 x beyond |x| > 1.5, so a path that gets there overflows."""

        def __call__(self, t, x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                return np.where(np.abs(x) > 1.5, x * 1e308, 0.0)

        def sup_dx(self):
            return 0.0

    @classmethod
    def exploding_model(cls):
        return ForwardModel(cls._ExplodingDrift(), 1.0, 1.0)

    @pytest.mark.parametrize("ctrl", [ZeroControl(), ConstantControl(0.3)],
                             ids=["zero", "constant"])
    def test_divergence_names_earliest_step_over_blocks(self, monkeypatch, ctrl):
        model = self.exploding_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos")
        tilt = None if isinstance(ctrl, ZeroControl) else ctrl

        def simulated_step(n_paths):
            with pytest.raises(SimulationDivergedError) as err:
                simulate_paths(model, 0.0, 0.0, n_paths, 40, seed=0, tilt=tilt)
            return err.value.step_index

        step = simulated_step(120)
        # the first block diverges later than the whole set: the earliest
        # blow-up sits in a later block
        assert simulated_step(30) > step
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", 30)
        with pytest.raises(SimulationDivergedError) as err:
            evaluate_control(model, conjugate_of(gen), tc, ctrl, 0.0, 0.0,
                             120, 40, seed=0)
        assert err.value.step_index == step


class TestZeroDriftFlag:
    """em_paths evaluates no drift flagged zero; the floats are those of a
    drift that returns zero arrays."""

    class _UnflaggedZero(Drift):
        def __call__(self, t, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def sup_dx(self):
            return 0.0

    def models(self, monkeypatch):
        """(unflagged, flagged) models; from here on ZeroDrift raises if
        evaluated."""
        def never(self, t, x):
            raise AssertionError("a zero drift was evaluated")

        monkeypatch.setattr(ZeroDrift, "__call__", never)
        return (ForwardModel(self._UnflaggedZero(), 0.8, 1.0),
                ForwardModel(ZeroDrift(), 0.8, 1.0))

    @pytest.mark.parametrize("tilt", [None, ConstantControl(0.7)],
                             ids=["untilted", "tilted"])
    def test_simulate_paths_bytes(self, monkeypatch, tmp_path, tilt):
        bundles = [simulate_paths(m, 0.3, 0.0, 50, 25, seed=4, tilt=tilt)
                   for m in self.models(monkeypatch)]
        assert np.array_equal(bundles[0].knots(), bundles[1].knots())
        paths = [tmp_path / "unflagged.csv", tmp_path / "flagged.csv"]
        for bundle, path in zip(bundles, paths):
            bundle.to_csv(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_evaluate_controls(self, monkeypatch):
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), gen, tc, GRID, 0.0)
        controls = [ZeroControl(), ConstantControl(0.6),
                    PiecewiseConstantControl([0.3, 0.55], [0.2, -1.0, 1.5]),
                    FeedbackControl(sol, gen)]
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", 300)
        runs = [evaluate_controls(m, conjugate_of(gen), tc, controls, 0.1, 0.0,
                                  700, 30, seed=12)
                for m in self.models(monkeypatch)]
        assert runs[0] == runs[1]


class TestSampledGenerator:
    """The dual pass with a sampled |z|^3 profile and its exact
    piecewise-linear conjugate."""

    @staticmethod
    def sampled(r_max):
        r = np.linspace(0.0, r_max, 41)
        return SampledGenerator(r, r**3)

    def test_duality_gap_matches_stored_paths(self):
        model = ForwardModel(TanhDrift(0.7), 0.8, 1.0)
        gen = self.sampled(4.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        extras = (ConstantControl(0.6),)
        rep = duality_gap(model, gen, conj, tc, sol, 0.1, 0.0, 1000, seed=13,
                          n_steps=40, extra_controls=extras)
        controls = [ZeroControl(), FeedbackControl(sol, gen), *extras]
        for row, ctrl in zip(rep.rows, controls):
            assert (row.value, row.std_error, row.penalty_mean) == stored_path_oracle(
                model, conj, tc, ctrl, 0.1, 0.0, 1000, 40, 13)
        assert rep.all_lower_bounds_pass
        fb = rep.rows[1]
        assert fb.control_kind == "feedback" and fb.penalty_mean > 0.0

    @pytest.fixture(scope="class")
    def partial_range(self):
        # a hat at the origin and a ramp of slope 25 at x = 5; with the
        # coarse PDE step the gradient cap is active at T, so the solve
        # stays inside r_max = 10 while |Z| reaches 12.5 at the ramp nodes
        # of the top level, and the last Euler knots read that level
        model = bm_model()
        gen = self.sampled(10.0)
        tc = TerminalCondition.tabulated([-8.0, -1.0, 0.0, 1.0, 5.0, 5.02, 8.0],
                                         [0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.5])
        sol = solve(model, gen, tc, GridSpec(n_x=801, dt=0.04, x_lo=-8.0, x_hi=8.0),
                    0.0)
        return model, gen, conjugate_of(gen), tc, sol

    def test_range_short_of_nodes_no_path_reads(self, partial_range):
        # the paths from 0 never reach the ramp: no raise, as before the
        # table existed, and the pass still matches the stored paths
        model, gen, conj, tc, sol = partial_range
        ctrl = FeedbackControl(sol, gen)
        table = ctrl._rows(dual_mc.knot_times(0.0, 1.0 / 200, 200))
        assert np.isnan(table[-1]).any() and not np.isnan(table[0]).any()
        assert np.abs(sol.z_rows(0)).max() > gen.r_max
        rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 2000, seed=14,
                          n_steps=200)
        fb = rep.rows[1]
        assert (fb.value, fb.std_error, fb.penalty_mean) == stored_path_oracle(
            model, conj, tc, ctrl, 0.0, 0.0, 2000, 200, 14)
        assert rep.all_lower_bounds_pass

    def test_range_short_of_nodes_a_path_reads_raises(self, partial_range):
        # paths that start beside the ramp read its out-of-range nodes at
        # the last knots: the pass and the stored paths both raise
        # ExtrapolationRangeError (g' of the bilinear Z raised here too)
        model, gen, conj, tc, sol = partial_range
        ctrl = FeedbackControl(sol, gen)
        with pytest.raises(ExtrapolationRangeError, match="feedback control"):
            evaluate_control(model, conj, tc, ctrl, 4.5, 0.0, 500, 200, seed=14)
        with pytest.raises(ExtrapolationRangeError, match="feedback control"):
            simulate_paths(model, 4.5, 0.0, 500, 200, seed=14, tilt=ctrl)


class TestFeedback:
    def test_constant_phi_gives_zero_rate(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        sol = solve(model, gen, tc, GRID, 0.0)
        ctrl = FeedbackControl(sol, gen)
        assert np.max(np.abs(ctrl.rate(0.5, np.linspace(-3, 3, 11)))) == 0.0

    def test_rate_is_gradient_of_z(self):
        # dx = 1/16, so every node but the last is looked up with lx = 0;
        # t = 0.4037 sits between two PDE levels
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GridSpec(n_x=257, dt=5e-3, x_lo=-8.0, x_hi=8.0),
                    0.0)
        ctrl = FeedbackControl(sol, gen)
        t, nodes = 0.4037, sol.x_grid[:-1]
        assert np.all(sol._space_weights(nodes)[1] == 0.0)
        assert 0.0 < sol._time_weights(t)[1] < 1.0
        # at the nodes: g' of the Z-field, bit for bit
        q = ctrl.rate(t, nodes)
        assert np.array_equal(q, gen.grad(sol.z_at(t, nodes)))
        assert np.all(np.isfinite(q)) and np.ptp(q) > 0.1
        # between them: the linear interpolant of those node values
        for frac in (0.25, 0.5, 0.75):
            between = nodes[:-1] + frac * sol.dx
            assert np.array_equal(ctrl.rate(t, between), q[:-1] + frac * (q[1:] - q[:-1]))
        # which is not g' of the interpolated Z, as g' is not linear
        mid = nodes[:-1] + 0.5 * sol.dx
        assert not np.array_equal(ctrl.rate(t, mid), gen.grad(sol.z_at(t, mid)))

    @staticmethod
    def differencing_read(sol, row, x):
        """The read before the slope rows: np.clip weights, and the row
        differenced again at every read."""
        fx = (np.asarray(x, dtype=float) - sol.x_grid[0]) / sol.dx
        ix = np.clip(fx.astype(int), 0, sol.x_grid.size - 2)
        lx = np.clip(fx - ix, 0.0, 1.0)
        return row[ix] + lx * (row[1:] - row[:-1])[ix]

    def test_slope_rows_read_the_same_bits(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        sol = solve(model, gen, TerminalCondition.analytic("cos", amplitude=0.5), GRID,
                    0.0)
        ctrl = FeedbackControl(sol, gen)
        # inside, beyond both ends, on nodes and on the edges of the grid
        x = np.concatenate([np.random.default_rng(3).normal(0.0, 5.0, 4000),
                            sol.x_grid[::7], [-8.0, 8.0, -9.5, 11.0, -0.0]])
        assert x.min() < sol.x_grid[0] and x.max() > sol.x_grid[-1]
        table = ctrl._rows(dual_mc.knot_times(0.0, 0.01, 100))
        plan = ctrl.knots(0.0, 0.01, 100, conj)
        for k in (0, 37, 99):
            q, f = plan(k, x)
            assert np.array_equal(q, self.differencing_read(sol, table[k], x))
            assert np.array_equal(f, conj.eval(q))
        row = ctrl._rows(np.array([0.413]))[0]
        assert np.array_equal(ctrl.rate(0.413, x), self.differencing_read(sol, row, x))
        for xi in (-9.5, -8.0, 0.37, 8.0, 11.0):
            ix, lx = sol._space_weights(xi)
            fx = (xi - sol.x_grid[0]) / sol.dx
            want_ix = np.clip(int(fx), 0, sol.x_grid.size - 2)
            assert (ix, lx) == (want_ix, np.clip(fx - want_ix, 0.0, 1.0))

    def test_cell_next_to_a_nan_node_raises(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        sol = solve(model, gen, TerminalCondition.analytic("cos", amplitude=0.5), GRID,
                    0.0)
        ctrl = FeedbackControl(sol, gen)
        row = ctrl._rows(np.array([0.5]))[0].copy()
        row[200] = np.nan  # the node at x = 0
        slope = row[1:] - row[:-1]
        dx = sol.dx
        for x in (-0.5 * dx, 0.0, 0.5 * dx):  # the cells on either side
            with pytest.raises(ExtrapolationRangeError, match="feedback control"):
                ctrl._read(row, slope, np.array([1.0, x]))
        q = ctrl._read(row, slope, np.array([-1.5 * dx, 1.5 * dx]))
        assert np.array_equal(q, self.differencing_read(
            sol, row, np.array([-1.5 * dx, 1.5 * dx])))

    def test_even_phi_zero_rate_at_origin(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        mid = sol.x_grid[np.argmin(np.abs(sol.x_grid))]
        assert abs(FeedbackControl(sol, gen).rate(0.2, np.array([mid]))[0]) <= 1e-8


class TestDualityGap:
    def test_constant_phi_gap_zero(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        sol = solve(model, gen, tc, GRID, 0.0)
        rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 2000, seed=6,
                          n_steps=50)
        fb = [r for r in rep.rows if r.control_kind == "feedback"][0]
        assert abs(fb.attainment_gap) <= 1e-9
        assert rep.all_lower_bounds_pass

    def test_quadratic_attainment(self):
        model = bm_model()
        gen = QuadraticGenerator(0.5)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        sol = solve(model, gen, tc,
                    GridSpec(n_x=801, dt=2e-3, x_lo=-8, x_hi=8), 0.0)
        rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 20_000, seed=7,
                          n_steps=100)
        fb = [r for r in rep.rows if r.control_kind == "feedback"][0]
        assert fb.attainment_within_tol
        assert rep.all_lower_bounds_pass

    def test_halved_feedback_penalty_fails_lower_bound(self, monkeypatch):
        # the quadratic attainment case above, where the feedback row is
        # tight: a defect that adds f(q)/2 instead of f(q) fails its row
        model = bm_model()
        gen = QuadraticGenerator(0.5)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        sol = solve(model, gen, tc,
                    GridSpec(n_x=801, dt=2e-3, x_lo=-8, x_hi=8), 0.0)
        knots = FeedbackControl.knots

        def half_penalty(self, t0, dt, n_steps, conj):
            plan = knots(self, t0, dt, n_steps, conj)

            def step(k, x):
                q, f = plan(k, x)
                return q, 0.5 * f
            return step

        monkeypatch.setattr(FeedbackControl, "knots", half_penalty)
        rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 20_000, seed=7,
                          n_steps=100)
        zero, fb = rep.rows
        assert fb.control_kind == "feedback" and not fb.lower_bound_pass
        assert zero.lower_bound_pass and not rep.all_lower_bounds_pass

    def test_superquadratic_zero_control_strictly_above(self):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 20_000, seed=8,
                          n_steps=100)
        zero = [r for r in rep.rows if r.control_kind == "zero"][0]
        assert zero.value - rep.u0 > 3.0 * zero.std_error
        assert rep.all_lower_bounds_pass

    @pytest.fixture(scope="class")
    def tanh_case(self):
        model = ForwardModel(TanhDrift(0.7), 0.8, 1.0)
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        extras = (ConstantControl(0.6),
                  PiecewiseConstantControl([0.3, 0.55], [0.2, -1.0, 1.5]))
        return model, gen, conjugate_of(gen), tc, sol, extras

    def test_every_row_reads_the_draw_of_seed(self, tanh_case):
        # each row is the control's value on salt 0 of `seed` itself, not of
        # seed + i: all controls share one Brownian draw
        model, gen, conj, tc, sol, extras = tanh_case
        rep = duality_gap(model, gen, conj, tc, sol, 0.1, 0.0, 700, seed=21,
                          n_steps=30, extra_controls=extras)
        controls = [ZeroControl(), FeedbackControl(sol, gen), *extras]
        assert [r.control_kind for r in rep.rows] == [c.kind for c in controls]
        for row, ctrl in zip(rep.rows, controls):
            est = evaluate_control(model, conj, tc, ctrl, 0.1, 0.0, 700, 30,
                                   seed=21)
            assert (row.value, row.std_error, row.penalty_mean) == (
                est.value, est.std_error, est.penalty_mean)

    @pytest.mark.parametrize("n_extras", [0, 2])
    @pytest.mark.parametrize("block", [250, 300, 4096])
    def test_one_draw_per_block_whatever_the_controls(self, tanh_case, monkeypatch,
                                                      n_extras, block):
        n_paths = 1000
        model, gen, conj, tc, sol, extras = tanh_case
        draw, calls = dual_mc.draw_increments, []

        def counting_draw(*args, **kwargs):
            calls.append(kwargs["start"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(dual_mc, "draw_increments", counting_draw)
        monkeypatch.setattr(forward_model, "BLOCK_PATHS", block)
        rep = duality_gap(model, gen, conj, tc, sol, 0.1, 0.0, n_paths, seed=22,
                          n_steps=10, extra_controls=extras[:n_extras])
        assert len(rep.rows) == 2 + n_extras
        # one draw per block: ceil(n_paths / block) of them
        assert calls == list(range(0, n_paths, block))

    def test_csv_emission(self, tmp_path):
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("const", amplitude=0.1)
        sol = solve(model, gen, tc, GRID, 0.0)
        rep = duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 200, seed=9,
                          n_steps=20, extra_controls=(ConstantControl(1.0),))
        path = tmp_path / "dual.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "control_kind,value,std_error,penalty_mean,pass,method"
        assert len(lines) == 4
        # zero drift: the zero and constant rows are exact, feedback is sampled
        assert [line.split(",")[-1] for line in lines[1:]] == [
            "quadrature", "monte_carlo", "quadrature"]
        assert lines[1].split(",")[2] == lines[3].split(",")[2] == "0.0"


def dense_gauss_expectation(tc, mean, var):
    """E[Phi(mean + sqrt(var) N)] by a 280,001-point rule on |N| <= 14."""
    y = np.linspace(-14.0, 14.0, 280_001)
    w = np.exp(-0.5 * y * y) * (y[1] - y[0]) / np.sqrt(2.0 * np.pi)
    return float(np.asarray(tc(mean + np.sqrt(var) * y), dtype=float) @ w)


class TestExactRows:
    """Rows whose Euler X_T is Gaussian are the quadrature of that law plus
    the deterministic penalty, and agree with the sampled rows."""

    N_PATHS, N_STEPS, X0, T0 = 50_000, 50, 0.2, 0.1
    CONTROLS = {"zero": ZeroControl(), "constant": ConstantControl(0.6),
                "piecewise": PiecewiseConstantControl([0.3, 0.55], [0.2, -1.0, 1.5])}
    DRIFTS = {"zero": ZeroDrift(), "linear": LinearDrift(0.8)}

    @pytest.fixture(scope="class")
    def sampled(self):
        """Monte Carlo rows of the three controls under each drift."""
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        out = {}
        for name, drift in self.DRIFTS.items():
            model = ForwardModel(drift, 0.9, 1.0)
            ests = evaluate_controls(model, conj, tc, list(self.CONTROLS.values()),
                                     self.X0, self.T0, self.N_PATHS, self.N_STEPS,
                                     seed=31)
            out[name] = (model, dict(zip(self.CONTROLS, ests)))
        return conj, tc, out

    def exact(self, model, conj, tc, kind):
        return dual_mc.exact_dual_value(model, conj, tc, self.CONTROLS[kind], self.X0,
                                        self.T0, self.N_STEPS)

    @pytest.mark.parametrize("kind", list(CONTROLS))
    @pytest.mark.parametrize("drift", list(DRIFTS))
    def test_agrees_with_the_sampled_row(self, sampled, drift, kind):
        conj, tc, out = sampled
        model, ests = out[drift]
        est = ests[kind]
        value, penalty = self.exact(model, conj, tc, kind)
        assert abs(value - est.value) <= 4.0 * est.std_error
        # every path pays the same penalty: the Euler loop's per-path sum
        assert penalty == pytest.approx(est.penalty_mean, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("defect", ["variance_without_euler_factor",
                                        "mean_without_tilt_shift"])
    @pytest.mark.parametrize("kind", ["constant", "piecewise"])
    def test_defective_law_disagrees(self, sampled, monkeypatch, defect, kind):
        conj, tc, out = sampled
        model, ests = out["linear"]
        law = dual_mc.euler_gaussian_law

        def defective(model, x0, dt, q):
            mean, var = law(model, x0, dt, q)
            if defect == "variance_without_euler_factor":
                return mean, model.sigma**2 * dt * q.size
            return law(model, x0, dt, np.zeros_like(q))[0], var

        monkeypatch.setattr(dual_mc, "euler_gaussian_law", defective)
        value, _ = self.exact(model, conj, tc, kind)
        assert abs(value - ests[kind].value) > 4.0 * ests[kind].std_error

    def test_duality_gap_samples_only_the_feedback_row(self, sampled):
        conj, tc, out = sampled
        model, ests = out["linear"]
        gen = PowerGenerator(3.0)
        sol = solve(model, gen, tc, GRID, self.T0)
        extras = (self.CONTROLS["constant"], self.CONTROLS["piecewise"])
        rep = duality_gap(model, gen, conj, tc, sol, self.X0, self.T0, 2000, seed=31,
                          n_steps=self.N_STEPS, extra_controls=extras)
        assert [(r.control_kind, r.method) for r in rep.rows] == [
            ("zero", "quadrature"), ("feedback", "monte_carlo"),
            ("constant", "quadrature"), ("piecewise", "quadrature")]
        for row in rep.rows:
            if row.method == "quadrature":
                value, penalty = self.exact(model, conj, tc, row.control_kind)
                assert (row.value, row.std_error, row.penalty_mean) == (value, 0.0,
                                                                        penalty)
        # the sampled row is the one a pass of the feedback control alone gives
        est = evaluate_control(model, conj, tc, FeedbackControl(sol, gen), self.X0,
                               self.T0, 2000, self.N_STEPS, seed=31)
        assert (rep.rows[1].value, rep.rows[1].std_error) == (est.value, est.std_error)

    def test_tanh_drift_keeps_sampled_rows(self):
        model = ForwardModel(TanhDrift(0.7), 0.8, 1.0)
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        assert dual_mc.exact_dual_value(model, conjugate_of(gen), tc,
                                        ConstantControl(0.6), 0.0, 0.0, 20) is None

    def test_data_with_critical_points_keep_sampled_rows(self):
        # both rules miss the spike between their nodes and agree on 0.0
        spike = TerminalCondition.tabulated([-8.0, -0.02, 0.0, 0.02, 8.0],
                                            [0.0, 0.0, 1.0, 0.0, 0.0])
        for n in (64, 128):
            nodes, weights = dual_mc._gauss_hermite_rule(n)
            assert float(spike(nodes) @ weights) == 0.0
        assert dense_gauss_expectation(spike, 0.0, 1.0) > 0.007
        gen = PowerGenerator(3.0)
        for tc in (spike, TerminalCondition.step(0.0, -1.0, 1.0)):
            assert dual_mc.gauss_hermite_expectation(tc, 0.0, 1.0) is None
            assert dual_mc.exact_dual_value(bm_model(), conjugate_of(gen), tc,
                                            ZeroControl(), 0.0, 0.0, 20) is None

    @staticmethod
    def fast_cos_case():
        # sigma sqrt(T - t0) = 3 and frequency 5: the 64-node rule is far off
        model = ForwardModel(ZeroDrift(), 3.0, 1.0)
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=1.0, frequency=5.0)
        return model, gen, conjugate_of(gen), tc

    def test_rules_that_disagree_keep_the_sampled_row(self):
        model, gen, conj, tc = self.fast_cos_case()
        dense = dense_gauss_expectation(tc, 0.0, 9.0)
        assert dual_mc.gauss_hermite_expectation(tc, 0.0, 9.0) is None
        assert dual_mc.exact_dual_value(model, conj, tc, ZeroControl(), 0.0, 0.0,
                                        40) is None
        est = evaluate_control(model, conj, tc, ZeroControl(), 0.0, 0.0, 50_000, 40,
                               seed=32)
        assert abs(est.value - dense) <= 4.0 * est.std_error

    def test_skipping_the_agreement_fails_the_dense_reference(self, monkeypatch):
        model, gen, conj, tc = self.fast_cos_case()
        dense = dense_gauss_expectation(tc, 0.0, 9.0)
        monkeypatch.setattr(dual_mc, "_GH_AGREEMENT", np.inf)
        value, _ = dual_mc.exact_dual_value(model, conj, tc, ZeroControl(), 0.0, 0.0,
                                            40)
        assert abs(value - dense) > 0.5


class TestBenchmarkSizedPeak:
    def test_solve_dual_paths_and_residual_peak_at_most_18_mib(self):
        # the mc_dual benchmark's pass: every bundle reader and the dual
        # pass hold one block of increments, not all of them; stored
        # increments (15.3 MiB at 20k x 100) and a path-major block beside
        # its transposed copy peaked at 26.7 MiB
        model = bm_model()
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        tracemalloc.start()
        try:
            sol = solve(model, gen, tc, GridSpec(n_x=801, dt=1e-3, x_lo=-8.0, x_hi=8.0),
                        0.0)
            duality_gap(model, gen, conj, tc, sol, 0.0, 0.0, 50_000, seed=405,
                        n_steps=200, extra_controls=(ConstantControl(0.5),))
            bundle = simulate_paths(model, 0.0, 0.0, 20_000, 100, seed=503)
            bsde_residual(sol, model, gen, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 2**20
