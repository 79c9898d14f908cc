import numpy as np
import pytest

from superbsde import terminal_data
from superbsde.errors import NoModulusError
from superbsde.forward_model import ForwardModel, ZeroDrift
from superbsde.generators import PowerGenerator
from superbsde.hj_solver import GridSpec, solve_regularized_family
from superbsde.terminal_data import (TerminalCondition, inf_convolution,
                                     uniform_gap_bound)

# the A10 spike (slope 50)
SPIKE = TerminalCondition.tabulated([-8.0, -0.02, 0.0, 0.02, 8.0],
                                    [0.0, 0.0, 1.0, 0.0, 0.0])


def grid_inf_conv(tc, m, u, lo=-2.0, hi=2.0, step=1e-5):
    """Independent oracle: dense-grid minimization of phi(p) + m|p-u|."""
    p = np.arange(lo, hi + step, step)
    return float(np.min(np.asarray(tc(p)) + m * np.abs(p - u)))


class TestEval:
    def test_step_below_jump(self):
        assert TerminalCondition.step(0.0, 0.0, 1.0)(-1.0) == 0.0

    def test_cos_at_origin(self):
        assert TerminalCondition.analytic("cos")(0.0) == 1.0

    def test_inv_quad(self):
        assert TerminalCondition.analytic("inv_quad")(1.0) == 0.5

    def test_tabulated_constant_extension(self):
        tc = TerminalCondition.tabulated([0.0, 1.0], [0.5, 0.7])
        assert tc(-3.0) == 0.5 and tc(4.0) == 0.7


class TestNonFinite:
    @pytest.mark.parametrize("kwargs", [{"amplitude": np.inf},
                                        {"frequency": np.nan},
                                        {"offset": -np.inf}],
                             ids=["amplitude", "frequency", "offset"])
    def test_analytic_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            TerminalCondition.analytic("cos", **kwargs)

    @pytest.mark.parametrize("xs, phis", [([-1.0, 0.0, 1.0], [0.0, np.nan, 0.0]),
                                          ([-1.0, np.nan, 1.0], [0.0, 1.0, 0.0])],
                             ids=["phi_nan", "x_nan"])
    def test_tabulated_rejected(self, xs, phis):
        with pytest.raises(ValueError, match="finite"):
            TerminalCondition.tabulated(xs, phis)

    @pytest.mark.parametrize("args", [(np.nan, 0.0, 1.0), (0.0, -np.inf, 1.0),
                                      (0.0, 0.0, np.inf)],
                             ids=["jump", "low", "high"])
    def test_step_rejected(self, args):
        with pytest.raises(ValueError, match="finite"):
            TerminalCondition.step(*args)

    @pytest.mark.parametrize("m", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("side", ["inf_convolved", "sup_convolved"])
    def test_convolution_m_rejected_when_called(self, side, m):
        tc = TerminalCondition.analytic("cos")
        with pytest.raises(ValueError, match="finite m >= 0"):
            getattr(tc, side)(m)
        with pytest.raises(ValueError, match="finite m >= 0"):
            inf_convolution(tc, m, 0.0)


class TestInfConvolution:
    def test_constant_profile(self):
        tc = TerminalCondition.analytic("const", amplitude=0.3)
        for m in (0.5, 2.0, 10.0):
            assert inf_convolution(tc, m, 1.7) == pytest.approx(0.3, abs=1e-9)

    def test_lipschitz_dominated(self):
        tc = TerminalCondition.analytic("cos")  # 1-Lipschitz
        for u in (-1.3, 0.0, 2.2):
            assert inf_convolution(tc, 5.0, u) == pytest.approx(tc(u), abs=1e-6)

    def test_step_against_grid_oracle(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        got = inf_convolution(tc, 2.0, 0.25)
        assert got == pytest.approx(0.5, abs=1e-6)
        # the grid oracle itself carries an m*step bias at the jump
        assert got == pytest.approx(grid_inf_conv(tc, 2.0, 0.25), abs=3e-5)

    def test_m_zero_is_global_inf(self):
        tc = TerminalCondition.step(0.0, -0.25, 1.0)
        assert inf_convolution(tc, 0.0, 5.0) == -0.25


class TestSupConvolution:
    def test_constant_profile(self):
        tc = TerminalCondition.analytic("const", amplitude=-0.4)
        assert tc.sup_convolved(3.0)(0.2) == pytest.approx(-0.4, abs=1e-9)

    def test_step_example(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        assert tc.sup_convolved(2.0)(-0.25) == pytest.approx(0.5, abs=1e-6)

    def test_duality_with_inf_convolution(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=0.8)
        neg = tc.negated()
        for u in (-0.7, 0.1, 1.9):
            assert tc.sup_convolved(3.0)(u) == pytest.approx(
                -inf_convolution(neg, 3.0, u), abs=1e-9)


class TestInvariants:
    @pytest.mark.parametrize("profile", ["step", "cos", "inv_quad"])
    def test_sandwich(self, profile):
        if profile == "step":
            tc = TerminalCondition.step(0.3, -0.5, 0.5)
        else:
            tc = TerminalCondition.analytic(profile, amplitude=0.9)
        rng = np.random.default_rng(3)
        us = rng.uniform(-4.0, 4.0, 1000)
        for m in (1.0, 2.0, 5.0, 10.0, 50.0):
            lo = inf_convolution(tc, m, us)
            hi = tc.sup_convolved(m)(us)
            phi = np.asarray(tc(us))
            assert np.all(lo >= -tc.sup_norm - 1e-9)
            assert np.all(lo <= phi + 1e-9)
            assert np.all(phi <= hi + 1e-9)
            assert np.all(hi <= tc.sup_norm + 1e-9)

    def test_monotone_in_m(self):
        tc = TerminalCondition.step(0.0, -0.5, 0.5)
        rng = np.random.default_rng(5)
        us = rng.uniform(-2.0, 2.0, 200)
        prev_lo = None
        prev_hi = None
        for m in (1.0, 2.0, 5.0, 10.0, 50.0):
            lo = inf_convolution(tc, m, us)
            hi = tc.sup_convolved(m)(us)
            if prev_lo is not None:
                assert np.all(lo >= prev_lo - 1e-9)
                assert np.all(hi <= prev_hi + 1e-9)
            prev_lo, prev_hi = lo, hi

    def test_m_lipschitz(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        rng = np.random.default_rng(11)
        u = rng.uniform(-2.0, 2.0, 500)
        v = rng.uniform(-2.0, 2.0, 500)
        for m in (2.0, 10.0):
            lu = inf_convolution(tc, m, u)
            lv = inf_convolution(tc, m, v)
            assert np.all(np.abs(lu - lv) <= m * np.abs(u - v) + 1e-9)

    def test_measured_gap_below_certificate(self):
        tc = TerminalCondition.analytic("cos")
        us = np.linspace(-6.0, 6.0, 1201)
        for m in (5.0, 20.0, 100.0):
            gap = np.max(np.asarray(tc(us)) - inf_convolution(tc, m, us))
            assert gap <= uniform_gap_bound(tc, m) + 1e-9


class TestUniformGapBound:
    def test_lipschitz_formula(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)  # L = 0.5
        m = 10.0
        assert uniform_gap_bound(tc, m) == pytest.approx(
            2.0 * tc.sup_norm * 0.5 / m)

    def test_constant_profile_zero(self):
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        assert uniform_gap_bound(tc, 3.0) == 0.0

    def test_no_modulus(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        assert tc.lipschitz is None
        with pytest.raises(NoModulusError):
            uniform_gap_bound(tc, 10.0)


class TestDerivedConditions:
    def test_inf_convolved_is_lipschitz(self):
        tc = TerminalCondition.step(0.0, -1.0, 1.0)
        smooth = tc.inf_convolved(50.0)
        assert smooth.lipschitz == 50.0
        xs = np.linspace(-0.2, 0.2, 81)
        vals = np.asarray(smooth(xs))
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        assert slopes.max() <= 50.0 + 1e-6

    def test_shifted(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        up = tc.shifted(0.3)
        assert up(0.0) == pytest.approx(0.8)

    def test_shifted_and_negated_keep_critical_points(self):
        # the jump sides stay explicit scan candidates, so the convolutions
        # of the derived step data are exact
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        xs = np.linspace(-0.1, 0.1, 2001)
        up = np.asarray(tc.shifted(0.5).inf_convolved(50.0)(xs))
        assert np.max(np.abs(up - (np.asarray(tc.inf_convolved(50.0)(xs)) + 0.5))) <= 1e-12
        neg = np.asarray(tc.negated().inf_convolved(50.0)(xs))
        assert np.max(np.abs(neg + np.asarray(tc.sup_convolved(50.0)(xs)))) <= 1e-12

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("x,phi\n-1,0.0\n0,1.0\n1,0.0\n")
        tc = TerminalCondition.from_csv(path)
        assert tc(0.5) == pytest.approx(0.5)
        assert tc.sup_norm == 1.0


def _scan(tc, m, u):
    """The sampling scan on any data, at inf_convolution's window."""
    return terminal_data._scan_inf(tc.fn, m, u, 2.0 * tc.sup_norm / m + 1.0, crit=tc.crit)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _random_table(seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-5.0, 5.0, rng.integers(2, 30)))
    return TerminalCondition.tabulated(xs, rng.uniform(-2.0, 2.0, xs.size)
                                       * rng.choice([0.01, 1.0, 10.0]))


# grids of 801 and 321 nodes on [-8, 8], random points and both signed zeros
KNOT_US = np.concatenate([np.linspace(-8.0, 8.0, 801), np.linspace(-8.0, 8.0, 321),
                          np.random.default_rng(9).uniform(-9.0, 9.0, 300), [-0.0, 0.0]])


class TestKnotPath:
    def test_flag(self, tmp_path):
        tab = TerminalCondition.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        path = tmp_path / "phi.csv"
        path.write_text("x,phi\n-1,0.0\n0,1.0\n1,0.0\n")
        for tc in (tab, tab.negated(), tab.shifted(0.3), tab.negated().shifted(-1.0),
                   TerminalCondition.from_csv(path)):
            assert tc.piecewise_linear
        derived = [tab.inf_convolved(4.0), tab.sup_convolved(4.0),
                   TerminalCondition.step(0.0, 0.0, 1.0)]
        analytic = [TerminalCondition.analytic(k) for k in ("const", "cos", "inv_quad", "tanh")]
        for tc in derived + analytic:
            assert not tc.piecewise_linear

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_scan_bit_for_bit(self, seed):
        tc = SPIKE if seed == 0 else _random_table(seed)
        lip = tc.lipschitz
        # below and above the table's Lipschitz constant, never equal to a
        # segment slope (see test_flat_piece_differs_by_rounding_only)
        for m in (0.3 * lip, 0.9 * lip, 1.1 * lip, 4.0 * lip, 0.5, 2.0, 16.0, 100.0):
            assert np.array_equal(_bits(inf_convolution(tc, m, KNOT_US)),
                                  _bits(_scan(tc, m, KNOT_US)))
            neg = tc.negated()
            assert np.array_equal(_bits(tc.sup_convolved(m)(KNOT_US)),
                                  _bits(-_scan(neg, m, KNOT_US)))

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_flat_piece_differs_by_rounding_only(self, seed):
        """m equal to a segment's slope makes phi(p) + m|p - u| flat on
        it; the scan can then read a grid point a few ulps below every
        knot candidate, never above (it holds them all)."""
        tc = _random_table(seed)
        xs = np.asarray(tc.crit)
        slopes = np.abs(np.diff(np.asarray(tc(xs))) / np.diff(xs))
        for side in (tc, tc.negated()):
            for m in np.sort(slopes)[-3:]:
                knot = inf_convolution(side, m, KNOT_US)
                scan = _scan(side, m, KNOT_US)
                assert np.all(scan <= knot)
                assert np.max(knot - scan) <= 64.0 * np.finfo(float).eps * side.sup_norm

    @pytest.mark.parametrize("drop", [-0.02, 0.0, 0.02])
    def test_dropped_interior_knot_is_caught(self, drop):
        """Defect: one interior knot missing from the candidates."""
        crit = [c for c in SPIKE.crit if c != drop]
        holed = TerminalCondition(SPIKE.fn, SPIKE.lo, SPIKE.hi, SPIKE.lipschitz, crit,
                                  piecewise_linear=True)
        misses = [not np.array_equal(_bits(conv(m)(KNOT_US)), _bits(ref(m)(KNOT_US)))
                  for m in (2.0, 16.0)
                  for conv, ref in ((holed.inf_convolved, SPIKE.inf_convolved),
                                    (holed.sup_convolved, SPIKE.sup_convolved))]
        assert any(misses)

    def test_spike_ladder_never_scans(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tabulated data reached the sampling scan")

        monkeypatch.setattr(terminal_data, "_scan_inf", refuse)
        model = ForwardModel(ZeroDrift(), 1.0, 1.0)
        grid = GridSpec(n_x=201, dt=5e-2, x_lo=-8.0, x_hi=8.0)
        for side in ("lower", "upper"):
            ladder = solve_regularized_family(model, PowerGenerator(3.0), SPIKE,
                                              [2.0, 4.0, 8.0, 16.0], side, grid, 0.0)
            assert len(ladder) == 4


class TestScan:
    @pytest.mark.parametrize("tc", [TerminalCondition.analytic("cos", amplitude=0.8, frequency=1.7),
                                    TerminalCondition.step(0.3, -0.5, 0.5),
                                    SPIKE.inf_convolved(8.0)],
                             ids=["cos", "step", "nested"])
    def test_chunks_give_one_pass_bits(self, monkeypatch, tc):
        us = np.random.default_rng(4).uniform(-3.0, 3.0, 40)
        whole = inf_convolution(tc, 3.0, us)
        monkeypatch.setattr(terminal_data, "_SCAN_CHUNK", 7)
        assert np.array_equal(_bits(inf_convolution(tc, 3.0, us)), _bits(whole))

    # sup |phi''| of each analytic profile at amplitude a and frequency f
    CURVATURE = {"cos": lambda a, f: a * f * f,
                 "tanh": lambda a, f: a * f * f * 4.0 / (3.0 * np.sqrt(3.0)),
                 "inv_quad": lambda a, f: 2.0 * a}

    @classmethod
    def worst_excess(cls):
        """max over profiles, m and u of (scan - dense) / tol, where dense
        is a 100001-point brute-force minimum over the scan window and
        tol the value error of an argmin resolved to 1e-6 * window at the
        profile's curvature; also checks that the scan never undercuts
        the brute force by more than that grid's own Lipschitz error."""
        worst = 0.0
        us = np.linspace(-3.0, 3.0, 13) + 0.013
        for kind, curv in cls.CURVATURE.items():
            for amp, freq in ((0.8, 1.7), (1.0, 1.0), (2.0, 0.4)):
                tc = TerminalCondition.analytic(kind, amplitude=amp, frequency=freq)
                for m in (0.2, 0.7, 1.5, 4.0, 20.0):
                    window = 2.0 * tc.sup_norm / m + 1.0
                    tol = 0.5 * curv(amp, freq) * (1e-6 * window) ** 2
                    grid_err = (tc.lipschitz + m) * window / 1e5
                    scan = inf_convolution(tc, m, us)
                    for u, got in zip(us, scan):
                        p = u + np.linspace(-window, window, 100001)
                        dense = np.min(np.asarray(tc(p)) + m * np.abs(p - u))
                        assert got >= dense - grid_err
                        worst = max(worst, (got - dense) / tol)
        return worst

    def test_smooth_profiles_resolved_to_claim(self):
        assert self.worst_excess() <= 1.0

    def test_one_refinement_misses_claim(self, monkeypatch):
        monkeypatch.setattr(terminal_data, "_SCAN_REFINEMENTS", 1)
        assert self.worst_excess() > 1.0


@pytest.mark.xfail(strict=True, reason="the sampling scan settles in a basin above "
                   "the global minimum for oscillatory data at small m; ROADMAP "
                   "direction 4 (exact candidates) removes it")
@pytest.mark.parametrize("m", [0.1, 0.05])
def test_scan_never_above_dense_minimum_for_oscillatory_data(m):
    # cos with amplitude 2 and frequency 3: the scan reads 0.179 (m = 0.1)
    # and 0.113 (m = 0.05) above a 400,001-point brute force over its own
    # window; an exact infimum is never above any sampled minimum
    tc = TerminalCondition.analytic("cos", amplitude=2.0, frequency=3.0)
    us = np.linspace(-3.0, 3.0, 13) + 0.013
    window = 2.0 * tc.sup_norm / m + 1.0
    for u, got in zip(us, inf_convolution(tc, m, us)):
        p = u + np.linspace(-window, window, 400_001)
        dense = np.min(np.asarray(tc(p)) + m * np.abs(p - u))
        assert got <= dense + 1e-12
