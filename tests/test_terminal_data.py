import tracemalloc
import warnings

import numpy as np
import pytest

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
        # the jump sides stay explicit candidates, so the convolutions
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


# -- references: the sampling scan and the knot minimum the exact envelope
# replaced, kept here as they were

_SCAN_POINTS = 257
_SCAN_REFINEMENTS = 3
_SCAN_CHUNK = 1024


def _scan_inf(phi, m, u, window, crit=()):
    """min_p phi(p) + m|p - u| over a coarse scan of [u-window, u+window]
    (p = u always sampled), local refinements around the running argmin
    and the critical points; the global minimum only when the coarse
    samples land in its basin."""
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    best = np.empty(u.shape)
    for start in range(0, u.size, _SCAN_CHUNK):
        stop = start + _SCAN_CHUNK
        best[start:stop] = _grid_inf(phi, m, u[start:stop], window)
    return _crit_inf(phi, m, u, best, crit)


def _grid_inf(phi, m, u, window):
    offsets = np.linspace(-window, window, _SCAN_POINTS)
    best_val = np.full(u.shape, np.inf)
    best_p = u.copy()
    center = u.copy()
    half = window
    rows = np.arange(u.size)
    for _ in range(_SCAN_REFINEMENTS + 1):
        p = center[:, None] + offsets[None, :] * (half / window)
        vals = phi(p) + m * np.abs(p - u[:, None])
        idx = np.argmin(vals, axis=1)
        cand = vals[rows, idx]
        take = cand < best_val
        best_val = np.where(take, cand, best_val)
        best_p = np.where(take, p[rows, idx], best_p)
        center = best_p
        half = half * (2.0 / (_SCAN_POINTS - 1)) * 2.0
    return best_val


def _crit_inf(phi, m, u, best_val, crit):
    for c in crit:
        cand = float(phi(np.asarray(c, dtype=float))) + m * np.abs(c - u)
        best_val = np.minimum(best_val, cand)
    return best_val


def _knot_inf(phi, m, u, knots):
    """min_p phi(p) + m|p - u| over p in {u} and the knots, one knot at a
    time: the exact inf-convolution of data linear between the knots and
    constant beyond them."""
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    p = u + 0.0
    return _crit_inf(phi, m, u, phi(p) + m * np.abs(p - u), knots)


def _scan(tc, m, u):
    """The sampling scan on any data, at its old window u +- (2||Phi||/m + 1)."""
    return _scan_inf(tc.fn, m, u, 2.0 * tc.sup_norm / m + 1.0, crit=tc.crit)


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
    """Data linear between their knots: the envelope over the knots is the
    knot minimum bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_scan_bit_for_bit(self, seed):
        tc = SPIKE if seed == 0 else _random_table(seed)
        lip = tc.lipschitz
        # below and above the table's Lipschitz constant, never equal to a
        # segment slope (see test_flat_piece_differs_by_rounding_only)
        for m in (0.3 * lip, 0.9 * lip, 1.1 * lip, 4.0 * lip, 0.5, 2.0, 16.0, 100.0):
            for side in (tc, tc.negated(), tc.shifted(0.3)):
                exact = _bits(inf_convolution(side, m, KNOT_US))
                assert np.array_equal(exact, _bits(_knot_inf(side.fn, m, KNOT_US, side.crit)))
                assert np.array_equal(exact, _bits(_scan(side, m, KNOT_US)))

    def test_spike_ladder_members_are_knot_minima(self):
        model = ForwardModel(ZeroDrift(), 1.0, 1.0)
        grid = GridSpec(n_x=201, dt=5e-2, x_lo=-8.0, x_hi=8.0)
        for side in ("lower", "upper"):
            ladder = solve_regularized_family(model, PowerGenerator(3.0), SPIKE,
                                              [2.0, 4.0, 8.0, 16.0], side, grid, 0.0)
            ref = SPIKE if side == "lower" else SPIKE.negated()
            sign = 1.0 if side == "lower" else -1.0
            for m, sol in zip([2.0, 4.0, 8.0, 16.0], ladder):
                want = sign * _knot_inf(ref.fn, m, sol.x_grid, ref.crit)
                assert np.array_equal(_bits(sol.tc(sol.x_grid)), _bits(want))

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_flat_piece_differs_by_rounding_only(self, seed):
        """m equal to a segment's slope makes phi(p) + m|p - u| flat on
        it; two knots then tie up to rounding, and the envelope may pick
        the one a few ulps above the knot minimum.  The scan holds every
        knot and may read a grid point a few ulps below both."""
        tc = _random_table(seed)
        xs = np.asarray(tc.crit)
        slopes = np.abs(np.diff(np.asarray(tc(xs))) / np.diff(xs))
        ulps = 64.0 * np.finfo(float).eps * tc.sup_norm
        for side in (tc, tc.negated()):
            for m in np.sort(slopes)[-3:]:
                exact = inf_convolution(side, m, KNOT_US)
                knot = _knot_inf(side.fn, m, KNOT_US, side.crit)
                assert np.max(np.abs(exact - knot)) <= ulps
                assert np.all(_scan(side, m, KNOT_US) <= knot)

    @pytest.mark.parametrize("drop", [-0.02, 0.0, 0.02])
    def test_dropped_interior_knot_is_caught(self, drop):
        """Defect: one interior knot missing from the candidates."""
        crit = [c for c in SPIKE.crit if c != drop]
        holed = TerminalCondition(SPIKE.fn, SPIKE.lo, SPIKE.hi, SPIKE.lipschitz, crit)
        misses = [not np.array_equal(_bits(conv(m)(KNOT_US)), _bits(ref(m)(KNOT_US)))
                  for m in (2.0, 16.0)
                  for conv, ref in ((holed.inf_convolved, SPIKE.inf_convolved),
                                    (holed.sup_convolved, SPIKE.sup_convolved))]
        assert any(misses)


def _rootless(tc):
    """Defect: tc with no slope roots, as if linear between its knots."""
    return TerminalCondition(tc.fn, tc.lo, tc.hi, tc.lipschitz, tc.crit, tc.sup_norm)


def _without_corners(tc, m1):
    """Defect: tc.inf_convolved(m1) whose candidates lack the corners where
    two cones of its envelope meet (computed as the module computes them)."""
    smooth = tc.inf_convolved(m1)

    def roots(m, u):
        near = np.concatenate([u, tc.slope_roots(m1, u)])
        apex = np.union1d(tc.crit, tc.slope_roots(m1, near))
        reach = (tc.hi - tc.lo) / m1 + 1.0
        apex = np.concatenate([[apex[0] - reach], apex, [apex[-1] + reach]])
        env = inf_convolution(tc, m1, apex)
        corner = 0.5 * (apex[:-1] + apex[1:]) + np.diff(env) / (2.0 * m1)
        cands = smooth.slope_roots(m, u)
        return cands[~np.isin(cands, corner)]

    return TerminalCondition(smooth.fn, smooth.lo, smooth.hi, smooth.lipschitz,
                             smooth.crit, smooth.sup_norm, slope_roots=roots)


class TestExactness:
    """The envelope against a brute-force minimum over its old scan window,
    on both sides, for every analytic kind at small and large m and for
    pre-smoothed data."""

    US = np.linspace(-3.0, 3.0, 13) + 0.013
    # sup |phi''| of each analytic profile at amplitude a and frequency f
    CURVATURE = {"cos": lambda a, f: a * f * f,
                 "tanh": lambda a, f: a * f * f * 4.0 / (3.0 * np.sqrt(3.0)),
                 "inv_quad": lambda a, f: 2.0 * a}
    SHAPES = ((0.5, 5.0), (0.8, 1.7), (2.0, 3.0))
    MS = (0.05, 0.1, 0.3, 0.7, 1.5, 2.0)

    @classmethod
    def sweep(cls, tc, curv, ms=MS, points=100_001):
        """Over m, side and u: the envelope is at most tol above dense,
        a brute-force minimum over u +- (2||Phi||/m + 1), where tol is the
        value error of an argmin resolved to 1e-6 of that window at the
        curvature curv (the tolerance the sampling scan was held to); it
        never undercuts the brute force by more than that grid's own
        Lipschitz error; and the scan never undercuts it by more than a
        few ulps."""
        ulps = 16.0 * np.finfo(float).eps * max(1.0, tc.sup_norm)
        for side in (tc, tc.negated()):
            for m in ms:
                window = 2.0 * tc.sup_norm / m + 1.0
                tol = 0.5 * curv * (1e-6 * window) ** 2
                grid_err = (tc.lipschitz + m) * window / (points - 1)
                exact = inf_convolution(side, m, cls.US)
                assert np.all(_scan(side, m, cls.US) >= exact - ulps)
                for u, got in zip(cls.US, exact):
                    p = u + np.linspace(-window, window, points)
                    dense = np.min(np.asarray(side(p)) + m * np.abs(p - u))
                    assert dense - grid_err <= got <= dense + tol

    @pytest.mark.parametrize("kind", ["cos", "tanh", "inv_quad"])
    @pytest.mark.parametrize("amp, freq", SHAPES)
    def test_analytic_within_claim(self, kind, amp, freq):
        tc = TerminalCondition.analytic(kind, amplitude=amp, frequency=freq)
        self.sweep(tc, self.CURVATURE[kind](amp, freq))

    @pytest.mark.filterwarnings("error")
    def test_inv_quad_roots_at_extreme_scales(self):
        # the quartic m (1 + p^2)^2 +- 2 amp p handed to np.roots unscaled
        # divided 2 amp by m and overflowed; the minimizer sits near
        # p = (2 amp / m)^(1/3), about 2.7e103
        amp, m, u = 1e300, 1e-10, 0.5
        got = inf_convolution(TerminalCondition.analytic("inv_quad", amplitude=amp), m, u)
        p = np.geomspace(1e103, 1e104, 100_001)
        dense = np.min(amp / (1.0 + p * p) + m * (p - u))
        assert dense * (1.0 - 1e-8) <= got <= dense * (1.0 + 1e-12)

    def test_inv_quad_profile_far_out_is_zero_without_overflow(self):
        # x * x is inf past |x| = 1.3e154: the profile reads amp / inf = 0
        # there, and its slope roots near 7e207 are read at m = 5e-324
        tc = TerminalCondition.analytic("inv_quad", amplitude=1e300, offset=0.25)
        x = np.array([0.5, 1e150, 1e155, -1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tc(x)
            value = inf_convolution(tc, 5e-324, 0.5)
        assert np.array_equal(got[:2], 1e300 / (1.0 + x[:2] * x[:2]) + 0.25)
        assert got[2:].tolist() == [0.25] * 3
        assert value == 0.25

    @pytest.mark.parametrize("kind", ["cos", "tanh", "inv_quad"])
    def test_dropped_slope_roots_fail(self, kind):
        tc = TerminalCondition.analytic(kind, amplitude=2.0, frequency=3.0)
        with pytest.raises(AssertionError):
            self.sweep(_rootless(tc), self.CURVATURE[kind](2.0, 3.0))

    # pre-smoothed data at m1 = 1, convolved at m below it: the curvature
    # of phi_m1 is phi's on its phi pieces and 0 on its cones
    NESTED = {"cos": (2.0, 3.0), "tanh": (1.5, 2.0), "inv_quad": (2.0, 1.0)}
    NESTED_MS = (0.3, 0.6, 0.99)

    @pytest.mark.parametrize("kind", list(NESTED))
    def test_nested_within_claim(self, kind):
        amp, freq = self.NESTED[kind]
        tc = TerminalCondition.analytic(kind, amplitude=amp, frequency=freq)
        curv = self.CURVATURE[kind](amp, freq)
        self.sweep(tc.inf_convolved(1.0), curv, self.NESTED_MS)

    def test_nested_without_corners_fails_upper_side(self):
        tc = TerminalCondition.analytic("cos", amplitude=2.0, frequency=3.0)
        holed = _without_corners(tc, 1.0)
        # the lower side needs no corner (inf_m of phi_m1 is phi_min(m, m1))
        lower = [np.array_equal(inf_convolution(holed, m, self.US),
                                inf_convolution(tc, m, self.US)) for m in self.NESTED_MS]
        assert all(lower)
        with pytest.raises(AssertionError):
            self.sweep(holed, self.CURVATURE["cos"](2.0, 3.0), self.NESTED_MS)


@pytest.mark.parametrize("m", [0.1, 0.05])
def test_scan_never_above_dense_minimum_for_oscillatory_data(m):
    # cos with amplitude 2 and frequency 3: the sampling scan read 0.179
    # (m = 0.1) and 0.113 (m = 0.05) above a 400,001-point brute force over
    # its own window; an exact infimum is never above any sampled minimum
    tc = TerminalCondition.analytic("cos", amplitude=2.0, frequency=3.0)
    us = np.linspace(-3.0, 3.0, 13) + 0.013
    window = 2.0 * tc.sup_norm / m + 1.0
    for u, got in zip(us, inf_convolution(tc, m, us)):
        p = u + np.linspace(-window, window, 400_001)
        dense = np.min(np.asarray(tc(p)) + m * np.abs(p - u))
        assert got <= dense + 1e-12


class TestNested:
    """inf_m of phi_m1 is phi_min(m, m1): the triangle inequality for the
    |.| penalty."""

    @pytest.mark.parametrize("tc", [TerminalCondition.analytic("cos", amplitude=2.0, frequency=3.0),
                                    TerminalCondition.step(0.3, -0.5, 0.5), SPIKE],
                             ids=["cos", "step", "spike"])
    @pytest.mark.parametrize("m1", [0.5, 8.0, 50.0])
    def test_semigroup(self, tc, m1):
        us = np.concatenate([np.linspace(-4.0, 4.0, 801),
                             np.random.default_rng(21).uniform(-4.0, 4.0, 200)])
        for m in (0.1, 0.5, 2.0, 8.0, 16.0, 100.0):
            twice = np.asarray(tc.inf_convolved(m1).inf_convolved(m)(us))
            once = np.asarray(tc.inf_convolved(min(m, m1))(us))
            assert np.max(np.abs(twice - once)) <= 8.0 * np.finfo(float).eps * tc.sup_norm


class TestMemory:
    """Candidates are enumerated near the points asked for: a convolution
    holds O(points) floats at any frequency, and the value at a point does
    not depend on the other points asked for."""

    @pytest.mark.parametrize("tc", [TerminalCondition.analytic("cos", amplitude=0.8, frequency=1.7),
                                    TerminalCondition.analytic("cos", amplitude=0.8, frequency=40.0),
                                    TerminalCondition.step(0.3, -0.5, 0.5),
                                    SPIKE.inf_convolved(8.0),
                                    TerminalCondition.analytic("cos", amplitude=2.0,
                                                               frequency=40.0).inf_convolved(8.0)],
                             ids=["cos", "cos_apart", "step", "nested", "nested_cos_apart"])
    def test_parts_give_whole_bits(self, tc):
        # at frequency 40 the windows of one period around the points come
        # apart
        us = np.random.default_rng(4).uniform(-3.0, 3.0, 40)
        whole = inf_convolution(tc, 3.0, us)
        parts = np.concatenate([inf_convolution(tc, 3.0, us[i:i + 7])
                                for i in range(0, us.size, 7)])
        assert np.array_equal(_bits(parts), _bits(whole))

    XS = np.linspace(-8.0, 8.0, 3201)
    # floats per point, traced
    BUDGET = 80

    @classmethod
    def floats_per_point(cls, tc):
        inf_convolution(tc, 0.05, cls.XS)
        tracemalloc.start()
        try:
            inf_convolution(tc, 0.05, cls.XS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8.0 * cls.XS.size)

    @pytest.mark.parametrize("freq", [5.0, 1e4])
    def test_cos_holds_points_floats(self, freq):
        tc = TerminalCondition.analytic("cos", frequency=freq)
        assert self.floats_per_point(tc) <= self.BUDGET

    def test_global_enumeration_exceeds_budget(self):
        """Defect: every root between the first and the last point."""
        freq = 1e4
        tc = TerminalCondition.analytic("cos", frequency=freq)
        period = 2.0 * np.pi / freq

        def everywhere(m, u):
            return tc.slope_roots(m, np.arange(u.min(), u.max() + period, period))

        whole = TerminalCondition(tc.fn, tc.lo, tc.hi, tc.lipschitz, slope_roots=everywhere)
        assert self.floats_per_point(whole) > self.BUDGET
