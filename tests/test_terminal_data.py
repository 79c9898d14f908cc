import numpy as np
import pytest

from superbsde.errors import NoModulusError
from superbsde.terminal_data import (Lipschitz, LowerSemiContinuous,
                                     TerminalCondition, UniformlyContinuous,
                                     inf_convolution, sup_convolution,
                                     uniform_gap_bound)


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
        assert sup_convolution(tc, 3.0, 0.2) == pytest.approx(-0.4, abs=1e-9)

    def test_step_example(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        assert sup_convolution(tc, 2.0, -0.25) == pytest.approx(0.5, abs=1e-6)

    def test_duality_with_inf_convolution(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=0.8)
        neg = tc.negated()
        for u in (-0.7, 0.1, 1.9):
            assert sup_convolution(tc, 3.0, u) == pytest.approx(
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
            hi = sup_convolution(tc, m, us)
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
            hi = sup_convolution(tc, m, us)
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

    def test_modulus_table(self):
        table = tuple((eps, eps) for eps in (0.01, 0.02, 0.05, 0.1))
        tc = TerminalCondition(TerminalCondition.analytic("cos").profile,
                               sup_norm=1.0,
                               regularity=UniformlyContinuous(table))
        assert uniform_gap_bound(tc, 100.0) == pytest.approx(0.02)
        # verify by sampling the actual gap
        us = np.linspace(-7.0, 7.0, 2001)
        gap = np.max(np.asarray(tc(us)) - inf_convolution(tc, 100.0, us))
        assert gap <= 0.02 + 1e-9

    def test_no_modulus(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        assert isinstance(tc.regularity, LowerSemiContinuous)
        with pytest.raises(NoModulusError):
            uniform_gap_bound(tc, 10.0)


class TestDerivedConditions:
    def test_inf_convolved_is_lipschitz(self):
        tc = TerminalCondition.step(0.0, -1.0, 1.0)
        smooth = tc.inf_convolved(50.0)
        assert isinstance(smooth.regularity, Lipschitz)
        assert smooth.regularity.L == 50.0
        xs = np.linspace(-0.2, 0.2, 81)
        vals = np.asarray(smooth(xs))
        slopes = np.abs(np.diff(vals) / np.diff(xs))
        assert slopes.max() <= 50.0 + 1e-6

    def test_shifted(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        up = tc.shifted(0.3)
        assert up(0.0) == pytest.approx(0.8)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("x,phi\n-1,0.0\n0,1.0\n1,0.0\n")
        tc = TerminalCondition.from_csv(path)
        assert tc(0.5) == pytest.approx(0.5)
        assert tc.sup_norm == 1.0
