import math

import numpy as np
import pytest
from scipy.special import zeta

from superbsde import _kernels
from superbsde import counterexamples as cx
from superbsde.errors import RangeOverflowError, ResolutionError


class TestEulerMaclaurin:
    @pytest.mark.parametrize("s", [3.0, 4.0, 5.0, 7.0])
    def test_matches_scipy_zeta(self, s):
        assert cx._euler_maclaurin_zeta(s) == pytest.approx(zeta(s), abs=1e-12)


class TestThm31:
    def test_q3_closed_forms(self):
        seq = cx.build_thm31(3.0, 100, 1.0)
        k = np.arange(1, 101, dtype=float)
        assert np.allclose(seq.z, k)
        assert seq.alpha == pytest.approx(zeta(5.0) / 3.0, rel=1e-12)
        # delta_k = 1/(3 alpha k^5)
        assert np.allclose(seq.delta, 1.0 / (3.0 * seq.alpha * k**5))

    def test_q4_sequence(self):
        seq = cx.build_thm31(4.0, 50, 1.0)
        assert np.allclose(seq.z, np.sqrt(np.arange(1, 51)))

    def test_slots_sum_to_horizon(self):
        for q, T in ((3.0, 1.0), (2.5, 2.0), (4.0, 0.5)):
            seq = cx.build_thm31(q, 200, T)
            rep = cx.thm31_series_report(seq)
            assert abs(rep.slot_sum_with_tail - T) <= 1e-9

    def test_series_chains_at_scale(self):
        seq = cx.build_thm31(3.0, 10_000, 1.0)
        rep = cx.thm31_series_report(seq)
        assert rep.all_passed
        inv_a = 1.0 / seq.alpha
        # cost below the zeta(2) ceiling, z-energy below zeta(3)
        assert rep.cost_partial <= inv_a * math.pi**2 / 6.0
        assert rep.z2_partial <= inv_a * zeta(3.0)
        # control energy dominates the harmonic series: H_1e4 ~ 9.79
        assert rep.q2_partial >= inv_a * 9.78
        assert rep.divergence_K == 16

    def test_overflow_guard(self):
        with pytest.raises(RangeOverflowError):
            cx.build_thm31(2.001, 10_000, 1.0)

    def test_small_K_rejected(self):
        with pytest.raises(ValueError):
            cx.build_thm31(3.0, 5, 1.0)


class TestThm33Config:
    def test_growth_inequalities(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        k = np.arange(cfg.K, dtype=float)
        assert np.all(cfg.x**cfg.q >= 4.0**cfg.n * cfg.x**2 - 1e-9)
        lower = 1.0 / ((cfg.theta**k - cfg.theta**(k + 1)) * cfg.theta**k * cfg.delta_n)
        assert np.all(cfg.x**2 >= lower * (1.0 - 1e-12))

    def test_interval_geometry(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 4, T=1.0)
        assert cfg.t_start == pytest.approx(0.75)
        assert cfg.t_end == pytest.approx(0.875)
        assert cfg.delta_n == pytest.approx(0.125)

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            cx.build_thm33(3.0, 2, 1.5, 0.5, 4)


class TestThm33Excursion:
    def test_paper_bound_values(self):
        # exp(-2^n eps) at (n=2, eps=0.5) is e^-2; the dominating-process
        # reflection value exp(-2 * 4^n * 2^(-n-1) eps) coincides with it
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg, 2000, 64, seed=3)
        assert rep.paper_bound == pytest.approx(math.exp(-2.0))
        assert rep.dominating_exact == pytest.approx(math.exp(-2.0))

    def test_two_channels_agree(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg, 10_000, 64, seed=4)
        assert rep.all_passed
        assert abs(rep.dominating_estimate - rep.dominating_exact) <= 3.0 * rep.dominating_se

    def test_n3_bound(self):
        cfg = cx.build_thm33(3.0, 3, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg, 10_000, 64, seed=5)
        assert rep.paper_bound == pytest.approx(math.exp(-4.0))
        assert rep.estimate <= rep.paper_bound + 3.0 * rep.std_error

    def test_mesh_resolution_guard(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        with pytest.raises(ResolutionError):
            cx.simulate_thm33_excursion(cfg, 100, 16, seed=6)

    def test_reproducible(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        r1 = cx.simulate_thm33_excursion(cfg, 500, 64, seed=7)
        r2 = cx.simulate_thm33_excursion(cfg, 500, 64, seed=7)
        assert r1.estimate == r2.estimate
        assert r1.final_quantiles == r2.final_quantiles


class TestCombMeasure:
    def brute_measure(self, t, period, width, n_teeth=10_000):
        total = 0.0
        for i in range(1, n_teeth + 1):
            a, b = i * period - width, i * period
            total += max(0.0, min(t, b) - max(0.0, a))
            if a > t:
                break
        return total

    @pytest.mark.parametrize("t", [0.0, 0.13, 0.5, 0.77, 1.0])
    def test_against_brute_force(self, t):
        period, width = 1.0 / 64.0, 1.0 / 64.0**2
        got = float(_kernels.comb_measure(np.array(t), period, width))
        assert got == pytest.approx(self.brute_measure(t, period, width), abs=1e-15)

    def test_total_measure(self):
        period, width = 1.0 / 37.0, 1.0 / 37.0**2
        assert float(_kernels.comb_measure(np.array(1.0), period, width)) == \
            pytest.approx(37.0 * width)


class TestThm34Build:
    def test_q3_first_terms(self):
        cfg = cx.build_thm34(3.0, 2, 1.0)
        assert cfg.z[0] == 16.0 and cfg.alpha[0] == 4096
        assert cfg.z[1] == 256.0 and cfg.alpha[1] == 16_777_216

    def test_small_horizon_second_branch(self):
        cfg = cx.build_thm34(3.0, 1, 0.01)
        # (16 * 0.01)^1 = 0.16 < (4 * 0.01)^{1/3} = 0.342
        assert cfg.z[0] == pytest.approx(0.04**(1.0 / 3.0))
        assert cfg.alpha[0] == 1

    def test_overflow_reports_feasible_K(self):
        with pytest.raises(RangeOverflowError, match="max feasible K = 85"):
            cx.build_thm34(3.0, 86, 1.0)


class TestThm34Deterministic:
    def test_energy_bounds_exact(self):
        cfg = cx.build_thm34(3.0, 6, 1.0)
        for k in range(1, 7):
            energy = cfg.z[k - 1] ** 2 * cfg.T / float(cfg.alpha[k - 1])
            assert energy <= 16.0**-k * (1 + 1e-12)

    def test_supdev_closed_form_vs_scan(self):
        # brute scan of the sawtooth at period boundaries for k = 1
        cfg = cx.build_thm34(3.0, 1, 1.0)
        g, a = cfg.g_vals[0], cfg.alpha[0]
        period, width = cfg.T / a, cfg.T / a**2
        i = np.arange(1, a + 1, dtype=float)
        # lag just before tooth i starts
        lag = (i * period - width) - g * (i - 1) * width
        end_lag = cfg.T - g * cfg.T / a
        brute = max(lag.max(), end_lag)
        assert cx.comb_sup_deviation(cfg.T, g, a) == pytest.approx(brute, rel=1e-12)

    def test_supdev_alpha_one_case(self):
        # alpha = ceil(g) = 1: single tooth covering the whole horizon
        dev = cx.comb_sup_deviation(0.01, 0.04, 1)
        assert dev == pytest.approx(0.01 * (1.0 - 0.04))

    def test_all_deterministic_rows_pass(self):
        for q in (3.0, 5.0, 10.0):
            cfg = cx.build_thm34(q, 6, 1.0)
            assert all(r.passed for r in cx.thm34_deterministic(cfg))


class TestCrossOverlap:
    def brute_overlap(self, alpha_j, Pj, wj, alpha_k, Pk, wk, edges):
        out = np.zeros(edges.size - 1)
        for i in range(1, alpha_j + 1):
            a, b = i * Pj - wj, i * Pj
            for n in range(int(a / Pk), int(b / Pk) + 2):
                ta, tb = (n + 1) * Pk - wk, (n + 1) * Pk
                lo, hi = max(a, ta), min(b, tb)
                if hi > lo:
                    mid = 0.5 * (lo + hi)
                    out[min(np.searchsorted(edges, mid) - 1, out.size - 1)] += hi - lo
        return out

    @pytest.mark.parametrize("aj, ak, n_edges", [(64, 512, 17), (128, 1024, 33)],
                             ids=["64x512", "128x1024"])
    def test_sweep_matches_brute_force(self, aj, ak, n_edges):
        # comb pairs small enough to enumerate directly
        Pj, wj = 1.0 / aj, 1.0 / aj**2
        Pk, wk = 1.0 / ak, 1.0 / ak**2
        edges = np.linspace(0.0, 1.0, n_edges)
        got = _kernels.comb_cross_overlap(aj, Pj, wj, Pk, wk, edges)
        want = self.brute_overlap(aj, Pj, wj, ak, Pk, wk, edges)
        assert np.allclose(got, want, atol=1e-15)
        assert got.sum() > 0.0


class TestThm34Checks:
    def test_full_report_q3(self):
        cfg = cx.build_thm34(3.0, 4, 1.0)
        rep = cx.thm34_checks(cfg, 2000, 1024, seed=8)
        assert rep.all_passed
        assert rep.p_nu_T >= 2.0 / 3.0
        # k=1 crossing probability is ~ 4 Phi(-2) ~ 0.091, well under 1/4
        k1 = rep.mc_estimates[0]
        assert 0.05 <= k1[1] <= 0.15

    def test_sweepable_combs_q10(self):
        # q = 10 gives alpha_k = 32^k: all cross pairs are swept exactly
        cfg = cx.build_thm34(10.0, 3, 1.0)
        rep = cx.thm34_checks(cfg, 1000, 1024, seed=9)
        assert rep.all_passed
        assert rep.skipped_pairs == ()

    def test_witness(self):
        cfg = cx.build_thm34(3.0, 3, 1.0)
        wit = cx.limit_not_solution_witness(cfg, seed=10)
        assert wit.all_passed
        assert wit.drift_rate == pytest.approx(1.0)
        assert wit.qv_estimate <= 2.0 * cfg.T * (cfg.T / 4096.0)

    def test_reproducible(self):
        cfg = cx.build_thm34(3.0, 3, 1.0)
        r1 = cx.thm34_checks(cfg, 500, 512, seed=11)
        r2 = cx.thm34_checks(cfg, 500, 512, seed=11)
        assert r1.rows == r2.rows
