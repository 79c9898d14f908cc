import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.random import Generator
from scipy.special import zeta
from scipy.stats import norm

from superbsde import _kernels, cli, forward_model
from superbsde import counterexamples as cx
from superbsde.errors import RangeOverflowError
from superbsde.forward_model import path_normals
from test_acceptance import FAST_CFG


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

    def test_scaled_slots_fail_the_slot_row(self):
        seq = cx.build_thm31(3.0, 100, 1.0)
        bad = dataclasses.replace(seq, delta=seq.delta * (1.0 + 1e-6))
        rows = cx.thm31_series_report(bad).rows
        assert [r.passed for r in rows if r.check == "slot sum + tail = T"] == [False]

    def test_zeta_error_cancels_in_the_slot_row(self, monkeypatch):
        # alpha is built from the same zeta value as the tail, so a wrong
        # zeta cannot fail the slot row; TestEulerMaclaurin covers zeta
        zeta_em = cx._euler_maclaurin_zeta
        monkeypatch.setattr(cx, "_euler_maclaurin_zeta", lambda s: 1.01 * zeta_em(s))
        rep = cx.thm31_series_report(cx.build_thm31(3.0, 100, 1.0))
        assert rep.slot_sum_with_tail == pytest.approx(1.0, abs=1e-15)
        assert rep.all_passed

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

    def test_large_K_builds_until_g_overflows(self):
        # theta^k underflows well before K = 400; the inf it gives is the
        # overflow error, with no numpy warning on the way
        rep = cx.simulate_thm33_excursion(cx.build_thm33(3.0, 2, 0.5, 0.5, 200))
        assert rep.all_passed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RangeOverflowError, match="K=400"):
                cx.build_thm33(3.0, 2, 0.5, 0.5, 400)

    @pytest.mark.parametrize("n", [1100, 2000])
    def test_large_n_overflow_is_typed(self, n):
        # 4^(n/(q-2)) passes the float range in Python arithmetic, which
        # raised a bare OverflowError
        with pytest.raises(RangeOverflowError, match=f"n={n}"):
            cx.build_thm33(3.0, n, 0.5, 0.5, 8)


def first_passage_scipy(cfg):
    """p_lo through scipy.stats.norm: the drifted first-passage law on the
    first sub-interval, clock S = x_0^2 (1 - theta) delta_n."""
    mu = cfg.x[0] ** (cfg.q - 2.0)
    S = cfg.x[0] ** 2 * (1.0 - cfg.theta) * cfg.delta_n
    a = cfg.barrier
    return float(norm.cdf((-a - mu * S) / math.sqrt(S))
                 + math.exp(-2.0 * mu * a) * norm.cdf((mu * S - a) / math.sqrt(S)))


PREMISE = "min x_k^(q-2) >= 4^n, so P(min V < -{a:g}) <= exp(-2^n eps)"


class TestThm33Excursion:
    def test_paper_bound_values(self):
        # exp(-2^n eps) at (n=2, eps=0.5) is e^-2; the dominating-process
        # value exp(-2 * 4^n * 2^(-n-1) eps) coincides with it
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg)
        assert rep.paper_bound == pytest.approx(math.exp(-2.0))
        assert rep.dominating_estimate == pytest.approx(math.exp(-2.0))

    def test_bracket_closes_on_the_bound(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg)
        assert rep.all_passed
        assert [r.check for r in rep.rows] == [PREMISE.format(a=0.0625),
                                               "divergence witness: median V at mesh end"]
        assert [r.passed for r in rep.rows] == [True, True]
        assert rep.estimate == rep.dominating_estimate == rep.paper_bound == 0.1353352832366127
        # the Gaussian law of V at the mesh end: mean sum g(x_k) L_k
        assert rep.final_quantiles[1] == 87744.0

    def test_n3_bound(self):
        cfg = cx.build_thm33(3.0, 3, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg)
        assert rep.paper_bound == pytest.approx(math.exp(-4.0))
        assert rep.estimate == rep.dominating_estimate == 0.01831563888873418
        assert rep.dominating_estimate <= rep.paper_bound

    def test_reproducible(self):
        # nothing is drawn, so the Monte Carlo arguments change nothing
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        r1 = cx.simulate_thm33_excursion(cfg, 500, 64, seed=7)
        r2 = cx.simulate_thm33_excursion(cfg)
        assert r1 == r2

    def test_final_quantiles_are_the_gaussian_ones(self):
        cfg = cx.build_thm33(2.5, 1, 0.5, 0.5, 3)
        lengths = np.array([(0.5**k - 0.5 ** (k + 1)) * cfg.delta_n for k in range(3)])
        law = norm(np.sum(cfg.x**2.5 * lengths), np.sqrt(np.sum(cfg.x**2 * lengths)))
        got = cx.simulate_thm33_excursion(cfg).final_quantiles
        assert got == pytest.approx(tuple(law.ppf([0.1, 0.5, 0.9])), rel=1e-14)


class TestThm33Bracket:
    @pytest.mark.parametrize("args, p_lo, p_hi", [
        ((3.0, 0, 0.5, 0.5, 8), 0.365367, math.exp(-1.0)),
        ((2.5, 0, 0.9, 0.99, 8), 0.121286, 0.123243)])
    def test_p_lo_matches_scipy_where_the_bracket_is_open(self, args, p_lo, p_hi):
        cfg = cx.build_thm33(*args)
        rep = cx.simulate_thm33_excursion(cfg)
        assert abs(rep.estimate - first_passage_scipy(cfg)) <= 1e-15
        assert rep.estimate == pytest.approx(p_lo, abs=1e-6)
        assert rep.dominating_estimate == pytest.approx(p_hi, abs=1e-6)
        assert rep.estimate < rep.dominating_estimate < rep.paper_bound

    @pytest.mark.parametrize("defect, value", [
        (lambda law, mu, S, a: 0.5 * math.erfc((a + mu * S) / math.sqrt(2.0 * S)), 0.0122),
        (lambda law, mu, S, a: law(mu, 0.5 * S, a), 0.353299)],
        ids=["no_reflection_term", "halved_first_clock"])
    def test_defective_law_fails_the_scipy_check(self, monkeypatch, defect, value):
        cfg = cx.build_thm33(3.0, 0, 0.5, 0.5, 8)
        law = cx._first_passage
        monkeypatch.setattr(cx, "_first_passage",
                            lambda mu, S, a: defect(law, mu, S, a))
        rep = cx.simulate_thm33_excursion(cfg)
        assert rep.estimate == pytest.approx(value, abs=1e-4)
        assert abs(rep.estimate - first_passage_scipy(cfg)) > 1e-15

    def test_shrunk_volatility_fails_the_premise_row(self):
        cfg = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(dataclasses.replace(cfg, x=cfg.x * (1.0 - 1e-6)))
        assert [r.passed for r in rep.rows if r.hard] == [False]
        assert not rep.all_passed

    def test_premise_holds_across_configs_up_to_rounding(self):
        # x_k^(q-2) = 4^n exactly in theory wherever the growth branch binds;
        # in floating point some configs read a hair below, and only the
        # 1e-12 tolerance passes them
        below = 0
        grid = list(itertools.product((2.1, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0), range(9),
                                      (0.1, 0.5, 0.9), (0.1, 0.5, 0.99), (1, 3, 8, 16)))
        for q, n, theta, eps, K in grid:
            rep = cx.simulate_thm33_excursion(cx.build_thm33(q, n, theta, eps, K))
            assert rep.all_passed
            assert rep.estimate <= rep.dominating_estimate <= rep.paper_bound * (1.0 + 1e-12)
            below += rep.rows[0].value < 4.0**n
        assert len(grid) == 2268 and below > 0


def bridge_estimate(cfg, n_paths, n_steps, seed):
    """The sampled estimator the exact bracket replaced: V on n_steps // K
    Euler steps per sub-interval from salt 1, with the one-sided bridge
    correction; returns the estimate and its standard error."""
    steps_per = n_steps // cfg.K
    dts, vols = [], []
    for k in range(cfg.K):
        length = (cfg.theta**k - cfg.theta ** (k + 1)) * cfg.delta_n
        dts.append(np.full(steps_per, length / steps_per))
        vols.append(np.full(steps_per, cfg.x[k]))
    dt, vol = np.concatenate(dts), np.concatenate(vols)
    cross = bridge_cross(walk(seed, n_paths, vol**cfg.q * dt, vol * np.sqrt(dt)),
                         vol**2 * dt, cfg.barrier)
    return float(np.mean(cross)), float(np.std(cross, ddof=1) / np.sqrt(n_paths))


def within_3se_of_bracket(rep, est, se):
    return rep.estimate - 3.0 * se <= est <= rep.dominating_estimate + 3.0 * se


class TestBridgeReference:
    @pytest.mark.parametrize("n, seed", [(2, 90), (3, 91)])
    def test_estimate_within_3se_of_the_bracket(self, n, seed):
        cfg = cx.build_thm33(3.0, n, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg)
        assert within_3se_of_bracket(rep, *bridge_estimate(cfg, 10_000, 64, seed))

    def test_counterexample_33_draws_nothing(self, monkeypatch, tmp_path):
        counts, _ = count_normals(monkeypatch)
        assert cli.main(["counterexample", "3.3", "--out", str(tmp_path)]) == 0
        assert counts[0] == 0
        bridge_estimate(cx.build_thm33(3.0, 2, 0.5, 0.5, 8), 10, 64, 1)
        assert counts[0] == 10 * 64


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

    def test_alpha_minus_one_fails_the_energy_rows(self):
        # for q = 3, g(z_k) is an integer and the energy bound holds with
        # equality; past k = 3, 1/alpha_k is below the 1e-12 tolerance
        cfg = cx.build_thm34(3.0, 3, 1.0)
        bad = dataclasses.replace(cfg, alpha=tuple(a - 1 for a in cfg.alpha))
        energy = [r.passed for r in cx.thm34_deterministic(bad) if "energy" in r.check]
        assert energy == [False] * 3

    def test_shrunk_drift_fails_the_deviation_rows(self):
        # g 10 % low lags t by about T/10, above 2^-k from k = 4 on
        cfg = cx.build_thm34(3.0, 6, 1.0)
        bad = dataclasses.replace(cfg, g_vals=cfg.g_vals * 0.9)
        dev = [r.passed for r in cx.thm34_deterministic(bad) if "sup |int" in r.check]
        assert dev == [True] * 3 + [False] * 3


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
        # one exact dip row per built k; k=1 is ~ 4 Phi(-2), well under 1/4
        dips = [r for r in rep.rows if "P[nu_k < T]" in r.check]
        assert [r.check for r in dips] == [f"k={k} P[nu_k < T] <= 4^-k"
                                           for k in range(1, 5)]
        assert (dips[0].value, dips[0].threshold) == (0.0910005238463663, 0.25)

    @pytest.mark.parametrize("K", [2, 6])
    def test_only_the_joint_channel_draws(self, monkeypatch, K):
        cfg = cx.build_thm34(3.0, K, 1.0)
        counts, _ = count_normals(monkeypatch)
        cx.thm34_checks(cfg, 300, 128, seed=8)
        assert counts[0] == 300 * 128 * min(3, K)

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
        assert [r.check for r in wit.rows] == ["sup |Y^3 - t^nu| <= 10*2^-3 on good paths"]

    @pytest.mark.parametrize("K", [2, 6])
    def test_witness_row_is_read_off_the_checks_paths(self, K):
        # a path's normals depend only on (seed, salt, path), so the two
        # entry points run the joint channel on the same paths
        cfg = cx.build_thm34(3.0, K, 1.0)
        rep = cx.thm34_checks(cfg, 300, 128, seed=8)
        wit = cx.limit_not_solution_witness(cfg, 8, n_paths=300, n_coarse=128)
        k = min(3, K)
        assert rep.rows[-1] == wit.rows[0]
        assert rep.rows[-1].check == f"sup |Y^{k} - t^nu| <= 10*2^-{k} on good paths"

    def test_counterexample_34_runs_the_joint_channel_once(self, monkeypatch, tmp_path):
        # A12's config: 400 paths, K = 3, on the fixed 4096-interval grid;
        # a second witness run would draw 256 x 4096 x 3 more
        cfgp = tmp_path / "fast.yaml"
        cfgp.write_text(FAST_CFG)
        counts, _ = count_normals(monkeypatch)
        argv = ["counterexample", "3.4", "--config", str(cfgp), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        assert counts[0] == 400 * 4096 * 3
        rows = (tmp_path / "o" / "counterexample.csv").read_text().splitlines()
        assert rows[-1].startswith('3.4,"sup |Y^3 - t^nu| <= 10*2^-3 on good paths",')

    def test_reproducible(self):
        cfg = cx.build_thm34(3.0, 3, 1.0)
        r1 = cx.thm34_checks(cfg, 500, 512, seed=11)
        r2 = cx.thm34_checks(cfg, 500, 512, seed=11)
        assert r1.rows == r2.rows


def eigenfunction_exit(S, a, terms=200):
    """P[sup_{[0,S]} |W| > a] from the eigenfunction series of the heat
    equation on (-a, a), summed independently of the image series."""
    n = np.arange(terms)
    r = math.pi**2 * S / (8.0 * a * a)
    return 1.0 - 4.0 / math.pi * float(np.sum((-1.0) ** n / (2 * n + 1)
                                               * np.exp(-(2 * n + 1) ** 2 * r)))


def dip_time(cfg, k):
    """The clock S = z_k^2 T / alpha_k and the barrier a = 2^-k."""
    z = cfg.z[k - 1]
    return z * z * cfg.T / float(cfg.alpha[k - 1]), 2.0**-k


def bridge_nu_estimate(cfg, k, n_paths, seed):
    """The sampled estimator the exact law replaced: sup |W| on [0, S] over
    2048 steps of salt 10 + k, with the two-sided bridge correction, in
    blocks of 250 paths; returns the estimate and its standard error."""
    S, a = dip_time(cfg, k)
    n_grid = 2048
    ds = S / n_grid
    cross = []
    for start in range(0, n_paths, 250):
        stop = min(start + 250, n_paths)
        steps = path_normals(seed, 10 + k, start, stop, (n_grid,)) * np.sqrt(ds)
        w = np.concatenate([np.zeros((stop - start, 1)),
                            np.cumsum(steps, axis=1)], axis=1)
        cross.append(two_sided_reference(w, a, ds))
    cross = np.concatenate(cross)
    return float(np.mean(cross)), float(np.std(cross, ddof=1) / np.sqrt(n_paths))


class TestExitLaw:
    @pytest.mark.parametrize("q, k", [(3.0, 1), (3.0, 2), (3.0, 3), (10.0, 1)])
    def test_matches_eigenfunction_series(self, q, k):
        cfg = cx.build_thm34(q, 3, 1.0)
        row = cx.thm34_mc_nu(cfg, k)
        assert abs(row.value - eigenfunction_exit(*dip_time(cfg, k))) <= 1e-15
        assert row.passed and row.threshold == 4.0**-k

    def test_bridge_estimator_within_3se(self):
        cfg = cx.build_thm34(3.0, 3, 1.0)
        est, se = bridge_nu_estimate(cfg, 1, 2000, seed=8)
        assert abs(est - cx.thm34_mc_nu(cfg, 1).value) <= 3.0 * se

    def test_rows_pass_for_every_built_k(self):
        # at k = 6, a / sqrt(S) = 64: the first term underflows and p = 0
        cfg = cx.build_thm34(3.0, 6, 1.0)
        rows = [cx.thm34_mc_nu(cfg, k) for k in range(1, 7)]
        assert all(r.passed for r in rows)
        assert rows[-1].value == 0.0


def count_normals(monkeypatch):
    """Counters of the normals forward_model's generators draw and of the
    threads that draw them, through a counting Generator subclass like the
    benchmark tracer's."""
    threads, counts = set(), [0]

    class CountingGenerator(Generator):
        def standard_normal(self, *args, **kwargs):
            threads.add(threading.current_thread())
            out = super().standard_normal(*args, **kwargs)
            counts[0] += int(np.size(kwargs["out"]))
            return out

    monkeypatch.setattr(forward_model, "Generator", CountingGenerator)
    return counts, threads


# ---------------------------------------------------------------------------
# The bridge-crossing kernel of the reference estimators and the nu-stopped
# statistics against copies of earlier implementations, bit for bit
# ---------------------------------------------------------------------------

def _exp_neg(arg):
    """exp(arg) for arg <= 0, evaluated only above the survival-product
    noise floor; bridge arguments are usually huge and negative."""
    out = np.zeros_like(arg)
    mask = arg > -45.0
    if np.any(mask):
        out[mask] = np.exp(arg[mask])
    return out


def bridge_cross(w, var_steps, a):
    """P(path leaves (-a, inf)) per path for a Brownian motion with piecewise
    constant drift observed at the knots w (n_paths, n_knots): one minus the
    product over steps of the bridge survival 1 - exp(-2 d0 d1 / var), where
    d0, d1 are the knot distances to the barrier, clipped at 0 (Glasserman
    2004).  A knot on or past the barrier thus gives its steps crossing
    probability 1.  var_steps (> 0) is the step variance, a scalar or one
    per step."""
    dist = np.maximum(w + a, 0.0)
    p = _exp_neg(-2.0 * dist[:, :-1] * dist[:, 1:] / var_steps)
    np.subtract(1.0, p, out=p)
    return 1.0 - np.prod(p, axis=1)


def one_sided_reference(v, a, var_steps):
    d = v + a
    direct = np.any(d <= 0.0, axis=1)
    d0 = np.maximum(d[:, :-1], 0.0)
    d1 = np.maximum(d[:, 1:], 0.0)
    p = _exp_neg(-2.0 * d0 * d1 / var_steps[None, :])
    surv = np.prod(1.0 - np.where(var_steps[None, :] > 0.0, p, 0.0), axis=1)
    cross = 1.0 - surv
    cross[direct] = 1.0
    return cross


def two_sided_reference(w, a, ds):
    """The two-sided bridge crossing of the former sampled nu_k channel."""
    direct = np.any(np.abs(w) >= a, axis=1)
    up0 = np.maximum(a - w[:, :-1], 0.0)
    up1 = np.maximum(a - w[:, 1:], 0.0)
    dn0 = np.maximum(w[:, :-1] + a, 0.0)
    dn1 = np.maximum(w[:, 1:] + a, 0.0)
    p_cross = np.minimum(_exp_neg(-2.0 * up0 * up1 / ds)
                         + _exp_neg(-2.0 * dn0 * dn1 / ds), 1.0)
    cb = 1.0 - np.prod(1.0 - p_cross, axis=1)
    cb[direct] = 1.0
    return cb


def walk(seed, n_paths, step_drift, step_sd):
    normals = path_normals(seed, 1, 0, n_paths, np.shape(step_sd))
    steps = step_drift - step_sd * normals
    return np.concatenate([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)


class TestBridgeCross:
    @pytest.mark.parametrize("drift, a", [(0.0, 0.3), (4.0, 0.05), (-1.0, 1.0)])
    def test_one_sided_matches_reference(self, drift, a):
        var = np.linspace(0.002, 0.03, 64)
        w = walk(21, 3000, drift * var, np.sqrt(var))
        w_in = w.copy()
        got = bridge_cross(w, var, a)
        assert got.tobytes() == one_sided_reference(w, a, var).tobytes()
        assert np.array_equal(w, w_in)
        assert 0.0 < got.mean() < 1.0

    def test_knot_on_the_barrier_is_a_breach(self):
        w = np.array([[0.0, 0.1, -0.5, 0.0], [0.0, 0.1, 0.5, 0.0], [0.0, 0.1, 0.2, 0.0]])
        assert bridge_cross(w, 1e-6, 0.5).tolist() == [1.0, 0.0, 0.0]
        assert two_sided_reference(w, 0.5, 1e-6).tolist() == [1.0, 1.0, 0.0]

    def test_two_barrier_chances_add_up_to_one(self):
        # one step from 0 to 0: each barrier at distance a is crossed with
        # probability exp(-2 a^2 / var); the reference adds the two, capped at 1
        w = np.zeros((1, 2))
        one = math.exp(-2.0 * 0.5**2)
        assert bridge_cross(w, 1.0, 0.5)[0] == pytest.approx(one, rel=1e-15)
        assert two_sided_reference(w, 0.5, 1.0)[0] == 1.0
        two = 2.0 * math.exp(-2.0 * 1.5**2 / 4.0)
        assert two_sided_reference(w, 1.5, 4.0)[0] == pytest.approx(two, rel=1e-15)


def joint_reference(cfg, k_max, n_paths, seed, n_coarse):
    """The clamped-gather reduction: stop every path at knot min(i, nu)."""
    edges, cov, _ = cx._joint_covariance(cfg, k_max, n_coarse)
    evals, evecs = np.linalg.eigh(cov)
    roots = evecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :]
    thresholds = 2.0 ** -np.arange(1, k_max + 1)
    drift_at = np.stack([cx._comb_drift_integral(cfg, k, edges)
                         for k in range(1, k_max + 1)], axis=1)
    xi = path_normals(seed, 3, 0, n_paths, (n_coarse, k_max))
    # ascending-l sum of the root terms whose column is not identically zero
    dm = np.zeros((n_paths, n_coarse, k_max))
    for k in range(k_max):
        for l in range(k_max):
            if np.any(roots[:, k, l] != 0.0):
                dm[:, :, k] += roots[:, k, l] * xi[:, :, l]
    if cfg.q == 3.0:
        # every cross pair is skipped, so each root row has one non-zero
        # entry and the old einsum increments are these bytes too
        assert np.einsum("ikl,bil->bik", roots, xi).tobytes() == dm.tobytes()
    m = np.concatenate([np.zeros((n_paths, 1, k_max)), np.cumsum(dm, axis=1)], axis=1)
    viol = np.abs(m) > thresholds[None, None, :]
    any_viol = np.any(viol, axis=2)
    nu = np.where(np.any(any_viol, axis=1),
                  np.maximum(np.argmax(any_viol, axis=1) - 1, 0), n_coarse)
    knot = np.minimum(np.arange(n_coarse + 1)[None, :], nu[:, None])
    t_stop = edges[knot]
    y = drift_at[knot, :] - np.take_along_axis(m, knot[:, :, None], axis=1)
    return (nu, ~np.any(viol, axis=1), np.max(np.abs(y - t_stop[:, :, None]), axis=1),
            np.min(np.diff(y, axis=2), axis=1))


def split_runs(monkeypatch, channel):
    """channel() as one block over all paths without map_path_blocks, then
    through it with one worker, with the default pool, and with blocks of
    1 and 7 paths on the default pool."""
    helper = cx.map_path_blocks
    monkeypatch.setattr(cx, "map_path_blocks",
                        lambda draw, fn, n, block: fn(0, n, draw(0, n)))
    want = channel()
    got = []
    with monkeypatch.context() as m:
        m.setattr(cx, "map_path_blocks", helper)
        m.setattr(forward_model, "WORKERS", 1)
        got.append(channel())
    monkeypatch.setattr(cx, "map_path_blocks", helper)
    got.append(channel())
    for size in (1, 7):
        with monkeypatch.context() as m:
            m.setattr(cx, "map_path_blocks", lambda draw, fn, n, block, size=size:
                      helper(draw, fn, n, size))
            got.append(channel())
    return want, got


def joint_stats(joint):
    return (joint.nu_index, joint.nu_k_ok, joint.sup_dist, joint.mono_min)


def same_bytes(got, want):
    return all(g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()
               for g, w in zip(got, want))


class TestJointStatsOffNu:
    @pytest.mark.parametrize("q", [3.0, 10.0])
    @pytest.mark.parametrize("k_max", [1, 2, 3])
    def test_matches_clamped_gather(self, q, k_max):
        cfg = cx.build_thm34(q, 3, 1.0)
        n_paths = 2 * cx._joint_block(k_max, 512) + 37
        joint = cx.thm34_joint_paths(cfg, k_max, n_paths, 12, n_coarse=512)
        want = joint_reference(cfg, k_max, n_paths, 12, 512)
        for g, w in zip(joint_stats(joint), want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        # both stopped and unstopped paths occur
        assert 0 < np.sum(joint.nu_index < 512) < n_paths

    @pytest.mark.parametrize("q", [3.0, 10.0])
    def test_independent_of_the_batch_split(self, monkeypatch, q):
        cfg = cx.build_thm34(q, 3, 1.0)
        n_paths = 2 * cx._joint_block(3, 256) + 37
        want, got = split_runs(monkeypatch, lambda: joint_stats(
            cx.thm34_joint_paths(cfg, 3, n_paths, 21, n_coarse=256)))
        assert 0 < np.sum(want[0] < 256) < n_paths
        for stats in got:
            assert same_bytes(stats, want)

    def test_dropped_cross_column_is_caught(self, monkeypatch):
        # q = 10 sweeps every cross pair, so every root column is live
        cfg = cx.build_thm34(10.0, 3, 1.0)
        want = joint_reference(cfg, 3, 300, 12, 512)
        increments = cx._joint_increments

        def dropped(roots, xi, dm):
            roots = roots.copy()
            roots[:, 0, 2] = 0.0
            increments(roots, xi, dm)

        assert same_bytes(joint_stats(cx.thm34_joint_paths(cfg, 3, 300, 12, 512)), want)
        monkeypatch.setattr(cx, "_joint_increments", dropped)
        assert not same_bytes(joint_stats(cx.thm34_joint_paths(cfg, 3, 300, 12, 512)), want)

    def test_normal_paired_with_wrong_column_is_caught(self, monkeypatch):
        # the same law, so only the pathwise comparison can see it
        cfg = cx.build_thm34(3.0, 3, 1.0)
        want = joint_reference(cfg, 3, 300, 12, 512)

        def mispaired(roots, xi, dm):
            for k in range(roots.shape[1]):
                for l in range(roots.shape[2]):
                    dm[k] += roots[:, k, l] * xi[:, :, k]

        monkeypatch.setattr(cx, "_joint_increments", mispaired)
        assert not same_bytes(joint_stats(cx.thm34_joint_paths(cfg, 3, 300, 12, 512)), want)


class TestJointBlock:
    """Joint-channel blocks are sized by bytes; sizing runs no channel."""

    @pytest.mark.parametrize("k_max", [1, 3])
    @pytest.mark.parametrize("n_coarse", [1, 64, 4096, 65536])
    def test_largest_block_within_the_budget(self, k_max, n_coarse):
        per_path = 8 * k_max * (n_coarse + 1)
        paths = cx._joint_block(k_max, n_coarse)
        assert paths >= 1
        assert paths * per_path <= cx._JOINT_BLOCK_BYTES
        assert (paths + 1) * per_path > cx._JOINT_BLOCK_BYTES

    def test_default_grid_block(self):
        assert cx._joint_block(3, 4096) == 16

    def test_one_path_when_a_path_exceeds_the_budget(self):
        assert 8 * 3 * (10**6 + 1) > cx._JOINT_BLOCK_BYTES
        assert cx._joint_block(3, 10**6) == 1

    def test_channel_peak_is_a_few_blocks(self, monkeypatch):
        # two 16-path blocks in flight and their temporaries; the former
        # fixed 64-path blocks peaked at 24.5 MiB on this run
        monkeypatch.setattr(forward_model, "WORKERS", 2)
        cfg = cx.build_thm34(3.0, 6, 1.0)
        tracemalloc.start()
        try:
            cx.thm34_joint_paths(cfg, 3, 2000, 77, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20


class TestPoolThreads:
    """The Thm 3.4 joint channel draws on the calling thread, works on the
    pool; thm34_checks and the witness run it."""

    @pytest.mark.parametrize("channel", ["joint", "checks"])
    def test_generators_stay_on_the_calling_thread(self, monkeypatch, channel):
        # an unlocked += from two threads could lose counts, so every call
        # must come from one; the exact dip rows add no draws
        monkeypatch.setattr(forward_model, "WORKERS", 2)
        cfg = cx.build_thm34(3.0, 3, 1.0)
        n_paths = 4 * cx._joint_block(3, 64) + 5
        counts, threads = count_normals(monkeypatch)
        if channel == "joint":
            cx.thm34_joint_paths(cfg, 3, n_paths, 8, n_coarse=64)
        else:
            cx.thm34_checks(cfg, n_paths, 64, seed=8)
        assert counts[0] == n_paths * 64 * 3
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("channel, seed", [("joint", 8), ("witness", 8),
                                               ("joint", 2**64), ("witness", 2**64)])
    def test_last_block_failure_reaches_the_caller(self, monkeypatch, channel, seed):
        # a worker fails on the short last block; seed 2**64 puts every
        # path's Philox key past 2**128, so the first draw fails instead
        monkeypatch.setattr(forward_model, "WORKERS", 2)
        cfg = cx.build_thm34(3.0, 3, 1.0)
        n_paths = 4 * cx._joint_block(3, 64) + 5
        threads = []
        work = cx._joint_increments

        def failing_tail(roots, xi, dm):
            if xi.shape[0] == 5:
                threads.append(threading.current_thread())
                raise ValueError("no work for the last 5 paths")
            return work(roots, xi, dm)

        monkeypatch.setattr(cx, "_joint_increments", failing_tail)
        match = ("no work for the last 5 paths" if seed == 8
                 else r"Philox key outside .* paths 0\.\.")
        with pytest.raises(ValueError, match=match):
            if channel == "joint":
                cx.thm34_joint_paths(cfg, 3, n_paths, seed, n_coarse=64)
            else:
                cx.limit_not_solution_witness(cfg, seed, n_paths, n_coarse=64)
        if seed == 8:
            assert len(threads) == 1
            assert threads[0] is not threading.main_thread()
        else:
            assert threads == []


# ---------------------------------------------------------------------------
# Hard and soft rows, and defects the hard rows must catch
# ---------------------------------------------------------------------------

class TestRowHardness:
    def test_only_report_rows_are_soft(self):
        rep31 = cx.thm31_series_report(cx.build_thm31(3.0, 100, 1.0))
        rep33 = cx.simulate_thm33_excursion(cx.build_thm33(3.0, 2, 0.5, 0.5, 8))
        cfg34 = cx.build_thm34(3.0, 3, 1.0)
        rep34 = cx.thm34_checks(cfg34, 200, 256, seed=11)
        wit = cx.limit_not_solution_witness(cfg34, seed=10, n_paths=64, n_coarse=256)
        soft = [r.check for rep in (rep31, rep33, rep34, wit)
                for r in rep.rows if not r.hard]
        assert soft == ["K with q^2 sum >= 10.0/a",
                        "divergence witness: median V at mesh end"]


class TestPassRule:
    def test_only_hard_rows_decide_all_passed(self):
        rep = cx.thm31_series_report(cx.build_thm31(3.0, 100, 1.0))
        assert rep.all_passed
        soft = cx.CheckRow("3.1", "a soft report", 1.0, 0.0, False, hard=False)
        hard = cx.CheckRow("3.1", "a hard check", 1.0, 0.0, False)
        assert dataclasses.replace(rep, rows=rep.rows + (soft,)).all_passed
        assert not dataclasses.replace(rep, rows=rep.rows + (hard,)).all_passed


class TestDefectsAreCaught:
    @pytest.mark.parametrize("n, seed, exact", [(2, 90, 0.1353352832366127),
                                                (3, 91, 0.01831563888873418)],
                             ids=["n2", "n3"])
    def test_dropped_bridge_term_fails_3se_check(self, monkeypatch, n, seed, exact):
        # the check of TestBridgeReference.test_estimate_within_3se_of_the_bracket
        # catches the estimator without its bridge correction, which reads 0
        cfg = cx.build_thm33(3.0, n, 0.5, 0.5, 8)
        rep = cx.simulate_thm33_excursion(cfg)
        assert rep.estimate == rep.dominating_estimate == pytest.approx(exact, rel=1e-12)
        assert within_3se_of_bracket(rep, *bridge_estimate(cfg, 10_000, 64, seed))
        monkeypatch.setattr(sys.modules[__name__], "_exp_neg", np.zeros_like)
        est, se = bridge_estimate(cfg, 10_000, 64, seed)
        assert est == 0.0
        assert not within_3se_of_bracket(rep, est, se)

    @pytest.mark.parametrize("first_term", [0.5, 1.0], ids=["one_sided", "leading"])
    def test_truncated_exit_law_fails_the_series_check(self, monkeypatch, first_term):
        # the check of TestExitLaw.test_matches_eigenfunction_series catches
        # the one-sided law 2 Phi-bar(a / sqrt(S)), half the leading term,
        # and the leading term 4 Phi-bar(a / sqrt(S)) alone
        cfg = cx.build_thm34(3.0, 3, 1.0)
        want = eigenfunction_exit(*dip_time(cfg, 1))
        assert abs(cx.thm34_mc_nu(cfg, 1).value - want) <= 1e-15
        calls = []

        def first_term_only(y):
            calls.append(y)
            return first_term * math.erfc(y) if len(calls) == 1 else 0.0

        monkeypatch.setattr(cx, "math", types.SimpleNamespace(
            sqrt=math.sqrt, erfc=first_term_only))
        row = cx.thm34_mc_nu(cfg, 1)
        assert row.passed
        assert abs(row.value - want) > 1e-15


class TestPathCountGuard:
    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_monte_carlo_entry_points_need_two_paths(self, n_paths):
        cfg34 = cx.build_thm34(3.0, 3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_paths >= 2"):
                cx.thm34_checks(cfg34, n_paths, 256, seed=1)
            with pytest.raises(ValueError, match="n_paths >= 2"):
                cx.limit_not_solution_witness(cfg34, seed=1, n_paths=n_paths)

    def test_grid_needs_a_step(self):
        cfg34 = cx.build_thm34(3.0, 3, 1.0)
        with pytest.raises(ValueError, match="n_steps >= 1"):
            cx.thm34_checks(cfg34, 10, 0, seed=1)
        for n_coarse in (0, -1):
            with pytest.raises(ValueError, match="n_coarse >= 1"):
                cx.thm34_joint_paths(cfg34, 3, 10, 1, n_coarse=n_coarse)
            with pytest.raises(ValueError, match="n_coarse >= 1"):
                cx.limit_not_solution_witness(cfg34, seed=1, n_paths=10,
                                              n_coarse=n_coarse)
        with pytest.raises(ValueError, match="k_max >= 1"):
            cx.thm34_joint_paths(cfg34, 0, 10, 1, n_coarse=64)
