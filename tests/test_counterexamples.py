import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest
from numpy.random import Generator
from scipy.special import zeta

from superbsde import _kernels, forward_model
from superbsde import counterexamples as cx
from superbsde.errors import RangeOverflowError, ResolutionError
from superbsde.forward_model import path_normals


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
        assert [r.passed for r in rep.rows
                if r.check == "divergence witness: median V at mesh end"] == [True]
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
        assert [r.check for r in wit.rows] == ["sup |Y^3 - t^nu| <= 10*2^-3 on good paths"]

    def test_nu_row_independent_of_the_split(self, monkeypatch):
        cfg = cx.build_thm34(3.0, 3, 1.0)
        n_paths = 2 * cx._NU_BATCH + 37
        want, got = split_runs(monkeypatch,
                               lambda: cx.thm34_mc_nu(cfg, 1, n_paths, seed=8))
        assert 0.0 < want[1] < 1.0
        for row_est_se in got:
            assert row_est_se == want

    def test_reproducible(self):
        cfg = cx.build_thm34(3.0, 3, 1.0)
        r1 = cx.thm34_checks(cfg, 500, 512, seed=11)
        r2 = cx.thm34_checks(cfg, 500, 512, seed=11)
        assert r1.rows == r2.rows


# ---------------------------------------------------------------------------
# The bridge-crossing kernel and the nu-stopped statistics against copies of
# the two earlier implementations, bit for bit
# ---------------------------------------------------------------------------

def one_sided_reference(v, a, var_steps):
    d = v + a
    direct = np.any(d <= 0.0, axis=1)
    d0 = np.maximum(d[:, :-1], 0.0)
    d1 = np.maximum(d[:, 1:], 0.0)
    p = cx._exp_neg(-2.0 * d0 * d1 / var_steps[None, :])
    surv = np.prod(1.0 - np.where(var_steps[None, :] > 0.0, p, 0.0), axis=1)
    cross = 1.0 - surv
    cross[direct] = 1.0
    return cross


def two_sided_reference(w, a, ds):
    direct = np.any(np.abs(w) >= a, axis=1)
    up0 = np.maximum(a - w[:, :-1], 0.0)
    up1 = np.maximum(a - w[:, 1:], 0.0)
    dn0 = np.maximum(w[:, :-1] + a, 0.0)
    dn1 = np.maximum(w[:, 1:] + a, 0.0)
    p_cross = np.minimum(cx._exp_neg(-2.0 * up0 * up1 / ds)
                         + cx._exp_neg(-2.0 * dn0 * dn1 / ds), 1.0)
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
        got = cx._bridge_cross(w, var, a)
        assert got.tobytes() == one_sided_reference(w, a, var).tobytes()
        assert np.array_equal(w, w_in)
        assert 0.0 < got.mean() < 1.0

    @pytest.mark.parametrize("a", [0.2, 0.4, 0.6])
    def test_two_sided_matches_reference(self, a):
        ds = 1.0 / 2048 / 16
        w = walk(22, 1500, 0.0, np.full(2048, np.sqrt(ds)))
        got = cx._bridge_cross(w, ds, a, two_sided=True)
        assert got.tobytes() == two_sided_reference(w, a, ds).tobytes()
        assert 0.0 < got.mean() < 1.0

    def test_knot_on_the_barrier_is_a_breach(self):
        w = np.array([[0.0, 0.1, -0.5, 0.0], [0.0, 0.1, 0.5, 0.0], [0.0, 0.1, 0.2, 0.0]])
        one = cx._bridge_cross(w, 1e-6, 0.5)
        two = cx._bridge_cross(w, 1e-6, 0.5, two_sided=True)
        assert one.tolist() == [1.0, 0.0, 0.0]
        assert two.tolist() == [1.0, 1.0, 0.0]

    def test_two_barrier_chances_add_up_to_one(self):
        # one step from 0 to 0: each barrier at distance a is crossed with
        # probability exp(-2 a^2 / var)
        w = np.zeros((1, 2))
        one = math.exp(-2.0 * 0.5**2)
        assert cx._bridge_cross(w, 1.0, 0.5)[0] == pytest.approx(one, rel=1e-15)
        assert cx._bridge_cross(w, 1.0, 0.5, two_sided=True)[0] == 1.0
        two = 2.0 * math.exp(-2.0 * 1.5**2 / 4.0)
        assert cx._bridge_cross(w, 4.0, 1.5, two_sided=True)[0] == pytest.approx(two, rel=1e-15)


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
        n_paths = 2 * cx._JOINT_BATCH + 37
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
        n_paths = 2 * cx._JOINT_BATCH + 37
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


class TestPoolThreads:
    """The Thm 3.4 channels draw on the calling thread, work on the pool."""

    @pytest.mark.parametrize("channel", ["nu", "joint"])
    def test_generators_stay_on_the_calling_thread(self, monkeypatch, channel):
        # a counting wrapper like the benchmark tracer's: an unlocked += from
        # two threads could lose counts, so every call must come from one
        monkeypatch.setattr(forward_model, "WORKERS", 2)
        cfg = cx.build_thm34(3.0, 3, 1.0)
        n_paths = 4 * cx._JOINT_BATCH + 5
        threads, counts = set(), [0]

        class CountingGenerator(Generator):
            def standard_normal(self, *args, **kwargs):
                threads.add(threading.current_thread())
                out = super().standard_normal(*args, **kwargs)
                counts[0] += int(np.size(kwargs["out"]))
                return out

        monkeypatch.setattr(forward_model, "Generator", CountingGenerator)
        if channel == "nu":
            cx.thm34_mc_nu(cfg, 1, n_paths, seed=8)
            assert counts[0] == n_paths * cx._NU_GRID
        else:
            cx.thm34_joint_paths(cfg, 3, n_paths, 8, n_coarse=64)
            assert counts[0] == n_paths * 64 * 3
        assert threads == {threading.current_thread()}

    @pytest.mark.parametrize("channel, seed", [("nu", 8), ("joint", 8),
                                               ("nu", 2**64), ("joint", 2**64)])
    def test_last_block_failure_reaches_the_caller(self, monkeypatch, channel, seed):
        # a worker fails on the short last block; seed 2**64 puts every
        # path's Philox key past 2**128, so the first draw fails instead
        monkeypatch.setattr(forward_model, "WORKERS", 2)
        cfg = cx.build_thm34(3.0, 3, 1.0)
        n_paths = 4 * cx._JOINT_BATCH + 5
        threads = []
        name = "_bridge_cross" if channel == "nu" else "_joint_increments"
        work = getattr(cx, name)

        def failing_tail(*args, **kwargs):
            rows = args[0] if channel == "nu" else args[1]
            if rows.shape[0] == 5:
                threads.append(threading.current_thread())
                raise ValueError("no work for the last 5 paths")
            return work(*args, **kwargs)

        monkeypatch.setattr(cx, name, failing_tail)
        match = ("no work for the last 5 paths" if seed == 8
                 else r"Philox key outside .* paths 0\.\.")
        with pytest.raises(ValueError, match=match):
            if channel == "nu":
                cx.thm34_mc_nu(cfg, 1, n_paths, seed=seed)
            else:
                cx.thm34_joint_paths(cfg, 3, n_paths, seed, n_coarse=64)
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
        rep33 = cx.simulate_thm33_excursion(cx.build_thm33(3.0, 2, 0.5, 0.5, 8),
                                            500, 64, seed=7)
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
                                                (3, 91, 0.01831563888873418)])
    def test_dropped_bridge_term_fails_dominating_row(self, monkeypatch, n, seed, exact):
        cfg = cx.build_thm33(3.0, n, 0.5, 0.5, 8)
        row = "dominating channel within 3SE of reflection value"
        rep = cx.simulate_thm33_excursion(cfg, 10_000, 64, seed=seed)
        assert [r.passed for r in rep.rows if r.check == row] == [True]
        monkeypatch.setattr(cx, "_exp_neg", np.zeros_like)
        rep = cx.simulate_thm33_excursion(cfg, 10_000, 64, seed=seed)
        assert rep.dominating_exact == pytest.approx(exact, rel=1e-12)
        assert rep.dominating_estimate == 0.0
        assert [r.passed for r in rep.rows if r.check == row] == [False]

    def test_one_sided_nu_channel_misses_the_floor(self, monkeypatch):
        # the k=1 floor of TestThm34Checks.test_full_report_q3 catches a
        # nu_k channel that watches only the lower barrier
        cfg = cx.build_thm34(3.0, 4, 1.0)
        _, est, _ = cx.thm34_mc_nu(cfg, 1, 2000, seed=8)
        assert est >= 0.05
        bridge = cx._bridge_cross
        monkeypatch.setattr(cx, "_bridge_cross",
                            lambda w, var, a, two_sided=False: bridge(w, var, a))
        _, est, _ = cx.thm34_mc_nu(cfg, 1, 2000, seed=8)
        assert est < 0.05


class TestPathCountGuard:
    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_monte_carlo_entry_points_need_two_paths(self, n_paths):
        cfg33 = cx.build_thm33(3.0, 2, 0.5, 0.5, 8)
        cfg34 = cx.build_thm34(3.0, 3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_paths >= 2"):
                cx.simulate_thm33_excursion(cfg33, n_paths, 64, seed=1)
            with pytest.raises(ValueError, match="n_paths >= 2"):
                cx.thm34_checks(cfg34, n_paths, 256, seed=1)
            with pytest.raises(ValueError, match="n_paths >= 2"):
                cx.thm34_mc_nu(cfg34, 1, n_paths, seed=1)
            with pytest.raises(ValueError, match="n_paths >= 2"):
                cx.limit_not_solution_witness(cfg34, seed=1, n_paths=n_paths)
