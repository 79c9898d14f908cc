import csv
import math
import random
import threading
import time
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from superbsde import forward_model
from superbsde.dual_mc import ConstantControl
from superbsde.errors import SimulationDivergedError
from superbsde.forward_model import (Drift, ForwardModel, LinearDrift, PathBundle,
                                     TanhDrift, ZeroDrift, path_normals, simulate_paths)


def model_bm(sigma=1.0, T=1.0):
    return ForwardModel(ZeroDrift(), sigma, T)


class TestSimulate:
    def test_driftless_terminal_law(self):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 100_000, 50, seed=1)
        xT = bundle.x_paths[:, -1]
        se = xT.std(ddof=1) / np.sqrt(xT.size)
        assert abs(xT.mean()) <= 4.0 * se
        assert xT.var() == pytest.approx(1.0, rel=0.02)

    def test_constant_tilt_shifts_mean(self):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 100_000, 50, seed=3,
                                tilt=ConstantControl(2.0))
        xT = bundle.x_paths[:, -1]
        se = xT.std(ddof=1) / np.sqrt(xT.size)
        assert abs(xT.mean() - 2.0) <= 4.0 * se

    def test_initial_value_exact(self):
        bundle = simulate_paths(model_bm(), 1.25, 0.0, 16, 8, seed=4)
        assert np.all(bundle.x_paths[:, 0] == 1.25)

    def test_divergence_reported_with_step(self):
        # explosive custom drift forces non-finite state quickly
        class CubicDrift(Drift):
            def __call__(self, t, x):
                return np.asarray(x, dtype=float) ** 3 * 1e6

            def sup_dx(self):
                return np.inf

        model = ForwardModel(CubicDrift(), 1.0, 1.0)
        with pytest.raises(SimulationDivergedError):
            simulate_paths(model, 5.0, 0.0, 4, 64, seed=6)

    def test_reproducible_bit_identical(self):
        model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
        b1 = simulate_paths(model, 0.0, 0.0, 128, 32, seed=7)
        b2 = simulate_paths(model, 0.0, 0.0, 128, 32, seed=7)
        assert np.array_equal(b1.x_paths, b2.x_paths)
        assert np.array_equal(b1.noise, b2.noise)
        b3 = simulate_paths(model, 0.0, 0.0, 128, 32, seed=8)
        assert not np.array_equal(b1.x_paths, b3.x_paths)

    def test_bundle_dt_is_the_simulated_step(self):
        # times[1] - times[0] rounds differently: 0.007000000000000006 here
        model = model_bm()
        bundle = simulate_paths(model, 0.0, 0.3, 4, 100, seed=3)
        assert bundle.dt == forward_model.time_step(model, 0.3, 100)
        assert bundle.dt != float(bundle.times[1] - bundle.times[0])

    def test_weak_euler_first_order(self):
        model = ForwardModel(LinearDrift(1.0), 1.0, 1.0)
        errs = []
        for n_steps in (10, 20, 40):
            bundle = simulate_paths(model, 1.0, 0.0, 200_000, n_steps, seed=9)
            errs.append(abs(bundle.x_paths[:, -1].mean() - math.e))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 0.9 and order2 >= 0.9


class TestPathNormals:
    @pytest.mark.parametrize("salt", [0, 1, 3, 11])
    @pytest.mark.parametrize("shape", [(), (7,), (5, 3)])
    @pytest.mark.parametrize("start", [0, 4])
    def test_rows_match_reference_streams(self, salt, shape, start):
        seed, stop = 123, start + 6
        got = path_normals(seed, salt, start, stop, shape)
        assert got.shape == (stop - start, *shape)
        for i, p in enumerate(range(start, stop)):
            key = (seed << 64) + (salt << 48) + p
            want = Generator(Philox(key=key)).standard_normal(shape)
            assert np.array_equal(got[i], want), (salt, shape, p)

    def test_reads_no_os_entropy(self, monkeypatch):
        shape = (5, 3)
        want = [Generator(Philox(key=(9 << 64) + (3 << 48) + p)).standard_normal(shape)
                for p in range(2, 6)]

        def no_entropy(n):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr(random, "_urandom", no_entropy)
        with pytest.raises(AssertionError, match="OS entropy"):
            Philox(key=1)  # the patch reaches a seedless construction
        got = path_normals(9, 3, 2, 6, shape)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_split_invariance(self):
        whole = path_normals(17, 3, 0, 40, (6, 2))
        for a, b in ((0, 1), (5, 23), (23, 40), (39, 40)):
            assert np.array_equal(whole[a:b], path_normals(17, 3, a, b, (6, 2)))

    def test_bundle_prefix(self):
        model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
        small = simulate_paths(model, 0.0, 0.0, 300, 16, seed=12)
        large = simulate_paths(model, 0.0, 0.0, 1000, 16, seed=12)
        assert np.array_equal(small.noise, large.noise[:300])
        assert np.array_equal(small.x_paths, large.x_paths[:300])

    def test_one_philox_per_bundle(self, monkeypatch):
        made = []

        def counting_philox(*args, **kwargs):
            made.append(1)
            return Philox(*args, **kwargs)

        monkeypatch.setattr(forward_model, "Philox", counting_philox)
        simulate_paths(model_bm(), 0.0, 0.0, 1000, 8, seed=13)
        assert len(made) <= 1

    @pytest.mark.parametrize("seed,salt,start,stop", [
        (-1, 0, 0, 3),                                 # first key < 0
        (2**64 - 1, 2**16 - 1, 2**48 - 2, 2**48 + 1),  # last key = 2**128
    ])
    def test_key_out_of_range(self, seed, salt, start, stop):
        with pytest.raises(ValueError, match="outside"):
            path_normals(seed, salt, start, stop, (2,))


class TestModel:
    @pytest.mark.parametrize("sigma, horizon", [(np.inf, 1.0), (np.nan, 1.0),
                                                (0.0, 1.0), (1.0, np.inf),
                                                (1.0, np.nan), (1.0, -1.0)])
    def test_sigma_and_horizon_must_be_finite_and_positive(self, sigma, horizon):
        with pytest.raises(ValueError, match="finite and positive"):
            ForwardModel(ZeroDrift(), sigma, horizon)


class TestMapPathBlocks:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n_paths, block", [(1, 4), (10, 1), (10, 3), (10, 10),
                                                (10, 64)])
    def test_each_block_once_in_its_own_slice(self, monkeypatch, workers,
                                              n_paths, block):
        monkeypatch.setattr(forward_model, "WORKERS", workers)
        drawn, seen = [], []
        out = np.full(n_paths, -1)

        def draw(start, stop):
            drawn.append((start, stop, threading.current_thread()))
            return np.arange(start, stop)

        def fn(start, stop, rows):
            seen.append((start, stop))
            out[start:stop] = rows

        forward_model.map_path_blocks(draw, fn, n_paths, block)
        want = [(s, min(s + block, n_paths)) for s in range(0, n_paths, block)]
        main = threading.current_thread()
        assert drawn == [(start, stop, main) for start, stop in want]
        assert sorted(seen) == want
        if workers == 1:
            assert seen == want
        assert np.array_equal(out, np.arange(n_paths))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [0, -3])
    def test_block_below_one_is_refused(self, monkeypatch, workers, block):
        monkeypatch.setattr(forward_model, "WORKERS", workers)
        calls = []
        with pytest.raises(ValueError, match="block >= 1"):
            forward_model.map_path_blocks(lambda start, stop: calls.append(start),
                                          lambda start, stop, rows: calls.append(stop),
                                          10, block)
        assert calls == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_at_most_workers_blocks_in_flight(self, monkeypatch, workers):
        monkeypatch.setattr(forward_model, "WORKERS", workers)
        lock = threading.Lock()
        in_flight, peak = [0], [0]

        def draw(start, stop):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])

        def fn(start, stop, rows):
            time.sleep(0.01)
            with lock:
                in_flight[0] -= 1

        forward_model.map_path_blocks(draw, fn, 12, 1)
        assert peak[0] == workers
        assert in_flight[0] == 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_failing_block_is_raised_after_all_finish(self, monkeypatch,
                                                            workers):
        monkeypatch.setattr(forward_model, "WORKERS", workers)
        done = []

        def fn(start, stop, rows):
            if start in (4, 8):
                raise ValueError(f"block {start}")
            done.append(start)

        with pytest.raises(ValueError, match="block 4"):
            forward_model.map_path_blocks(lambda start, stop: None, fn, 10, 2)
        # the pool waits for every block; inline runs stop at the failure
        assert sorted(done) == ([0, 2] if workers == 1 else [0, 2, 6])

    def test_failing_draw_is_raised_after_started_blocks_finish(self, monkeypatch):
        monkeypatch.setattr(forward_model, "WORKERS", 2)
        done = []

        def draw(start, stop):
            if start == 4:
                raise ValueError("no normals")

        def fn(start, stop, rows):
            time.sleep(0.02)
            done.append(start)

        with pytest.raises(ValueError, match="no normals"):
            forward_model.map_path_blocks(draw, fn, 10, 2)
        assert sorted(done) == [0, 2]


def drift_dx(drift, x):
    """b_x of the three drift kinds, in closed form."""
    if isinstance(drift, LinearDrift):
        return np.full_like(x, drift.beta)
    if isinstance(drift, TanhDrift):
        return drift.scale * (1.0 - np.tanh(x) ** 2)
    return np.zeros_like(x)


class TestCompat:
    """|b_x| <= lambda holds by construction: lambda = sup_dx() bounds b_x."""

    @pytest.mark.parametrize("drift", [ZeroDrift(), LinearDrift(0.3), LinearDrift(-0.3),
                                       TanhDrift(0.4), TanhDrift(-0.4)],
                             ids=["zero", "linear+", "linear-", "tanh+", "tanh-"])
    def test_sup_dx_bounds_dx_on_dense_grid(self, drift):
        model = ForwardModel(drift, 1.0, 1.0)
        x = np.linspace(-20.0, 20.0, 4001)
        # the closed form agrees with central differences of the drift itself
        h = 1e-6
        slope = (drift(0.5, x + h) - drift(0.5, x - h)) / (2.0 * h)
        assert np.allclose(slope, drift_dx(drift, x), rtol=0.0, atol=1e-8)
        measured = np.max(np.abs(drift_dx(drift, x)))
        assert model.lam == drift.sup_dx()
        assert measured <= model.lam
        # the bound is the sup, not just a bound: every kind attains it
        # (tanh at x = 0, which the grid contains)
        assert measured == model.lam

    def test_drift_without_sup_dx_refused(self):
        class Sine(Drift):
            def __call__(self, t, x):
                return np.sin(np.asarray(x, dtype=float))

        with pytest.raises(NotImplementedError):
            ForwardModel(Sine(), 1.0, 1.0)


def _reference_paths_csv(bundle, path):
    """The row-by-row writer `PathBundle.to_csv` replaced: one f-string and
    one write per (path, step)."""
    times = bundle.times.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("path,t,x,dB\n")
        for p in range(bundle.x_paths.shape[0]):
            dbs = [0.0] + bundle.noise[p].tolist()
            for t, x, db in zip(times, bundle.x_paths[p].tolist(), dbs):
                fh.write(f"{p},{t!r},{x!r},{db!r}\n")


class TestExport:
    @staticmethod
    def _same_bytes(bundle, tmp_path):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        bundle.to_csv(new)
        _reference_paths_csv(bundle, ref)
        assert new.read_bytes() == ref.read_bytes()
        return new.read_text()

    @pytest.mark.parametrize("n_steps", [1, 2, 40])
    def test_csv_bytes_match_the_row_writer(self, tmp_path, n_steps):
        model = ForwardModel(TanhDrift(0.8), 0.7, 1.0)
        bundle = simulate_paths(model, 0.3, 0.0, 12, n_steps, seed=4)
        text = self._same_bytes(bundle, tmp_path)
        assert len(text.splitlines()) == 1 + 12 * (n_steps + 1)

    def test_csv_bytes_with_exponents_and_signed_zeros(self, tmp_path):
        bundle = PathBundle(times=np.array([0.0, 1e-05, 2e-05]),
                            x_paths=np.array([[-0.0, 1e-300, -1e+16],
                                              [0.1, -1e-05, 5e-324]]),
                            noise=np.array([[-0.0, 1e-07], [3e-05, -2.0 / 3.0]]),
                            seed=0, x0=0.0, t0=0.0, dt=1e-05)
        text = self._same_bytes(bundle, tmp_path)
        for token in ("0,0.0,-0.0,0.0\n", "1e-05", "5e-324", "-1e+16", ",-0.0\n"):
            assert token in text

    def test_csv_dump(self, tmp_path):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 3, 4, seed=10)
        path = tmp_path / "paths.csv"
        bundle.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "path,t,x,dB"
        assert len(lines) == 1 + 3 * 5
        # every field parses as a number and round-trips the arrays exactly
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([[float(v) for v in row] for row in rows]).reshape(3, 5, 4)
        assert np.array_equal(vals[..., 0], np.repeat(np.arange(3.0)[:, None], 5, axis=1))
        assert np.array_equal(vals[..., 1], np.broadcast_to(bundle.times, (3, 5)))
        assert np.array_equal(vals[..., 2], bundle.x_paths)
        assert np.array_equal(vals[:, 0, 3], np.zeros(3))
        assert np.array_equal(vals[:, 1:, 3], bundle.noise)


class TestEulerGaussianLaw:
    @staticmethod
    def recursion(model, x0, dt, q):
        """Mean and variance of X_{k+1} = X_k + (b(X_k) + sigma q_k) dt +
        sigma dB_k, one step at a time, for a drift b(x) = beta x."""
        beta = 0.0 if model.drift.zero else model.drift.beta
        mean, var = x0, 0.0
        for qk in q:
            mean = mean + (beta * mean + model.sigma * qk) * dt
            var = (1.0 + beta * dt) ** 2 * var + model.sigma**2 * dt
        return mean, var

    @pytest.mark.parametrize("drift", [ZeroDrift(), LinearDrift(0.8), LinearDrift(-1.3)],
                             ids=["zero", "linear+", "linear-"])
    def test_matches_the_step_recursion(self, drift):
        model = ForwardModel(drift, 0.7, 1.5)
        q = np.linspace(-1.0, 2.0, 60)
        dt = forward_model.time_step(model, 0.25, q.size)
        mean, var = forward_model.euler_gaussian_law(model, 0.4, dt, q)
        want = self.recursion(model, 0.4, dt, q)
        assert mean == pytest.approx(want[0], rel=1e-13)
        assert var == pytest.approx(want[1], rel=1e-13)

    def test_zero_drift_closed_form(self):
        model = ForwardModel(ZeroDrift(), 0.7, 1.5)
        q = np.full(40, 0.5)
        dt = forward_model.time_step(model, 0.0, 40)
        mean, var = forward_model.euler_gaussian_law(model, 0.4, dt, q)
        assert mean == pytest.approx(0.4 + 0.7 * 0.5 * 1.5, rel=1e-14)
        assert var == pytest.approx(0.7**2 * 1.5, rel=1e-14)

    def test_none_for_a_nonlinear_drift_or_an_overflow(self):
        q = np.zeros(10)
        assert forward_model.euler_gaussian_law(
            ForwardModel(TanhDrift(0.4), 1.0, 1.0), 0.0, 0.1, q) is None
        # a = 1 + 1e300 * 0.1: the variance overflows, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert forward_model.euler_gaussian_law(
                ForwardModel(LinearDrift(1e300), 1.0, 1.0), 0.0, 0.1, q) is None
