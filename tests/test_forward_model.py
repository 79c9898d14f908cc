import csv
import math
import random
import threading
import warnings

import numpy as np
import pytest
from numpy.random import Generator, Philox

from superbsde import _kernels, forward_model
from superbsde.dual_mc import ConstantControl
from superbsde.errors import SimulationDivergedError
from superbsde.forward_model import (Drift, ForwardModel, LinearDrift, PathBundle,
                                     TanhDrift, ZeroDrift, path_normals, simulate_paths)


def model_bm(sigma=1.0, T=1.0):
    return ForwardModel(ZeroDrift(), sigma, T)


class TestSimulate:
    def test_driftless_terminal_law(self):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 100_000, 50, seed=1)
        xT = bundle.knots()[:, -1]
        se = xT.std(ddof=1) / np.sqrt(xT.size)
        assert abs(xT.mean()) <= 4.0 * se
        assert xT.var() == pytest.approx(1.0, rel=0.02)

    def test_constant_tilt_shifts_mean(self):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 100_000, 50, seed=3,
                                tilt=ConstantControl(2.0))
        xT = bundle.knots()[:, -1]
        se = xT.std(ddof=1) / np.sqrt(xT.size)
        assert abs(xT.mean() - 2.0) <= 4.0 * se

    def test_initial_value_exact(self):
        bundle = simulate_paths(model_bm(), 1.25, 0.0, 16, 8, seed=4)
        assert np.all(bundle.knots()[:, 0] == 1.25)

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
        assert np.array_equal(b1.knots(), b2.knots())
        assert np.array_equal(b1.increments(), b2.increments())
        b3 = simulate_paths(model, 0.0, 0.0, 128, 32, seed=8)
        assert not np.array_equal(b1.knots(), b3.knots())

    @pytest.mark.parametrize("tilt", [None, ConstantControl(0.7)],
                             ids=["untilted", "tilted"])
    def test_bundle_stores_its_seed_and_replays_knots(self, tilt):
        # the bundle stores no array; a block's increments are those
        # paths' draw and its knots the rows of one Euler loop over every
        # path
        model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
        bundle = simulate_paths(model, 0.2, 0.1, 300, 16, seed=12, tilt=tilt)
        assert not [v for v in vars(bundle).values() if isinstance(v, np.ndarray)]
        dw = forward_model.draw_increments(12, 300, 16, bundle.dt)
        assert np.array_equal(bundle.increments(), dw)
        assert np.array_equal(bundle.increments(7, 250),
                              forward_model.draw_increments(12, 243, 16, bundle.dt, start=7))
        control = None
        if tilt is not None:
            def control(k, x):
                return tilt.rate(0.1 + k * bundle.dt, x), None
        _, _, whole, _ = _kernels.em_paths(0.2, 0.1, bundle.dt, dw, 1.0,
                                           model.drift, store=True, control=control)
        assert np.array_equal(bundle.knots(), whole)
        assert np.array_equal(bundle.knots(7, 250), whole[7:250])
        assert np.array_equal(bundle.knots(7, 250, dw=dw[:, 7:250]), whole[7:250])
        # paths outside the bundle are not drawn
        for start, stop in ((250, 301), (-1, 3), (5, 4)):
            with pytest.raises(ValueError, match="bundle of 300"):
                bundle.knots(start, stop)

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
            errs.append(abs(bundle.knots()[:, -1].mean() - math.e))
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

    def test_fills_a_reused_buffer(self):
        whole = path_normals(17, 3, 0, 40, (6, 2))
        buf = np.full((40, 6, 2), np.nan)
        for a, b in ((0, 16), (16, 32), (32, 40)):
            got = path_normals(17, 3, a, b, (6, 2), out=buf[:b - a])
            assert np.shares_memory(got, buf)
            assert np.array_equal(buf[:b - a], whole[a:b])

    @pytest.mark.parametrize("out", [np.empty((4, 6, 3)), np.empty((4, 6)),
                                     np.empty((4, 6, 2), dtype=np.float32),
                                     np.empty((4, 2, 6)).transpose(0, 2, 1),
                                     np.empty((8, 6, 2))[::2]],
                             ids=["shape", "rank", "dtype", "transposed", "strided"])
    def test_unusable_buffer_is_refused(self, out):
        # a non-contiguous buffer would be filled through a copy and stay empty
        with pytest.raises(ValueError, match="C-contiguous float64"):
            path_normals(17, 3, 0, 4, (6, 2), out=out)

    def test_bundle_prefix(self):
        model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
        small = simulate_paths(model, 0.0, 0.0, 300, 16, seed=12)
        large = simulate_paths(model, 0.0, 0.0, 1000, 16, seed=12)
        assert np.array_equal(small.increments(), large.increments(0, 300))
        assert np.array_equal(small.knots(), large.knots()[:300])

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


class TestDrawIncrements:
    @pytest.mark.parametrize("scratch", [1, 7, 300], ids=["1", "7", "all"])
    def test_step_major_fill_is_the_scaled_path_draw(self, monkeypatch, scratch):
        # the floats of the path-major draw, scaled in place
        want = path_normals(5, 0, 40, 340, (9,))
        want *= np.sqrt(0.01)
        monkeypatch.setattr(forward_model, "SCRATCH_PATHS", scratch)
        assert np.array_equal(forward_model.draw_increments(5, 300, 9, 0.01, start=40),
                              want.T)
        buf = np.full((9, 400), np.nan)
        got = forward_model.draw_increments(5, 300, 9, 0.01, start=40,
                                            out=buf[:, :300])
        assert np.shares_memory(got, buf)
        assert np.array_equal(buf[:, :300], want.T)
        assert np.isnan(buf[:, 300:]).all()

    def test_one_philox_per_fill(self, monkeypatch):
        made = []

        def counting_philox(*args, **kwargs):
            made.append(1)
            return Philox(*args, **kwargs)

        monkeypatch.setattr(forward_model, "Philox", counting_philox)
        monkeypatch.setattr(forward_model, "SCRATCH_PATHS", 7)
        forward_model.draw_increments(5, 300, 9, 0.01, out=np.empty((9, 300)))
        assert len(made) == 1

    @pytest.mark.parametrize("out", [np.empty((300, 9)),
                                     np.empty((9, 300), dtype=np.float32)],
                             ids=["path_major", "dtype"])
    def test_unusable_out_is_refused(self, out):
        with pytest.raises(ValueError, match=r"float64 array of shape \(9, 300\)"):
            forward_model.draw_increments(5, 300, 9, 0.01, out=out)


class TestModel:
    @pytest.mark.parametrize("sigma, horizon", [(np.inf, 1.0), (np.nan, 1.0),
                                                (0.0, 1.0), (1.0, np.inf),
                                                (1.0, np.nan), (1.0, -1.0)])
    def test_sigma_and_horizon_must_be_finite_and_positive(self, sigma, horizon):
        with pytest.raises(ValueError, match="finite and positive"):
            ForwardModel(ZeroDrift(), sigma, horizon)


class TestMapPathBlocks:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("n_paths, block", [(1, 4), (10, 1), (10, 3), (10, 10),
                                                (10, 64)])
    def test_each_block_once_in_its_own_slice(self, width, n_paths, block):
        events = []
        out = np.full((n_paths, width), -1)

        def draw(start, stop):
            events.append(("draw", start, stop, threading.current_thread()))
            return np.repeat(np.arange(start, stop)[:, None], width, axis=1)

        def fn(start, stop, rows):
            events.append(("fn", start, stop, threading.current_thread()))
            out[start:stop] = rows

        forward_model.map_path_blocks(draw, fn, n_paths, block)
        want = [(s, min(s + block, n_paths)) for s in range(0, n_paths, block)]
        main = threading.current_thread()
        # each block is done before the next is drawn, so a draw may reuse
        # one buffer for every block
        assert events == [(kind, start, stop, main) for start, stop in want
                          for kind in ("draw", "fn")]
        assert np.array_equal(out, np.repeat(np.arange(n_paths)[:, None], width,
                                             axis=1))

    @pytest.mark.parametrize("n_paths", [1, 2])
    @pytest.mark.parametrize("block", [0, -3])
    def test_block_below_one_is_refused(self, n_paths, block):
        calls = []
        with pytest.raises(ValueError, match="block >= 1"):
            forward_model.map_path_blocks(lambda start, stop: calls.append(start),
                                          lambda start, stop, rows: calls.append(stop),
                                          n_paths, block)
        assert calls == []

    @pytest.mark.parametrize("block", [1, 2])
    def test_first_failing_block_is_raised_after_all_finish(self, block):
        done = []

        def fn(start, stop, rows):
            if start in (4, 8):
                raise ValueError(f"block {start}")
            done.append(start)

        with pytest.raises(ValueError, match="block 4"):
            forward_model.map_path_blocks(lambda start, stop: None, fn, 10, block)
        # the blocks before the failure are done; none after it is run
        assert done == list(range(0, 4, block))

    def test_failing_draw_is_raised_after_started_blocks_finish(self):
        drawn, done = [], []

        def draw(start, stop):
            drawn.append(start)
            if start == 4:
                raise ValueError("no normals")

        def fn(start, stop, rows):
            done.append(start)

        with pytest.raises(ValueError, match="no normals"):
            forward_model.map_path_blocks(draw, fn, 10, 2)
        assert drawn == [0, 2, 4]
        assert done == [0, 2]


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
        knots = bundle.knots()
        for p in range(knots.shape[0]):
            dbs = [0.0] + bundle.increments(p, p + 1)[:, 0].tolist()
            for t, x, db in zip(times, knots[p].tolist(), dbs):
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

    def test_csv_bytes_with_exponents_and_signed_zeros(self, tmp_path, monkeypatch):
        # the knots are replayed from x0 = -0.0 and the increments, which a
        # patched draw supplies
        noise = np.array([[-0.0, 1e-300], [5e-324, -1e+16]])

        def draw(seed, n_paths, n_steps, dt, start=0, out=None):
            if out is None:
                out = np.empty((n_steps, n_paths))
            out[...] = noise[start:start + n_paths].T
            return out

        monkeypatch.setattr(forward_model, "draw_increments", draw)
        bundle = PathBundle(n_paths=2, n_steps=2, seed=0, x0=-0.0, t0=0.0, dt=1e-05,
                            model=model_bm())
        text = self._same_bytes(bundle, tmp_path)
        for token in ("0,0.0,-0.0,0.0\n", "0,1e-05,0.0,-0.0\n", "1e-05", "1e-300",
                      "1,1e-05,5e-324,5e-324\n", "-1e+16"):
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
        assert np.array_equal(vals[..., 2], bundle.knots())
        assert np.array_equal(vals[:, 0, 3], np.zeros(3))
        assert np.array_equal(vals[:, 1:, 3], bundle.increments().T)


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
