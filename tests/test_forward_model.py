import csv
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from superbsde import forward_model
from superbsde.dual_mc import ConstantControl
from superbsde.errors import NotGaussianError, SimulationDivergedError
from superbsde.forward_model import (CustomDrift, ForwardModel, LinearDrift,
                                     TanhDrift, ZeroDrift, check_compat_417,
                                     gaussian_terminal_law, path_normals,
                                     simulate_paths)


def model_bm(sigma=1.0, T=1.0):
    return ForwardModel(ZeroDrift(), sigma, T)


class TestSimulate:
    def test_driftless_terminal_law(self):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 100_000, 50, seed=1)
        xT = bundle.x_paths[:, -1]
        se = xT.std(ddof=1) / np.sqrt(xT.size)
        assert abs(xT.mean()) <= 4.0 * se
        assert xT.var() == pytest.approx(1.0, rel=0.02)

    def test_exact_flow_for_linear_drift(self):
        model = ForwardModel(LinearDrift(0.3), 1.0, 1.0)
        bundle = simulate_paths(model, 0.5, 0.0, 64, 32, seed=2)
        assert np.allclose(bundle.flow_paths[:, -1], math.exp(0.3), rtol=1e-12)

    def test_constant_tilt_shifts_mean(self):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 100_000, 50, seed=3,
                                tilt=ConstantControl(2.0))
        xT = bundle.x_paths[:, -1]
        se = xT.std(ddof=1) / np.sqrt(xT.size)
        assert abs(xT.mean() - 2.0) <= 4.0 * se

    def test_initial_value_exact(self):
        bundle = simulate_paths(model_bm(), 1.25, 0.0, 16, 8, seed=4)
        assert np.all(bundle.x_paths[:, 0] == 1.25)

    def test_flow_positive_and_bounded(self):
        model = ForwardModel(TanhDrift(0.4), 1.0, 1.0)
        bundle = simulate_paths(model, 0.0, 0.0, 256, 64, seed=5)
        assert np.all(bundle.flow_paths > 0.0)
        cap = math.exp(model.b_x_bound * model.horizon)
        assert np.all(bundle.flow_paths <= cap * (1 + 1e-12))
        assert np.all(bundle.flow_paths >= (1 + 1e-12) ** -1 / cap)

    def test_divergence_reported_with_step(self):
        # explosive custom drift forces non-finite state quickly
        drift = CustomDrift(lambda t, x: x**3 * 1e6, lambda t, x: 3e6 * x**2)
        model = ForwardModel(drift, 1.0, 1.0, b_x_bound=np.inf)
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


class TestCompat:
    def test_zero_drift_passes_lambda_zero(self):
        rep = check_compat_417(model_bm(), 64)
        assert rep.passed and rep.lam == 0.0

    def test_linear_drift_minimal_lambda(self):
        model = ForwardModel(LinearDrift(0.3), 1.0, 1.0)
        rep = check_compat_417(model, 64)
        assert rep.lam == pytest.approx(0.3)
        assert rep.passed

    def test_sin_drift_fails_small_lambda(self):
        drift = CustomDrift(lambda t, x: np.sin(x), lambda t, x: np.cos(x))
        model = ForwardModel(drift, 1.0, 1.0, b_x_bound=1.0, lam=0.5)
        rep = check_compat_417(model, 512)
        assert not rep.passed
        assert rep.measured_sup > 0.5


class TestGaussianLaw:
    def test_unit(self):
        assert gaussian_terminal_law(model_bm(), 0.0, 0.0) == (0.0, 1.0)

    def test_scaled(self):
        model = ForwardModel(ZeroDrift(), 2.0, 1.0)
        mean, var = gaussian_terminal_law(model, 3.0, 0.75)
        assert (mean, var) == (3.0, pytest.approx(1.0))

    def test_drift_rejected(self):
        model = ForwardModel(LinearDrift(1.0), 1.0, 1.0)
        with pytest.raises(NotGaussianError):
            gaussian_terminal_law(model, 0.0, 0.0)


class TestExport:
    def test_csv_dump(self, tmp_path):
        bundle = simulate_paths(model_bm(), 0.0, 0.0, 3, 4, seed=10)
        path = tmp_path / "paths.csv"
        bundle.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "path,t,x,flow,dB"
        assert len(lines) == 1 + 3 * 5
        # every field parses as a number and round-trips the arrays exactly
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([[float(v) for v in row] for row in rows]).reshape(3, 5, 5)
        assert np.array_equal(vals[..., 0], np.repeat(np.arange(3.0)[:, None], 5, axis=1))
        assert np.array_equal(vals[..., 1], np.broadcast_to(bundle.times, (3, 5)))
        assert np.array_equal(vals[..., 2], bundle.x_paths)
        assert np.array_equal(vals[..., 3], bundle.flow_paths)
        assert np.array_equal(vals[:, 0, 4], np.zeros(3))
        assert np.array_equal(vals[:, 1:, 4], bundle.noise)
