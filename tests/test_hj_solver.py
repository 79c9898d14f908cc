import csv

import numpy as np
import pytest

from superbsde import hj_solver
from superbsde._kernels import ImplicitDiffusion
from superbsde.errors import NotGaussianError, ResolutionError
from superbsde.forward_model import ForwardModel, LinearDrift, ZeroDrift
from superbsde.generators import PowerGenerator, QuadraticGenerator
from superbsde.hj_solver import (GridSpec, cole_hopf_reference, solve,
                                 solve_regularized_family)
from superbsde.terminal_data import TerminalCondition


def bm_model(T=1.0, sigma=1.0):
    return ForwardModel(ZeroDrift(), sigma, T)


GRID = GridSpec(n_x=401, dt=5e-3, x_lo=-8.0, x_hi=8.0)


class TestBasics:
    def test_constant_terminal_is_exact(self):
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert np.max(np.abs(sol.u - 0.7)) <= 1e-12
        assert np.max(np.abs(sol.z)) == 0.0

    def test_terminal_layer_imposed_exactly(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert np.array_equal(sol.u[0], np.asarray(tc(sol.x_grid)))

    def test_grid_orientation(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert sol.t_grid[0] == 1.0 and sol.t_grid[-1] == 0.0

    def test_maximum_principle(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert sol.u.max() <= 1.0 + 1e-9
        assert sol.u.min() >= 0.0 - 1e-9

    def test_n_x_validated(self):
        tc = TerminalCondition.analytic("cos")
        with pytest.raises(ValueError):
            solve(bm_model(), PowerGenerator(3.0), tc, GridSpec(n_x=32), 0.0)

    def test_substep_ceiling(self):
        # step data is not Lipschitz: the clamp grows like tau^{-1/2}, so
        # the hyperbolic CFL bound needs several substeps on the first level
        tc = TerminalCondition.step(0.0, -1.0, 1.0)
        free = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert free.substeps[1] > 1
        tight = GridSpec(n_x=401, dt=5e-3, x_lo=-8, x_hi=8, max_substeps=1)
        with pytest.raises(ResolutionError):
            solve(bm_model(), PowerGenerator(3.0), tc, tight, 0.0)

    def test_cfl_defect_raises_instead_of_nan(self, monkeypatch):
        # twice the hyperbolic CFL bound breaks monotonicity and the step
        # data blows up; solve must name the level, not return NaNs
        monkeypatch.setattr(hj_solver, "CFL_SAFETY", 2.0)
        tc = TerminalCondition.step(0.0, -1.0, 1.0)
        with np.errstate(all="ignore"), \
                pytest.raises(ResolutionError, match="non-finite solution at level"):
            solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)


def _dense_implicit_diffusion(n, c):
    """I - c D2 with ghost nodes copying the edge values."""
    a = np.diag(np.full(n, 1.0 + 2.0 * c))
    a[0, 0] = a[-1, -1] = 1.0 + c
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = -c
    return a


class TestImplicitDiffusion:
    @pytest.mark.parametrize("n", [64, 128, 801, 1601])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        solver = ImplicitDiffusion(n)
        for c in (0.3, 20.0, 1e4):
            a = _dense_implicit_diffusion(n, c)
            rhs = 10.0 * rng.standard_normal((3, n))
            tol = 1e-12 * (1.0 + np.max(np.abs(rhs)))
            stacked = solver(rhs, c)
            assert stacked.shape == rhs.shape
            assert np.max(np.abs(stacked @ a.T - rhs)) <= tol
            row = solver(rhs[1], c)
            assert row.shape == (n,)
            assert np.max(np.abs(a @ row - rhs[1])) <= tol

    @pytest.mark.parametrize("c", [0.3, 20.0, 1e4])
    def test_zero_rhs_gives_exact_zeros(self, c):
        solver = ImplicitDiffusion(801)
        assert not np.any(solver(np.zeros(801), c))
        assert not np.any(solver(np.zeros((2, 801)), c))

    def test_input_not_modified(self):
        rhs = np.linspace(-1.0, 1.0, 64)
        keep = rhs.copy()
        ImplicitDiffusion(64)(rhs, 5.0)
        assert np.array_equal(rhs, keep)


class TestColeHopf:
    def test_constant(self):
        tc = TerminalCondition.analytic("const", amplitude=0.3)
        val = cole_hopf_reference(bm_model(), QuadraticGenerator(0.5), tc, 0.0, 0.0)
        assert val == pytest.approx(0.3, abs=1e-12)

    def test_quadrature_vs_monte_carlo(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        model = bm_model()
        gen = QuadraticGenerator(0.5)
        val = cole_hopf_reference(model, gen, tc, 0.0, 0.0)
        rng = np.random.default_rng(123)
        samples = np.exp(-np.asarray(tc(rng.standard_normal(1_000_000))))
        mc = -np.log(samples.mean())
        se = samples.std(ddof=1) / np.sqrt(samples.size) / samples.mean()
        assert abs(val - mc) <= 3.0 * se

    def test_short_horizon_degenerates_to_phi(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        val = cole_hopf_reference(ForwardModel(ZeroDrift(), 1.0, 1e-12),
                                  QuadraticGenerator(0.5), tc, 0.0, 0.7)
        assert val == pytest.approx(tc(0.7), abs=1e-6)

    def test_general_gamma_scaling(self):
        # d(2 gamma u)/... : u_gamma(t,x) from the transform must solve the
        # gamma-quadratic equation; check against a fine PDE solve
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        model = bm_model()
        gen = QuadraticGenerator(1.0)
        sol = solve(model, gen, tc, GridSpec(n_x=801, dt=2e-3, x_lo=-8, x_hi=8), 0.0)
        xs = sol.x_grid[np.abs(sol.x_grid) <= 2.0]
        ref = cole_hopf_reference(model, gen, tc, 0.0, xs)
        num = sol.u[-1][np.abs(sol.x_grid) <= 2.0]
        assert np.max(np.abs(num - ref)) <= 2e-3

    def test_drift_rejected(self):
        tc = TerminalCondition.analytic("cos")
        with pytest.raises(NotGaussianError):
            cole_hopf_reference(ForwardModel(LinearDrift(0.1), 1.0, 1.0),
                                QuadraticGenerator(0.5), tc, 0.0, 0.0)

    def test_agreement_on_pde_solution(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        model = bm_model()
        gen = QuadraticGenerator(0.5)
        sol = solve(model, gen, tc, GRID, 0.0)
        xs = sol.x_grid[np.abs(sol.x_grid) <= 3.0]
        ref = cole_hopf_reference(model, gen, tc, 0.0, xs)
        num = sol.u[-1][np.abs(sol.x_grid) <= 3.0]
        assert np.max(np.abs(num - ref)) <= 5e-3


class TestSelfConvergence:
    def test_superquadratic_refinement(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        gen = PowerGenerator(3.0)
        sols = [solve(bm_model(), gen, tc,
                      GridSpec(n_x=n, dt=2e-3, x_lo=-8, x_hi=8), 0.0)
                for n in (201, 401, 801)]
        d01 = np.max(np.abs(sols[0].u[-1] - sols[1].u[-1][::2]))
        d12 = np.max(np.abs(sols[1].u[-1] - sols[2].u[-1][::2]))
        assert d01 / d12 >= 1.7


class TestZField:
    def test_constant_zero(self):
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert np.max(np.abs(sol.z)) == 0.0

    def test_terminal_layer_derivative(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        interior = slice(1, -1)
        expected = 0.5 * np.sin(sol.x_grid[interior])  # -phi_x * sigma
        assert np.max(np.abs(sol.z[0][interior] - expected)) <= sol.dx**2

    def test_even_symmetry_forces_zero_at_origin(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        mid = np.argmin(np.abs(sol.x_grid))
        assert np.max(np.abs(sol.z[:, mid])) <= 1e-8

    def test_even_symmetry_preserved(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert np.max(np.abs(sol.u - sol.u[:, ::-1])) <= 1e-10


class TestSchemeProperties:
    def _random_tabulated_pair(self, rng):
        xs = np.linspace(-10.0, 10.0, 41)
        base = rng.uniform(-0.5, 0.5, xs.size)
        gap = rng.uniform(0.0, 0.3, xs.size)
        lo = TerminalCondition.tabulated(xs, base)
        hi = TerminalCondition.tabulated(xs, base + gap)
        return lo, hi

    def test_comparison_principle(self):
        rng = np.random.default_rng(21)
        gen = PowerGenerator(3.0)
        for _ in range(5):
            lo, hi = self._random_tabulated_pair(rng)
            env_sup = max(lo.sup_norm, hi.sup_norm)
            env_lip = max(lo.regularity.L, hi.regularity.L)
            s_lo = solve(bm_model(), gen, lo, GRID, 0.0,
                         envelope_sup_norm=env_sup, envelope_lipschitz=env_lip)
            s_hi = solve(bm_model(), gen, hi, GRID, 0.0,
                         envelope_sup_norm=env_sup, envelope_lipschitz=env_lip)
            assert np.all(s_lo.u <= s_hi.u + 1e-10)

    def test_translation_exact(self):
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        up = tc.shifted(0.25)
        base = solve(bm_model(), gen, tc, GRID, 0.0,
                     envelope_sup_norm=1.0, envelope_lipschitz=0.5)
        shifted = solve(bm_model(), gen, up, GRID, 0.0,
                        envelope_sup_norm=1.0, envelope_lipschitz=0.5)
        assert np.max(np.abs(shifted.u - base.u - 0.25)) <= 1e-12

    def test_lipschitz_cap_inactive_for_smooth_data(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert not sol.cap_active.any()

    def test_domain_warning_on_tiny_domain(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        tiny = GridSpec(n_x=64, dt=5e-3, x_lo=-1.0, x_hi=1.0)
        with pytest.warns(UserWarning, match="domain too small"):
            sol = solve(bm_model(), PowerGenerator(3.0), tc, tiny, 0.0,
                        domain_check=True)
        assert sol.domain_warning


class TestRegularizedFamily:
    def test_constant_profile_ladder_identical(self):
        tc = TerminalCondition.analytic("const", amplitude=0.4)
        sols = solve_regularized_family(bm_model(), PowerGenerator(3.0), tc,
                                        [2.0, 4.0], "lower", GRID, 0.0)
        assert np.max(np.abs(sols[0].u - sols[1].u)) <= 1e-12

    def test_step_lower_ladder_monotone(self):
        tc = TerminalCondition.step(0.0, 0.0, 1.0)
        sols = solve_regularized_family(bm_model(), PowerGenerator(3.0), tc,
                                        [2.0, 4.0, 8.0], "lower", GRID, 0.0)
        vals = [s.u_at(0.0, 0.0) for s in sols]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12

    def test_squeeze_shrinks_for_continuous_phi(self):
        tc = TerminalCondition.analytic("inv_quad", amplitude=1.0)
        ms = [2.0, 8.0, 32.0]
        lower = solve_regularized_family(bm_model(), PowerGenerator(3.0), tc,
                                         ms, "lower", GRID, 0.0)
        upper = solve_regularized_family(bm_model(), PowerGenerator(3.0), tc,
                                         ms, "upper", GRID, 0.0)
        gaps = [u.u_at(0.0, 0.0) - l.u_at(0.0, 0.0)
                for u, l in zip(upper, lower)]
        assert gaps[0] >= gaps[1] - 1e-12 >= gaps[2] - 2e-12
        assert gaps[-1] <= 2.0 * (2.0 * tc.sup_norm * tc.regularity.L / ms[-1])

    def test_unsorted_m_list_rejected(self):
        tc = TerminalCondition.analytic("cos")
        with pytest.raises(ValueError):
            solve_regularized_family(bm_model(), PowerGenerator(3.0), tc,
                                     [4.0, 2.0], "lower", GRID, 0.0)


class TestExport:
    def test_solution_csv(self, tmp_path):
        # non-constant data, so that u and z carry full-precision floats
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc,
                    GridSpec(n_x=64, dt=0.25, x_lo=-4, x_hi=4), 0.0)
        path = tmp_path / "solution.csv"
        sol.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,u,z,cap_active"
        assert len(lines) == 1 + sol.t_grid.size * sol.x_grid.size
        # every field parses as a number and round-trips the arrays exactly
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([[float(v) for v in row] for row in rows])
        shape = sol.u.shape
        assert np.array_equal(vals[:, 0].reshape(shape),
                              np.repeat(sol.t_grid[:, None], shape[1], axis=1))
        assert np.array_equal(vals[:, 1].reshape(shape),
                              np.broadcast_to(sol.x_grid, shape))
        assert np.array_equal(vals[:, 2].reshape(shape), sol.u)
        assert np.array_equal(vals[:, 3].reshape(shape), sol.z)
        assert np.array_equal(vals[:, 4].reshape(shape)[:, 0], sol.cap_active)
