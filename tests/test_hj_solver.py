import csv
import tracemalloc

import numpy as np
import pytest

from superbsde import hj_solver
from superbsde._kernels import ImplicitDiffusion
from superbsde.errors import NotGaussianError, ResolutionError
from superbsde.forward_model import ForwardModel, LinearDrift, TanhDrift, ZeroDrift
from superbsde.generators import PowerGenerator, QuadraticGenerator
from superbsde.hj_solver import (GridSpec, cole_hopf_reference, solve,
                                 solve_regularized_family)
from superbsde.terminal_data import TerminalCondition


def bm_model(T=1.0, sigma=1.0):
    return ForwardModel(ZeroDrift(), sigma, T)


GRID = GridSpec(n_x=401, dt=5e-3, x_lo=-8.0, x_hi=8.0)
# the A10 spike (slope 50)
SPIKE = TerminalCondition.tabulated([-8.0, -0.02, 0.0, 0.02, 8.0],
                                    [0.0, 0.0, 1.0, 0.0, 0.0])


class InfiniteSlope(PowerGenerator):
    """A power generator whose dissipation is infinite everywhere."""

    def hp(self, r):
        return np.full_like(np.asarray(r, dtype=float), np.inf)


class TestBasics:
    def test_constant_terminal_is_exact(self):
        tc = TerminalCondition.analytic("const", amplitude=0.7)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert np.max(np.abs(sol.u - 0.7)) <= 1e-12
        assert np.max(np.abs(sol.z_rows(slice(None)))) == 0.0

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

    @pytest.mark.parametrize("grid, t0, match", [
        (GRID, 1.0, "t0 < T"),
        (GRID, 2.0, "t0 < T"),
        (GridSpec(n_x=401, dt=5e-3, x_lo=1.0, x_hi=-1.0), 0.0, "x_lo < x_hi"),
        (GridSpec(n_x=401, dt=5e-3, x_lo=1.0, x_hi=1.0), 0.0, "x_lo < x_hi"),
        (GridSpec(n_x=401, dt=5e-3, x_lo=0.5), 0.0, "both"),
        (GridSpec(n_x=401, dt=5e-3, x_hi=0.5), 0.0, "both"),
        (GridSpec(n_x=401, dt=5e-3, pad=-50.0), 0.0, "x_lo < x_hi"),
    ], ids=["t0_at_T", "t0_past_T", "x_lo_above_x_hi", "empty_domain",
            "x_lo_alone", "x_hi_alone", "negative_default_radius"])
    def test_grid_inputs_validated(self, grid, t0, match):
        tc = TerminalCondition.analytic("cos")
        with pytest.raises(ValueError, match=match):
            hj_solver._grid_arrays(bm_model(), grid, t0)
        with pytest.raises(ValueError, match=match):
            solve(bm_model(), PowerGenerator(3.0), tc, grid, t0)

    def test_substep_ceiling(self, monkeypatch):
        # step data is not Lipschitz: the clamp grows like tau^{-1/2}, so
        # the hyperbolic CFL bound needs several substeps on the first level
        tc = TerminalCondition.step(0.0, -1.0, 1.0)
        free = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert free.substeps[1] > 1
        monkeypatch.setattr(hj_solver, "MAX_SUBSTEPS", 1)
        with pytest.raises(ResolutionError, match="CFL substep ceiling 1 exceeded"):
            solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)

    def test_cfl_defect_raises_instead_of_nan(self, monkeypatch):
        # twice the hyperbolic CFL bound breaks monotonicity and the step
        # data blows up; solve must name the level, not return NaNs
        monkeypatch.setattr(hj_solver, "CFL_SAFETY", 2.0)
        tc = TerminalCondition.step(0.0, -1.0, 1.0)
        with np.errstate(all="ignore"), \
                pytest.raises(ResolutionError, match="non-finite solution at level"):
            solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)

    def test_non_finite_theta_raises(self):
        # a finite state whose dissipation is not: the level must not be
        # accepted unchanged with zero substeps
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        with pytest.raises(ResolutionError, match=r"theta at level 1 \("):
            solve(bm_model(), InfiniteSlope(3.0), tc, GRID, 0.0)


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

    # c on both sides of ImplicitDiffusion._REFINE_ABOVE = 100
    STACK_CS = (0.158, 2.5, 200.0, 1e4)

    @pytest.mark.parametrize("rows", [1, 4, 9])
    @pytest.mark.parametrize("c", STACK_CS)
    def test_stack_equals_rows_bit_for_bit(self, rows, c):
        n = 801
        rhs = _signed_zero_stack(rows, n)
        solver = ImplicitDiffusion(n)
        assert _same_bits(solver(rhs, c), [ImplicitDiffusion(n)(row, c) for row in rhs])
        # one instance alternating stack and row calls, and the bare sweep
        assert _same_bits(solver._sweep(rhs), [solver._sweep(row) for row in rhs])
        assert _same_bits(solver(rhs, c), [solver(row, c) for row in rhs])

    @pytest.mark.parametrize("c", STACK_CS)
    def test_non_finite_row_stays_in_its_row(self, c):
        n = 801
        rhs = _signed_zero_stack(4, n)
        rhs[2, 400] = np.inf
        with np.errstate(all="ignore"):
            whole = ImplicitDiffusion(n)(rhs, c)
        keep = [0, 1, 3]
        assert _same_bits(whole[keep], [ImplicitDiffusion(n)(rhs[i], c) for i in keep])

    @pytest.mark.parametrize("fill", [0.0, 0.5], ids=["zero_padded", "not_zeroed"])
    def test_row_boundary_products_kept_fail(self, monkeypatch, fill):
        """Defect: w_flat padded with `fill` across row boundaries and the
        products there kept instead of replaced by -0.0.  Zero padding
        alone turns the -0.0 row behind a positive row into +0.0."""
        real = ImplicitDiffusion._plan

        def leaky(self, rows):
            work, inv_d, forward, backward = real(self, rows)
            n = self.n
            ws = []
            for shift, w in self._levels:
                w_flat = np.full(rows * n, fill)
                w_flat.reshape(rows, n)[:, :n - shift] = w
                ws.append(w_flat[:-shift])
            return (work, inv_d,
                    [(w, *views[1:4], None) for w, views in zip(ws, forward)],
                    [(w, *views[1:4], None) for w, views in zip(ws, backward)])

        monkeypatch.setattr(ImplicitDiffusion, "_plan", leaky)
        n = 801
        rhs = _signed_zero_stack(4, n)
        assert not _same_bits(ImplicitDiffusion(n)(rhs, 2.5),
                              [ImplicitDiffusion(n)(row, 2.5) for row in rhs])


def _signed_zero_stack(rows, n):
    """Seeded rows; from four rows on, a positive row is followed by a
    -0.0 row, an all +0.0 row and a row of mixed signed zeros, and from
    nine rows on, a row ending in -0.0 precedes a positive row."""
    rng = np.random.default_rng(rows)
    rhs = rng.standard_normal((rows, n))
    if rows >= 4:
        rhs[0] = np.abs(rhs[0])
        rhs[1] = -0.0
        rhs[2] = 0.0
        rhs[3] = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
    if rows >= 9:
        rhs[5, :50] = -0.0
        rhs[6, -50:] = -0.0
        rhs[7] = np.abs(rhs[7])
    return rhs


def _same_bits(a, rows):
    """a equals the stacked rows bit for bit, signed zeros included."""
    b = np.asarray(rows, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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

    def test_shared_rule_gives_the_bits_of_the_old_constants(self):
        # A2's case on |x| <= 3; the rule, loaded at the first quadrature
        # and shared with dual_mc, divides by math.sqrt(2 pi) where the old
        # import-time constants divided by np.sqrt(2 pi)
        from numpy.polynomial.hermite_e import hermegauss

        from superbsde import dual_mc
        nodes, weights = hermegauss(64)
        weights = weights / np.sqrt(2.0 * np.pi)
        tc, gamma = TerminalCondition.analytic("inv_quad", amplitude=1.0), 0.5
        xs = np.linspace(-3.0, 3.0, 601)
        pts = xs[:, None] + 1.0 * np.sqrt(1.0) * nodes  # sigma sqrt(T - t)
        vals = np.exp(-2.0 * gamma * np.asarray(tc(pts), dtype=float))
        want = -np.log(vals @ weights) / (2.0 * gamma)
        got = cole_hopf_reference(bm_model(), QuadraticGenerator(gamma), tc, 0.0, xs)
        assert _same_bits(got, want)
        assert dual_mc._gauss_hermite_rule is hj_solver._gauss_hermite_rule

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
        assert np.max(np.abs(sol.z_rows(slice(None)))) == 0.0

    def test_terminal_layer_derivative(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        interior = slice(1, -1)
        expected = 0.5 * np.sin(sol.x_grid[interior])  # -phi_x * sigma
        assert np.max(np.abs(sol.z_rows(0)[interior] - expected)) <= sol.dx**2

    def test_even_symmetry_forces_zero_at_origin(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        mid = np.argmin(np.abs(sol.x_grid))
        assert np.max(np.abs(sol.z_rows(slice(None))[:, mid])) <= 1e-8

    def test_even_symmetry_preserved(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert np.max(np.abs(sol.u - sol.u[:, ::-1])) <= 1e-10

    @pytest.mark.parametrize("t", [0.0, 0.4137, 1.0])
    def test_scalar_t_lookup_matches_2d_gather(self, t):
        """A scalar t reads two rows; the values must equal the full
        2-D gather of the bilinear formula bit for bit."""
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        x = np.concatenate([np.linspace(-9.0, 9.0, 1001), sol.x_grid[::7]])
        t_asc, x_grid = sol.t_grid[::-1], sol.x_grid
        ft = (np.asarray(t) - t_asc[0]) / (t_asc[1] - t_asc[0])
        it = np.clip(ft.astype(int), 0, t_asc.size - 2)
        lt = np.clip(ft - it, 0.0, 1.0)
        fx = (x - x_grid[0]) / sol.dx
        ix = np.clip(fx.astype(int), 0, x_grid.size - 2)
        lx = np.clip(fx - ix, 0.0, 1.0)
        for mat, lookup in ((sol.z_rows(slice(None)), sol.z_at), (sol.u, sol.u_at)):
            m = mat[::-1]
            expected = ((1.0 - lt) * ((1.0 - lx) * m[it, ix] + lx * m[it, ix + 1])
                        + lt * ((1.0 - lx) * m[it + 1, ix] + lx * m[it + 1, ix + 1]))
            assert np.array_equal(lookup(t, x), expected)
            assert lookup(t, x[5]) == expected[5]
        # an array t still broadcasts against x
        ts = np.full_like(x, t)
        assert np.array_equal(sol.z_at(ts, x), sol.z_at(t, x))


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
            s_lo, s_hi = solve(bm_model(), gen, [lo, hi], GRID, 0.0).members()
            assert np.all(s_lo.u <= s_hi.u + 1e-10)

    def test_translation_exact(self):
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        up = tc.shifted(0.25)
        base, shifted = solve(bm_model(), gen, [tc, up], GRID, 0.0).members()
        assert np.max(np.abs(shifted.u - base.u - 0.25)) <= 1e-12

    def test_lipschitz_cap_inactive_for_smooth_data(self):
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert not sol.cap_active.any()


class TestStackedSolve:
    @pytest.mark.parametrize("tc", [TerminalCondition.analytic("cos", amplitude=0.5),
                                    TerminalCondition.step(0.0, 0.0, 1.0)],
                             ids=["cos", "step"])
    def test_one_member_stack_is_the_single_solve(self, tc):
        single = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        stack = solve(bm_model(), PowerGenerator(3.0), [tc], GRID, 0.0)
        assert stack.u.shape == (single.t_grid.size, 1, single.x_grid.size)
        assert stack.substeps.shape == stack.cap_active.shape == (single.t_grid.size, 1)
        (member,) = stack.members()
        for field in ("u", "cap_active", "substeps"):
            assert np.array_equal(getattr(member, field), getattr(single, field))
        assert np.array_equal(member.z_rows(slice(None)), single.z_rows(slice(None)))
        assert member.tc is tc

    def test_members_are_views_sharing_one_schedule(self):
        tcs = [TerminalCondition.analytic("cos", amplitude=0.5),
               TerminalCondition.step(0.0, 0.0, 1.0)]
        stack = solve(bm_model(), PowerGenerator(3.0), tcs, GRID, 0.0)
        members = stack.members()
        for i, member in enumerate(members):
            assert np.shares_memory(member.u, stack.u)
            assert np.array_equal(member.u, stack.u[:, i])
            assert member.tc is tcs[i]
        assert np.array_equal(members[0].substeps, members[1].substeps)
        # the step member sets every substep size, and the stack's clamp is
        # the step's own (the larger sup norm, no Lipschitz bound), so it
        # reads as it does alone
        alone = solve(bm_model(), PowerGenerator(3.0), tcs[1], GRID, 0.0)
        for field in ("u", "cap_active", "substeps"):
            assert np.array_equal(getattr(members[1], field), getattr(alone, field))
        assert np.array_equal(members[1].z_rows(slice(None)), alone.z_rows(slice(None)))

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            solve(bm_model(), PowerGenerator(3.0), [], GRID, 0.0)

    @staticmethod
    def two_cos_stack():
        tcs = [TerminalCondition.analytic("cos", amplitude=0.5),
               TerminalCondition.analytic("cos", amplitude=0.25)]
        return solve(bm_model(), PowerGenerator(3.0), tcs,
                     GridSpec(n_x=64, dt=0.25, x_lo=-4.0, x_hi=4.0), 0.0)

    @pytest.mark.parametrize("x", [0.0, -4.0])
    def test_u_at_rejects_a_stack(self, x):
        with pytest.raises(ValueError, match=r"split a stacked solution with members\(\)"):
            self.two_cos_stack().u_at(0.0, x)

    @pytest.mark.parametrize("x", [0.0, -4.0])
    def test_z_at_rejects_a_stack(self, x):
        with pytest.raises(ValueError, match=r"split a stacked solution with members\(\)"):
            self.two_cos_stack().z_at(0.0, x)

    def test_to_csv_rejects_a_stack(self, tmp_path):
        path = tmp_path / "solution.csv"
        with pytest.raises(ValueError, match=r"split a stacked solution with members\(\)"):
            self.two_cos_stack().to_csv(path)
        assert not path.exists()

    def test_to_npy_rejects_a_stack(self, tmp_path):
        path = tmp_path / "solution.npy"
        with pytest.raises(ValueError, match=r"split a stacked solution with members\(\)"):
            self.two_cos_stack().to_npy(path)
        assert not path.exists()


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestLazyZ:
    """A solution stores u only; Z rows are computed from u where they are
    read, and nothing keeps them."""

    @pytest.mark.parametrize("tc", [TerminalCondition.analytic("cos", amplitude=0.5),
                                    TerminalCondition.step(0.0, 0.0, 1.0), SPIKE],
                             ids=["cos", "step", "spike"])
    def test_each_level_is_the_central_difference_of_u(self, tc):
        sol = solve(bm_model(), PowerGenerator(3.0), tc, GRID, 0.0)
        assert "z" not in vars(sol)
        for k in range(sol.t_grid.size):
            row = hj_solver._central_z(sol.u[k], sol.dx, sol.model.sigma)
            assert np.array_equal(_bits(sol.z_rows(k)), _bits(row))
        # any set of levels gives the rows of those levels, computed afresh
        levels = np.array([5, 0, sol.t_grid.size - 1, 17])
        assert np.array_equal(_bits(sol.z_rows(levels)),
                              _bits(np.stack([sol.z_rows(k) for k in levels])))
        assert sol.z_rows(3) is not sol.z_rows(3)
        assert "z" not in vars(sol)

    def test_members_read_the_stack_z(self):
        tcs = [TerminalCondition.analytic("cos", amplitude=0.5),
               TerminalCondition.step(0.0, 0.0, 1.0), SPIKE]
        stack = solve(bm_model(), PowerGenerator(3.0), tcs, GRID, 0.0)
        members = stack.members()
        for k in range(stack.t_grid.size):
            row = hj_solver._central_z(stack.u[k], stack.dx, stack.model.sigma)
            assert np.array_equal(_bits(stack.z_rows(k)), _bits(row))
        for i, member in enumerate(members):
            assert "z" not in vars(member)
            assert np.array_equal(_bits(member.z_rows(slice(None))),
                                  _bits(stack.z_rows(slice(None))[:, i]))

    def test_solve_allocates_u_only(self):
        # 801 x 1001 fits KEEP_FLOATS, so the solve keeps every level: the
        # kept bytes are the whole field, and a Z field stored beside u
        # would read about 2 of them
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        grid = GridSpec(n_x=801, dt=1e-3, x_lo=-8.0, x_hi=8.0)
        tracemalloc.start()
        try:
            sol = solve(bm_model(), PowerGenerator(3.0), tc, grid, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sol.u.nbytes
        assert sol.replay is None and kept == sol.t_grid.size * sol.x_grid.size * 8
        assert peak <= 1.1 * kept
        assert "z" not in vars(sol)

    def test_first_z_read_allocates_z_only(self):
        # the whole field read at once allocates Z only (a temporary the
        # size of u beside it would read about 2), and a lookup computes
        # only the levels it reads: the whole field would read 1 here
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        grid = GridSpec(n_x=801, dt=1e-3, x_lo=-8.0, x_hi=8.0)
        sol = solve(bm_model(), PowerGenerator(3.0), tc, grid, 0.0)
        # every level is kept, so a read gathers from u and replays nothing
        kept = sol.u.nbytes
        assert sol.replay is None and kept == sol.t_grid.size * sol.x_grid.size * 8
        xs = np.linspace(-9.0, 9.0, 1001)
        peaks = []
        for read in (lambda: sol.z_rows(slice(None)), lambda: sol.z_at(0.4137, xs)):
            tracemalloc.start()
            try:
                read()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 * kept
        assert peaks[1] <= 0.05 * kept


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
        assert gaps[-1] <= 2.0 * (2.0 * tc.sup_norm * tc.lipschitz / ms[-1])

    @pytest.mark.parametrize("grid", [GridSpec(n_x=801, dt=2e-3, x_lo=-8.0, x_hi=8.0),
                                      GridSpec(n_x=401, dt=5e-3, x_lo=-8.0, x_hi=8.0)],
                             ids=["801x2e-3", "401x5e-3"])
    def test_spike_ladders_ordered_at_every_node(self, grid):
        # members stepped in lockstep keep the order of their terminal data
        # at every node of every level
        ms = [2.0, 4.0, 8.0, 16.0]
        lower = solve_regularized_family(bm_model(), PowerGenerator(3.0), SPIKE,
                                         ms, "lower", grid, 0.0)
        upper = solve_regularized_family(bm_model(), PowerGenerator(3.0), SPIKE,
                                         ms, "upper", grid, 0.0)
        for a, b in zip(lower, lower[1:]):
            assert np.max(a.u - b.u) <= 1e-14
        for a, b in zip(upper, upper[1:]):
            assert np.max(b.u - a.u) <= 1e-14

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
        assert np.array_equal(vals[:, 3].reshape(shape), sol.z_rows(slice(None)))
        assert np.array_equal(vals[:, 4].reshape(shape)[:, 0], sol.cap_active)

    @pytest.mark.parametrize("keep", [hj_solver.KEEP_FLOATS, 0], ids=["kept", "checkpointed"])
    def test_solution_npy(self, tmp_path, monkeypatch, keep):
        # u as np.save writes it, bit for bit, whether the solve kept every
        # level or replays them from checkpoints; its ravel is the u column
        # of the long CSV
        monkeypatch.setattr(hj_solver, "KEEP_FLOATS", keep)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(bm_model(), PowerGenerator(3.0), tc,
                    GridSpec(n_x=64, dt=0.05, x_lo=-4, x_hi=4), 0.0)
        assert (sol.replay is None) == (keep > 0)
        path, ref = tmp_path / "solution.npy", tmp_path / "ref.npy"
        sol.to_npy(path)
        u = np.load(path)
        assert u.dtype == np.dtype("<f8") and u.shape == (sol.t_grid.size, sol.x_grid.size)
        want = sol.rows(slice(None))
        assert np.array_equal(u.view(np.int64), want.view(np.int64))
        np.save(ref, want)
        assert path.read_bytes() == ref.read_bytes()
        sol.to_csv(tmp_path / "solution.csv")
        with open(tmp_path / "solution.csv", newline="") as fh:
            column = np.array([float(row["u"]) for row in csv.DictReader(fh)])
        assert np.array_equal(u.ravel().view(np.int64), column.view(np.int64))


_COS = TerminalCondition.analytic("cos", amplitude=0.5)
_STEP = TerminalCondition.step(0.0, -1.0, 1.0)
# 2001 nodes on [-5, 5] at dt 1e-2: c = 0.5 dt / dx^2 = 200, past the
# refinement threshold of ImplicitDiffusion
_FINE = GridSpec(n_x=2001, dt=1e-2, x_lo=-5.0, x_hi=5.0)
# the step's central slope at the jump, 2 / (2 dx) = 50, passes the
# first level's clamp (about 42 at tau = 5e-3)
_CAPPED = GridSpec(n_x=801, dt=5e-3, x_lo=-8.0, x_hi=8.0)


def _reference_solution_csv(sol, path):
    """The row-by-row writer `PdeSolution.to_csv` replaced: one f-string
    and one write per grid node."""
    xs = sol.x_grid.tolist()
    with open(path, "w", newline="") as fh:
        fh.write("t,x,u,z,cap_active\n")
        for k, tk in enumerate(sol.t_grid.tolist()):
            cap = int(sol.cap_active[k])
            z = hj_solver._central_z(sol.u[k], sol.dx, sol.model.sigma)
            for x, u, z in zip(xs, sol.u[k].tolist(), z.tolist()):
                fh.write(f"{tk!r},{x!r},{u!r},{z!r},{cap}\n")


class TestCsvBytes:
    """`PdeSolution.to_csv` writes the bytes of the row-by-row writer (a
    stack still raises, see `TestStackedSolve`)."""

    @staticmethod
    def _same_bytes(sol, tmp_path):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        sol.to_csv(new)
        _reference_solution_csv(sol, ref)
        assert new.read_bytes() == ref.read_bytes()
        return new.read_text()

    def test_capped_level(self, tmp_path):
        sol = solve(bm_model(T=0.05), PowerGenerator(3.0), _STEP, _CAPPED, 0.0)
        assert sol.cap_active.any() and not sol.cap_active.all()
        text = self._same_bytes(sol, tmp_path)
        assert text.count(",1\n") == sol.cap_active.sum() * sol.x_grid.size

    def test_exponents_and_signed_zeros(self, tmp_path):
        # reprs with an exponent, a negative zero and full-length mantissas
        x = np.array([-1e-05, -0.0, 0.0, 1e-05, 2.5e+300, 1.0 / 3.0])
        t = np.array([1e-05, 5e-06, 0.0])
        u = np.array([[-0.0, 1e-300, -1e-05, 0.1, 1e+16, np.pi],
                      [0.0, -0.0, 5e-324, -2.0 / 3.0, 1e22, -1e-07],
                      [1.0, 1.0, 3.0, 4.0, 5.0, 6.0]])
        sol = hj_solver.PdeSolution(x_grid=x, t_grid=t, u=u,
                                    cap_active=np.array([False, True, False]),
                                    substeps=np.ones(3, dtype=np.int64),
                                    model=bm_model(), tc=None)
        # Z is derived from u: a subnormal beside a signed zero, and a
        # negative zero from the flat edge of the last level
        text = self._same_bytes(sol, tmp_path)
        for token in ("1e-05,-0.0,", "5e-324", "1e+16", "2.5e+300",
                      ",-0.0,-2.47033e-319,1\n", ",1.0,-0.0,0\n", "e+26,"):
            assert token in text


def _reference_solve(model, gen, tc, grid, t0):
    """The substep loop as it was before the state moved into its padded
    buffer: fresh arrays for every slope, two abs passes, np.any cap
    tests and the drift terms evaluated even for a zero drift.  It returns
    (u, cap_active, substeps) to compare bit for bit."""
    x, t_desc = hj_solver._grid_arrays(model, grid, t0)
    dx = float(x[1] - x[0])
    dt_base = float(t_desc[0] - t_desc[1])
    stacked = isinstance(tc, (list, tuple))
    stack = tuple(tc) if stacked else (tc,)
    sup_norm = max(phi.sup_norm for phi in stack)
    lips = [phi.lipschitz for phi in stack]
    lip = None if None in lips else max(lips)

    n_t = t_desc.size
    rows = (len(stack),) if stacked else ()
    u = np.empty((n_t, *rows, x.size))
    cap_active = np.zeros((n_t, *rows), dtype=bool)
    substeps = np.zeros((n_t, *rows), dtype=np.int64)
    u[0] = np.reshape([np.asarray(phi(x), dtype=float) for phi in stack], u.shape[1:])

    sig2 = model.sigma * model.sigma
    asig = abs(model.sigma)
    dx2 = dx * dx
    diffusion = ImplicitDiffusion(x.size)
    pad = np.empty(u.shape[1:-1] + (x.size + 2,))

    for k in range(n_t - 1):
        s_src = t_desc[k]
        tau = max(model.horizon - s_src, dt_base)
        pcap = hj_solver._p_cap(model, sup_norm, lip, tau)
        bvals = np.asarray(model.drift(s_src, x), dtype=float)
        babs = np.abs(bvals)
        cur = u[k]
        consumed = 0.0
        nsub = 0
        while consumed < dt_base:
            pad[..., 1:-1] = cur
            pad[..., 0] = cur[..., 0]
            pad[..., -1] = cur[..., -1]
            pp = (pad[..., 2:] - cur) / dx
            pm = (cur - pad[..., :-2]) / dx
            pc = 0.5 * (pp + pm)
            pa = np.abs(pc)
            hit = np.any(pa > pcap, axis=-1)
            if np.any(hit):
                cap_active[k + 1] |= hit
                pa = np.minimum(pa, pcap)
            pl = np.minimum(np.maximum(np.abs(pp), np.abs(pm)), pcap)
            theta = asig * gen.hp(asig * pl) + babs
            theta_max = theta.max()
            if not np.isfinite(theta_max):
                break
            rem = dt_base - consumed
            dtau = rem if theta_max == 0.0 else min(hj_solver.CFL_SAFETY * dx / theta_max, rem)
            ham = gen.h(asig * pa) - pc * bvals
            d2 = (pad[..., 2:] - 2.0 * cur + pad[..., :-2]) / dx2
            inc = dtau * (0.5 * sig2 * d2 - ham + 0.5 * theta * dx * d2)
            cur = cur + diffusion(inc, 0.5 * sig2 * dtau / dx2)
            consumed += dtau
            nsub += 1
            if nsub > hj_solver.MAX_SUBSTEPS:
                raise ResolutionError(
                    f"CFL substep ceiling {hj_solver.MAX_SUBSTEPS} exceeded at level {k}")
        finite = np.all(np.isfinite(cur))
        if not finite or consumed < dt_base:
            what = "dissipation theta" if finite else "solution"
            raise ResolutionError(
                f"non-finite {what} at level {k + 1} (t = {t_desc[k + 1]:.6g})")
        u[k + 1] = cur
        substeps[k + 1] = nsub
    return u, cap_active, substeps


class TestSubstepBits:
    """`solve` gives the floats of the reference loop bit for bit."""

    @pytest.mark.parametrize("model, gen, tc, grid", [
        (bm_model(), PowerGenerator(3.0), _COS, GRID),
        (bm_model(), QuadraticGenerator(0.5),
         TerminalCondition.analytic("inv_quad", amplitude=1.0), GRID),
        (ForwardModel(LinearDrift(-0.7), 0.8, 1.0), PowerGenerator(3.0), _COS, GRID),
        (ForwardModel(TanhDrift(1.3), 1.2, 1.0), PowerGenerator(4.0), _STEP, GRID),
        (bm_model(), PowerGenerator(3.0), [_COS, _STEP, SPIKE], _CAPPED),
        (ForwardModel(TanhDrift(0.5), 1.0, 1.0), PowerGenerator(3.0), [SPIKE, _COS], GRID),
        (bm_model(), PowerGenerator(3.0), _STEP, _CAPPED),
        (bm_model(T=0.1), PowerGenerator(3.0), _COS, _FINE),
    ], ids=["zero_drift", "quadratic", "linear_drift", "tanh_drift_step", "stack",
            "stack_tanh_drift", "capped_cfl_limited", "refinement_sweep"])
    def test_matches_reference_loop(self, model, gen, tc, grid):
        sol = solve(model, gen, tc, grid, 0.0)
        u, cap_active, substeps = _reference_solve(model, gen, tc, grid, 0.0)
        assert np.array_equal(_bits(sol.u), _bits(u))
        assert np.array_equal(sol.cap_active, cap_active)
        assert np.array_equal(sol.substeps, substeps)

    def test_cases_reach_their_branches(self):
        # the capped case caps a level and rebuilds the diffusion factor
        # on CFL-limited levels; the fine grid refines every solve
        sol = solve(bm_model(), PowerGenerator(3.0), _STEP, _CAPPED, 0.0)
        assert sol.cap_active.any()
        assert sol.substeps.max() > 1
        stack = solve(bm_model(), PowerGenerator(3.0), [_COS, _STEP], _CAPPED, 0.0)
        assert stack.cap_active[:, 1].any() and not stack.cap_active[:, 0].any()
        dx = (_FINE.x_hi - _FINE.x_lo) / (_FINE.n_x - 1)
        assert 0.5 * _FINE.dt / dx ** 2 > ImplicitDiffusion._REFINE_ABOVE

    @pytest.mark.parametrize("gen, tc, settings, match", [
        (InfiniteSlope(3.0), _COS, {}, r"non-finite dissipation theta at level 1 \("),
        (PowerGenerator(3.0), _STEP, {"CFL_SAFETY": 2.0}, r"non-finite solution at level \d+ \("),
        (PowerGenerator(3.0), _STEP, {"MAX_SUBSTEPS": 1},
         r"CFL substep ceiling 1 exceeded at level 0$"),
        # one-sided slopes of 2.5e308 overflow; the reference's pc * 0 made
        # them NaN, and a zero drift's skipped terms leave the level failing
        (PowerGenerator(3.0), "overflow", {}, r"at level 1 \("),
    ], ids=["theta", "state", "ceiling", "overflowed_slopes"])
    def test_failures_name_the_same_level(self, monkeypatch, gen, tc, settings, match):
        for name, value in settings.items():
            monkeypatch.setattr(hj_solver, name, value)
        with np.errstate(all="ignore"):
            if tc == "overflow":
                tc = TerminalCondition.tabulated([-0.04, 0.04], [-1e307, 1e307])
            with pytest.raises(ResolutionError, match=match) as new:
                solve(bm_model(), gen, tc, GRID, 0.0)
            with pytest.raises(ResolutionError) as ref:
                _reference_solve(bm_model(), gen, tc, GRID, 0.0)
        assert str(new.value) == str(ref.value)
