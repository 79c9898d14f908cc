import math

import numpy as np
import pytest

from superbsde.errors import (ExtrapolationRangeError, NotSuperquadraticError,
                              UnboundedConjugateError)
from superbsde.generators import (Conjugate, PowerGenerator, QuadraticGenerator,
                                  SampledGenerator, check_growth_duality,
                                  conjugate_of, superquadratic_probe, truncate,
                                  young_gap)


def grid_sup_conjugate(gen, x, z_hi=10.0, step=1e-5):
    """Independent oracle: sup_z (z x - g(z)) on a dense grid."""
    z = np.arange(0.0, z_hi + step, step)
    return float(np.max(z * abs(x) - np.asarray(gen.h(z))))


class TestEval:
    def test_power_at_origin(self):
        assert PowerGenerator(3.0).eval(0.0) == 0.0

    def test_power_cube(self):
        assert PowerGenerator(3.0).eval(2.0) == 8.0

    def test_quadratic(self):
        assert QuadraticGenerator(0.5).eval(3.0) == 4.5

    def test_sampled_extrapolation_error(self):
        gen = SampledGenerator([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        with pytest.raises(ExtrapolationRangeError):
            gen.eval(3.0)

    def test_negative_argument_is_radial(self):
        assert PowerGenerator(3.0).eval(-2.0) == 8.0


class TestGrad:
    def test_power(self):
        assert PowerGenerator(3.0).grad(2.0) == pytest.approx(12.0)

    def test_power_vanishes_at_origin(self):
        assert PowerGenerator(3.0).grad(0.0) == 0.0

    def test_sampled_interior_matches_finite_difference(self):
        gen = SampledGenerator([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        val, smooth = gen.grad_info(0.5)
        h = 1e-7
        fd = (gen.eval(0.5 + h) - gen.eval(0.5 - h)) / (2 * h)
        assert val == pytest.approx(fd, abs=1e-6)
        assert smooth

    def test_sampled_node_subgradient_midpoint(self):
        gen = SampledGenerator([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        val, smooth = gen.grad_info(1.0)
        assert val == pytest.approx(0.5 * (1.0 + 3.0))
        assert not smooth


class TestConjugate:
    def test_zero(self):
        conj = conjugate_of(PowerGenerator(3.0))
        assert conj.eval(0.0) == 0.0

    def test_power_closed_form_vs_grid_sup(self):
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        # analytically 2*12 - 8 = 16 via the Fenchel equality at z = 2
        assert conj.eval(12.0) == pytest.approx(16.0, abs=1e-9)
        assert conj.eval(12.0) == pytest.approx(
            grid_sup_conjugate(gen, 12.0), abs=1e-3)

    def test_quadratic(self):
        gen = QuadraticGenerator(0.5)
        conj = conjugate_of(gen)
        assert conj.eval(2.0) == pytest.approx(2.0, abs=1e-12)
        assert conj.eval(2.0) == pytest.approx(
            grid_sup_conjugate(gen, 2.0), abs=1e-3)

    def test_numeric_path_on_sampled(self):
        # sampled version of |z|^3 on [0, 4]: conjugate should track the
        # closed form for x below the max slope
        r = np.linspace(0.0, 4.0, 401)
        gen = SampledGenerator(r, r**3)
        conj = Conjugate(gen)
        exact = conjugate_of(PowerGenerator(3.0))
        x = 5.0
        assert conj.eval(x) == pytest.approx(exact.eval(x), rel=1e-3)

    def test_numeric_path_unbounded(self):
        r = np.linspace(0.0, 2.0, 21)
        gen = SampledGenerator(r, r**3)
        conj = Conjugate(gen)
        # max slope of the table is ~ 3*2^2; beyond it the sup escapes
        with pytest.raises(UnboundedConjugateError):
            conj.eval(100.0)

    def test_sampled_is_max_over_nodes_up_to_last_slope(self):
        r = np.linspace(0.0, 4.0, 81)
        gen = SampledGenerator(r, r**3)
        conj = Conjugate(gen)
        last = gen.slopes[-1]
        # the whole finite range, every slope itself, and the endpoint
        s = np.concatenate([np.linspace(0.0, last, 401), gen.slopes, [last]])
        brute = np.max(r[None, :] * s[:, None] - gen.nodes_g[None, :], axis=1)
        got = conj.eval(s)
        assert np.max(np.abs(got - brute)) <= 1e-12 * np.max(brute)
        assert conj.eval(-s[200]) == got[200]
        for v in s[::25]:
            assert conj.eval(v) == pytest.approx(
                grid_sup_conjugate(gen, v, z_hi=4.0 - 1e-5), abs=1e-6)
        assert np.isfinite(conj.eval(last))
        with pytest.raises(UnboundedConjugateError):
            conj.eval(np.nextafter(last, np.inf))
        with pytest.raises(UnboundedConjugateError):
            conj.eval(np.array([0.0, np.nextafter(-last, -np.inf)]))

    def test_truncated_has_no_conjugate(self):
        # rho_N * g vanishes past N + 1, so sup_z (z x - g(z)) is +inf; a
        # local search would return a finite local maximum instead
        with pytest.raises(TypeError, match="no exact conjugate"):
            Conjugate(truncate(PowerGenerator(3.0), 5.0))


class TestYoungGap:
    def test_equality_at_gradient(self):
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        assert young_gap(gen, conj, 2.0, 12.0) == pytest.approx(0.0, abs=1e-9)

    def test_both_zero(self):
        gen = PowerGenerator(3.0)
        assert young_gap(gen, conjugate_of(gen), 0.0, 0.0) == 0.0

    def test_off_gradient(self):
        gen = PowerGenerator(3.0)
        assert young_gap(gen, conjugate_of(gen), 1.0, 0.0) == pytest.approx(1.0)

    def test_young_inequality_random_pairs(self):
        rng = np.random.default_rng(42)
        for q in (2.5, 3.0, 4.0):
            gen = PowerGenerator(q)
            conj = conjugate_of(gen)
            z = rng.uniform(-50.0, 50.0, 10_000)
            x = rng.uniform(-50.0, 50.0, 10_000)
            gaps = np.asarray(gen.eval(z)) + np.asarray(conj.eval(x)) - z * x
            assert gaps.min() >= -1e-9

    def test_fenchel_equality_along_gradient(self):
        rng = np.random.default_rng(7)
        for q in (2.5, 3.0, 4.0):
            gen = PowerGenerator(q)
            conj = conjugate_of(gen)
            z = rng.uniform(-5.0, 5.0, 1000)
            grads = np.asarray(gen.grad(z))
            lhs = np.asarray(conj.eval(grads))
            rhs = z * grads - np.asarray(gen.eval(z))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_biconjugation_recovers_g(self):
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        for z in np.geomspace(0.1, 10.0, 12):
            # sup_x (z x - f(x)) scanned numerically
            x = np.linspace(0.0, 3.5 * gen.grad(z), 20001)
            bi = np.max(z * x - np.asarray(conj.eval(x)))
            assert bi == pytest.approx(gen.eval(z), rel=1e-4)


class TestTruncate:
    def test_plateau_below(self):
        t = truncate(PowerGenerator(3.0), 5.0)
        assert t.eval(2.0) == PowerGenerator(3.0).eval(2.0)

    def test_vanishes_above(self):
        t = truncate(PowerGenerator(3.0), 5.0)
        assert t.eval(7.0) == 0.0

    def test_midpoint_smoothstep(self):
        t = truncate(PowerGenerator(3.0), 5.0)
        assert t.eval(5.5) == pytest.approx(0.5 * 5.5**3)

    def test_bit_for_bit_below_and_zero_above(self):
        gen = PowerGenerator(2.7)
        t = truncate(gen, 3.0)
        z = np.linspace(0.0, 3.0, 257)
        assert np.all(np.asarray(t.eval(z)) == np.asarray(gen.eval(z)))
        z = np.linspace(4.0, 10.0, 57)
        assert np.all(np.asarray(t.eval(z)) == 0.0)

    def test_gradient_matches_finite_difference(self):
        t = truncate(PowerGenerator(3.0), 5.0)
        for z in (4.5, 5.25, 5.75, 6.5):
            h = 1e-6
            fd = (t.eval(z + h) - t.eval(z - h)) / (2 * h)
            assert t.grad(z) == pytest.approx(fd, rel=1e-4, abs=1e-4)


class TestSuperquadraticProbe:
    def test_power_q3(self):
        pts = superquadratic_probe(PowerGenerator(3.0), 3)
        zs = [p[0] for p in pts]
        ratios = [p[1] for p in pts]
        assert zs == pytest.approx([1.0, 2.0, 3.0])
        assert ratios == pytest.approx([1.0, 2.0, 3.0])

    def test_power_q4(self):
        pts = superquadratic_probe(PowerGenerator(4.0), 4)
        zs = [p[0] for p in pts]
        assert zs == pytest.approx([1.0, math.sqrt(2), math.sqrt(3), 2.0])

    def test_quadratic_fails(self):
        with pytest.raises(NotSuperquadraticError):
            superquadratic_probe(QuadraticGenerator(1.0), 1)

    def test_ratios_dominate_index(self):
        for q in (2.5, 3.0, 5.0):
            for k, (_, ratio) in enumerate(superquadratic_probe(PowerGenerator(q), 6), 1):
                assert ratio >= k - 1e-9


class TestGrowthDuality:
    def test_power_ratios(self):
        gen = PowerGenerator(3.0)
        conj = conjugate_of(gen)
        rep = check_growth_duality(gen, conj, 100.0)
        # f(x) = 2 3^{-3/2} x^{3/2}: f(100)/100^2 = 0.03849
        assert rep.f_ratios[-1] == pytest.approx(2.0 * 3.0**-1.5 * 100.0**1.5 / 1e4)
        assert rep.f_ratio_vanishes and rep.g_ratio_diverges

    def test_quadratic_ratios_flat(self):
        gen = QuadraticGenerator(1.0)
        rep = check_growth_duality(gen, conjugate_of(gen), 64.0)
        assert all(r == pytest.approx(0.25) for r in rep.f_ratios)
        assert not rep.f_ratio_vanishes and not rep.g_ratio_diverges

    def test_coercivity_constant(self):
        gen = PowerGenerator(3.0)
        rep = check_growth_duality(gen, conjugate_of(gen), 10.0, M=1.0)
        assert rep.alpha == pytest.approx(2.0 * 3.0**-1.5)
        assert rep.alpha_positive


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("z,g\n0,0\n1,1\n2,4\n3,9.5\n")
        gen = SampledGenerator.from_csv(path)
        assert gen.eval(1.5) == pytest.approx(2.5)

    def test_decreasing_nodes_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,g\n0,0\n2,4\n1,1\n")
        with pytest.raises(ValueError):
            SampledGenerator.from_csv(path)

    def test_nonconvex_rejected(self):
        with pytest.raises(ValueError):
            SampledGenerator([0.0, 1.0, 2.0], [0.0, 3.0, 4.0])
