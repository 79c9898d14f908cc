"""Convex generators, their gradients, Fenchel-Legendre conjugates and
smooth truncations.

A generator is a convex function g >= 0 with g(0) = 0 acting radially,
g(z) = h(|z|) with h convex increasing.  Three concrete kinds are
provided (power |z|**q with q > 2, quadratic gamma*|z|**2, and sampled
piecewise-linear profiles loaded from CSV) plus the smooth truncation
rho_N * g used by the Markovian solver.

All objects are immutable after construction and safe for concurrent
reads.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExtrapolationRangeError,
    NotSuperquadraticError,
    UnboundedConjugateError,
)

_OVERFLOW_CAP = 1e8


def read_two_columns(path):
    """Both columns of a two-column numeric CSV with a one-line header, as
    lists of floats; blank lines are skipped.  A row with fewer than two
    columns raises ValueError naming the file and the line."""
    first, second = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path} line {reader.line_num}: expected two columns")
            first.append(float(row[0]))
            second.append(float(row[1]))
    return first, second


class Generator:
    """Base class; concrete kinds implement the radial profile h and h'."""

    def h(self, r):
        raise NotImplementedError

    def hp(self, r):
        raise NotImplementedError

    def eval(self, z):
        """g(z) = h(|z|); scalar in, scalar out; 1-d arrays are batches."""
        r = np.abs(np.asarray(z, dtype=float))
        out = self.h(r)
        return float(out) if np.isscalar(r) or np.ndim(out) == 0 else out

    def grad(self, z):
        """Gradient h'(|z|) * sign(z) (0 at the origin)."""
        g, _ = self.grad_info(z)
        return g

    def grad_info(self, z):
        """Gradient plus a smoothness flag (False only at sampled nodes)."""
        z = np.asarray(z, dtype=float)
        r = np.abs(z)
        val = np.where(r > 0.0, self.hp(np.where(r > 0.0, r, 1.0)) * np.sign(z), 0.0)
        if val.ndim == 0:
            return float(val), True
        return val, True

    def is_superquadratic(self):
        return True


class PowerGenerator(Generator):
    """g(z) = |z|**q with q > 2 (the paper's canonical superquadratic case)."""

    def __init__(self, q):
        if not q > 2.0:
            raise ValueError(f"power exponent must exceed 2, got {q}")
        self.q = float(q)

    def h(self, r):
        return np.asarray(r, dtype=float) ** self.q

    def hp(self, r):
        return self.q * np.asarray(r, dtype=float) ** (self.q - 1.0)

    def __repr__(self):
        return f"PowerGenerator(q={self.q})"


class QuadraticGenerator(Generator):
    """g(z) = gamma*|z|**2, the boundary (non-superquadratic) case."""

    def __init__(self, gamma):
        if not gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    def h(self, r):
        r = np.asarray(r, dtype=float)
        return self.gamma * r * r

    def hp(self, r):
        return 2.0 * self.gamma * np.asarray(r, dtype=float)

    def is_superquadratic(self):
        return False

    def __repr__(self):
        return f"QuadraticGenerator(gamma={self.gamma})"


class SampledGenerator(Generator):
    """Piecewise-linear convex profile through nodes (r_i, g_i).

    Nodes must start at (0, 0), be strictly increasing in r, and have
    nondecreasing divided differences (convexity).  Evaluation beyond the
    last node raises ExtrapolationRangeError.
    """

    def __init__(self, nodes_r, nodes_g):
        r = np.asarray(nodes_r, dtype=float).copy()
        g = np.asarray(nodes_g, dtype=float).copy()
        if r.ndim != 1 or r.shape != g.shape or r.size < 2:
            raise ValueError("need matching 1-d node arrays with >= 2 nodes")
        if r[0] != 0.0 or g[0] != 0.0:
            raise ValueError("first node must be (0, 0) so that g(0) = 0")
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("node abscissae must be strictly increasing")
        if np.any(g < 0.0):
            raise ValueError("profile values must be nonnegative")
        slopes = np.diff(g) / np.diff(r)
        if np.any(np.diff(slopes) < -1e-12):
            raise ValueError("divided differences decrease: profile not convex")
        r.setflags(write=False)
        g.setflags(write=False)
        slopes.setflags(write=False)
        self.nodes_r = r
        self.nodes_g = g
        self.slopes = slopes

    @classmethod
    def from_csv(cls, path):
        """Load nodes from a two-column CSV (z, g) with a one-line header."""
        return cls(*read_two_columns(path))

    def _in_range(self, r):
        """r as a float array; |z| beyond the last node raises."""
        r = np.asarray(r, dtype=float)
        if np.any(r > self.nodes_r[-1] * (1.0 + 1e-12)):
            raise ExtrapolationRangeError(
                f"|z| beyond last sampled node {self.nodes_r[-1]}")
        return r

    def _segment(self, r):
        return np.clip(np.searchsorted(self.nodes_r, r, side="right") - 1,
                       0, self.slopes.size - 1)

    def h(self, r):
        return np.interp(self._in_range(r), self.nodes_r, self.nodes_g)

    def hp(self, r):
        return self.slopes[self._segment(self._in_range(r))]

    def grad_info(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        za = np.atleast_1d(z)
        r = self._in_range(np.abs(za))
        # interior nodes are kinks: report the subgradient midpoint, flagged
        at_node = np.isin(r, self.nodes_r[1:-1])
        slope = self.slopes[self._segment(r)].astype(float)
        if np.any(at_node):
            node_idx = np.searchsorted(self.nodes_r, r[at_node])
            slope[at_node] = 0.5 * (self.slopes[node_idx - 1] + self.slopes[node_idx])
        out = np.where(r > 0.0, slope * np.sign(za), 0.0)
        smooth = not bool(np.any(at_node))
        if scalar:
            return float(out[0]), smooth
        return out, smooth

    def is_superquadratic(self):
        r = self.nodes_r[1:]
        return bool(np.any(self.nodes_g[1:] / r**2 >= 1.0))

    def __repr__(self):
        return f"SampledGenerator({self.nodes_r.size} nodes, r_max={self.nodes_r[-1]})"


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return 3.0 * t * t - 2.0 * t * t * t


def _smoothstep_deriv(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 6.0 * t - 6.0 * t * t, 0.0)


class TruncatedGenerator(Generator):
    """rho_N(|z|) * g(z) with rho_N the cubic smoothstep cutoff on [N, N+1].

    Agrees with the base generator bit-for-bit on |z| <= N and vanishes on
    |z| >= N+1; bounded and Lipschitz, hence no longer convex globally.
    """

    def __init__(self, base, N):
        if not N > 0.0:
            raise ValueError("truncation level N must be positive")
        self.base = base
        self.N = float(N)

    def rho(self, r):
        r = np.asarray(r, dtype=float)
        return 1.0 - _smoothstep(r - self.N)

    def h(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r >= self.N + 1.0, 0.0, self.rho(r) * self.base.h(np.minimum(r, self.N + 1.0)))
        # bit-for-bit agreement below the cutoff
        out = np.where(r <= self.N, self.base.h(r), out)
        return out

    def hp(self, r):
        r = np.asarray(r, dtype=float)
        rc = np.minimum(r, self.N + 1.0)
        d = -_smoothstep_deriv(r - self.N) * self.base.h(rc) + self.rho(r) * self.base.hp(rc)
        return np.where(r <= self.N, self.base.hp(r), np.where(r >= self.N + 1.0, 0.0, d))

    def is_superquadratic(self):
        return False

    def __repr__(self):
        return f"TruncatedGenerator({self.base!r}, N={self.N})"


@dataclass(frozen=True)
class ClosedFormConjugate:
    """f(x) = coefficient * |x|**exponent."""

    exponent: float
    coefficient: float


class Conjugate:
    """Fenchel-Legendre transform f(x) = sup_z (z.x - g(z)) of a convex generator.

    Power and quadratic kinds use the closed form.  A sampled profile is
    convex and piecewise linear, and so is its conjugate, exactly (Lucet,
    Numer. Algorithms 16, 1997): on slopes[i-1] < |x| <= slopes[i] the sup
    sits at node r_i, so f(x) = r_i |x| - g_i with
    i = searchsorted(slopes, |x|, "left").  Past the last slope the sup
    leaves the sampled range and eval raises UnboundedConjugateError.  No
    other kind has an exact conjugate here (a truncated generator is not
    even convex), so construction raises TypeError.
    """

    def __init__(self, source):
        self.source = source
        self.closed_form = None
        if isinstance(source, PowerGenerator):
            q = source.q
            p = q / (q - 1.0)
            self.closed_form = ClosedFormConjugate(p, (q - 1.0) * q ** (-p))
        elif isinstance(source, QuadraticGenerator):
            self.closed_form = ClosedFormConjugate(2.0, 1.0 / (4.0 * source.gamma))
        elif not isinstance(source, SampledGenerator):
            raise TypeError(f"no exact conjugate of {source!r}: "
                            "power, quadratic and sampled kinds only")

    def eval(self, x):
        """f(x); scalar in, scalar out; 1-d arrays are batches."""
        r = np.abs(np.asarray(x, dtype=float))
        if self.closed_form is not None:
            out = self.closed_form.coefficient * r ** self.closed_form.exponent
        else:
            gen = self.source
            if np.any(r > gen.slopes[-1]):
                raise UnboundedConjugateError(
                    f"|x| = {np.max(r)} beyond the last sampled slope "
                    f"{gen.slopes[-1]}: the sup leaves the sampled range")
            i = np.searchsorted(gen.slopes, r, side="left")
            # node 0 gives f >= 0; just past slopes[0], r_1 |x| - g_1 can
            # round below it
            out = np.maximum(gen.nodes_r[i] * r - gen.nodes_g[i], 0.0)
        return float(out) if np.ndim(out) == 0 else out


def conjugate_of(gen):
    return Conjugate(gen)


def young_gap(gen, conj, z, x):
    """g(z) + f(x) - z.x; >= 0 by Young's inequality, 0 iff x = grad g(z)."""
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    pair = float(np.sum(z * x)) if z.ndim else float(z * x)
    return gen.eval(z) + conj.eval(x) - pair


def truncate(gen, N):
    """Smoothly truncated generator rho_N * g (cubic smoothstep on [N, N+1])."""
    return TruncatedGenerator(gen, N)


def superquadratic_probe(gen, K):
    """K probe points (z_k, g(z_k)/z_k**2) with ratio >= k, else raise."""
    if K < 1:
        raise ValueError("need K >= 1")
    if not gen.is_superquadratic():
        raise NotSuperquadraticError(f"{gen!r} has bounded ratio g(z)/z^2")
    if isinstance(gen, PowerGenerator):
        ks = np.arange(1, K + 1, dtype=float)
        z = ks ** (1.0 / (gen.q - 2.0))
        if z[-1] > _OVERFLOW_CAP:
            raise NotSuperquadraticError(
                f"probe z_{K} = {z[-1]:.3g} exceeds the overflow cap")
        return list(zip(z.tolist(), (gen.h(z) / z**2).tolist()))
    # generic scan on a geometric grid (bounded kinds will fail)
    if isinstance(gen, SampledGenerator):
        grid = gen.nodes_r[gen.nodes_r > 0.0]
    else:
        grid = np.geomspace(1e-3, _OVERFLOW_CAP, 4096)
    ratios = np.asarray(gen.h(grid), dtype=float) / grid**2
    out = []
    for k in range(1, K + 1):
        hit = np.nonzero(ratios >= k)[0]
        if hit.size == 0:
            raise NotSuperquadraticError(
                f"no z with g(z)/z^2 >= {k} below the overflow cap")
        out.append((float(grid[hit[0]]), float(ratios[hit[0]])))
    return out


@dataclass(frozen=True)
class GrowthDualityReport:
    radii: tuple
    f_ratios: tuple
    g_ratios: tuple
    f_ratio_vanishes: bool
    g_ratio_diverges: bool
    M: float
    alpha: float
    alpha_positive: bool


def check_growth_duality(gen, conj, probe_radius, M=1.0):
    """Quadratic-growth duality probe: f(x)/|x|^2 vs g(z)/|z|^2 on a radius
    ladder, plus the conjugate coercivity constant alpha = min_{|x|=M} f."""
    if not probe_radius > 0.0:
        raise ValueError("probe radius must be positive")
    radii = (probe_radius / 16.0, probe_radius / 4.0, probe_radius)
    f_ratios = tuple(conj.eval(R) / R**2 for R in radii)
    g_ratios = tuple(gen.eval(R) / R**2 for R in radii)
    f_vanishes = f_ratios[2] < 0.5 * f_ratios[0]
    g_diverges = g_ratios[2] > 2.0 * g_ratios[0]
    alpha = conj.eval(M)
    return GrowthDualityReport(radii, f_ratios, g_ratios, f_vanishes,
                               g_diverges, float(M), float(alpha), alpha > 0.0)
