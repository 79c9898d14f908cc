"""Convex generators, their gradients and Fenchel-Legendre conjugates.

A generator is a convex function g >= 0 with g(0) = 0 acting radially,
g(z) = h(|z|) with h convex increasing.  Three concrete kinds are
provided: power |z|**q with q > 2, quadratic gamma*|z|**2, and sampled
piecewise-linear profiles loaded from CSV.

All objects are immutable after construction and safe for concurrent
reads.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ExtrapolationRangeError, UnboundedConjugateError


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
    """Base class; concrete kinds implement the radial profile h and h'.
    h, h', eval and grad accept |z| <= r_max."""

    r_max = np.inf

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
        z = np.asarray(z, dtype=float)
        r = np.abs(z)
        val = np.where(r > 0.0, self.hp(np.where(r > 0.0, r, 1.0)) * np.sign(z), 0.0)
        return float(val) if val.ndim == 0 else val


class PowerGenerator(Generator):
    """g(z) = |z|**q with finite q > 2 (the paper's canonical superquadratic case)."""

    def __init__(self, q):
        if not 2.0 < q < np.inf:
            raise ValueError(f"power exponent must be finite and exceed 2, got {q}")
        self.q = float(q)

    def h(self, r):
        return np.asarray(r, dtype=float) ** self.q

    def hp(self, r):
        return self.q * np.asarray(r, dtype=float) ** (self.q - 1.0)

    def __repr__(self):
        return f"PowerGenerator(q={self.q})"


class QuadraticGenerator(Generator):
    """g(z) = gamma*|z|**2 with finite gamma > 0, the boundary
    (non-superquadratic) case."""

    def __init__(self, gamma):
        if not 0.0 < gamma < np.inf:
            raise ValueError(f"gamma must be finite and positive, got {gamma}")
        self.gamma = float(gamma)

    def h(self, r):
        r = np.asarray(r, dtype=float)
        return self.gamma * r * r

    def hp(self, r):
        return 2.0 * self.gamma * np.asarray(r, dtype=float)

    def __repr__(self):
        return f"QuadraticGenerator(gamma={self.gamma})"


class SampledGenerator(Generator):
    """Piecewise-linear convex profile through nodes (r_i, g_i).

    Nodes must be finite, start at (0, 0), be strictly increasing in r,
    and have nondecreasing divided differences (convexity).  Evaluation
    beyond the last node raises ExtrapolationRangeError.
    """

    def __init__(self, nodes_r, nodes_g):
        r = np.asarray(nodes_r, dtype=float).copy()
        g = np.asarray(nodes_g, dtype=float).copy()
        if r.ndim != 1 or r.shape != g.shape or r.size < 2:
            raise ValueError("need matching 1-d node arrays with >= 2 nodes")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(g))):
            raise ValueError("nodes must be finite")
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
        self.r_max = float(r[-1]) * (1.0 + 1e-12)

    @classmethod
    def from_csv(cls, path):
        """Load nodes from a two-column CSV (z, g) with a one-line header."""
        return cls(*read_two_columns(path))

    def _in_range(self, r):
        """r as a float array; |z| beyond the last node raises."""
        r = np.asarray(r, dtype=float)
        if np.any(r > self.r_max):
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

    def grad(self, z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        za = np.atleast_1d(z)
        r = self._in_range(np.abs(za))
        # interior nodes are kinks: report the subgradient midpoint
        at_node = np.isin(r, self.nodes_r[1:-1])
        slope = self.slopes[self._segment(r)].astype(float)
        if np.any(at_node):
            node_idx = np.searchsorted(self.nodes_r, r[at_node])
            slope[at_node] = 0.5 * (self.slopes[node_idx - 1] + self.slopes[node_idx])
        out = np.where(r > 0.0, slope * np.sign(za), 0.0)
        return float(out[0]) if scalar else out

    def __repr__(self):
        return f"SampledGenerator({self.nodes_r.size} nodes, r_max={self.nodes_r[-1]})"


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
    other kind has an exact conjugate here, so construction raises
    TypeError.
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
