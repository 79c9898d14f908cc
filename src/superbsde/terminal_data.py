"""Bounded terminal conditions and their Lipschitz regularizations.

A TerminalCondition wraps a bounded payoff profile together with its
sup-norm and a regularity tag.  The inf-/sup-convolutions

    lower_m(u) = inf_p { phi(p) + m|p - u| }
    upper_m(u) = sup_p { phi(p) - m|p - u| }

are the canonical m-Lipschitz squeezes used by the solver's
approximation ladders, with the certified uniform gap bound derived from
the continuity modulus.

Immutable after construction; concurrent reads are safe.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoModulusError
from .generators import read_two_columns


@dataclass(frozen=True)
class Lipschitz:
    L: float


@dataclass(frozen=True)
class UniformlyContinuous:
    """Modulus table ((eps, delta), ...): |x-y| <= delta => |phi(x)-phi(y)| <= eps."""

    table: tuple


@dataclass(frozen=True)
class LowerSemiContinuous:
    pass


@dataclass(frozen=True)
class Continuous:
    pass


class _Profile:
    def __call__(self, x):
        raise NotImplementedError

    def bounds(self):
        """(inf, sup) of the profile, exact or safely enclosing."""
        raise NotImplementedError

    def critical_points(self):
        """Jump/kink abscissae the convolution scan must always sample
        (basins at discontinuities can be narrower than any grid)."""
        return ()


class AnalyticProfile(_Profile):
    _KINDS = ("const", "cos", "inv_quad", "tanh")

    def __init__(self, kind, amplitude=1.0, frequency=1.0, offset=0.0):
        if kind not in self._KINDS:
            raise ValueError(f"unknown analytic profile {kind!r}; choose from {self._KINDS}")
        self.kind = kind
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.offset = float(offset)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            out = np.full_like(x, self.amplitude) + self.offset
        elif self.kind == "cos":
            out = self.amplitude * np.cos(self.frequency * x) + self.offset
        elif self.kind == "inv_quad":
            out = self.amplitude / (1.0 + x * x) + self.offset
        else:
            out = self.amplitude * np.tanh(self.frequency * x) + self.offset
        return float(out) if out.ndim == 0 else out

    def bounds(self):
        a = abs(self.amplitude)
        if self.kind == "const":
            lo = hi = self.amplitude
        elif self.kind == "inv_quad":
            lo, hi = (min(0.0, self.amplitude), max(0.0, self.amplitude))
        else:
            lo, hi = -a, a
        return lo + self.offset, hi + self.offset

    def lipschitz(self):
        if self.kind == "const":
            return 0.0
        if self.kind == "inv_quad":
            return abs(self.amplitude) * 3.0 * np.sqrt(3.0) / 8.0
        return abs(self.amplitude) * abs(self.frequency)


class TabulatedProfile(_Profile):
    """Linear interpolation through (x, phi) pairs, constant beyond the table."""

    def __init__(self, xs, phis):
        xs = np.asarray(xs, dtype=float).copy()
        phis = np.asarray(phis, dtype=float).copy()
        if xs.ndim != 1 or xs.shape != phis.shape or xs.size < 2:
            raise ValueError("need matching 1-d arrays with >= 2 entries")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("abscissae must be strictly increasing")
        xs.setflags(write=False)
        phis.setflags(write=False)
        self.xs = xs
        self.phis = phis

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.xs, self.phis)
        return float(out) if out.ndim == 0 else out

    def bounds(self):
        return float(self.phis.min()), float(self.phis.max())

    def critical_points(self):
        return tuple(self.xs.tolist())

    def lipschitz(self):
        return float(np.max(np.abs(np.diff(self.phis) / np.diff(self.xs))))


class StepProfile(_Profile):
    """Jump at `jump` from `low` to `high`; the value at the jump is `low`
    (lower semi-continuous when high > low)."""

    def __init__(self, jump, low, high):
        self.jump = float(jump)
        self.low = float(low)
        self.high = float(high)

    def __call__(self, x):
        out = np.where(np.asarray(x, dtype=float) > self.jump, self.high, self.low)
        return float(out) if out.ndim == 0 else out

    def bounds(self):
        return min(self.low, self.high), max(self.low, self.high)

    def critical_points(self):
        # both one-sided limits at the jump matter
        eps = 1e-9 * max(1.0, abs(self.jump))
        return (self.jump - eps, self.jump, self.jump + eps)


class _CallableProfile(_Profile):
    def __init__(self, fn, lo, hi, crit=()):
        self.fn = fn
        self._lo = float(lo)
        self._hi = float(hi)
        self._crit = tuple(crit)

    def __call__(self, x):
        out = self.fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def bounds(self):
        return self._lo, self._hi

    def critical_points(self):
        return self._crit


class TerminalCondition:
    """Bounded payoff with sup-norm and regularity metadata."""

    def __init__(self, profile, sup_norm=None, regularity=None):
        self.profile = profile
        lo, hi = profile.bounds()
        self.sup_norm = float(sup_norm) if sup_norm is not None else max(abs(lo), abs(hi))
        self.regularity = regularity if regularity is not None else Continuous()

    # -- constructors -----------------------------------------------------
    @classmethod
    def analytic(cls, kind, **params):
        prof = AnalyticProfile(kind, **params)
        return cls(prof, regularity=Lipschitz(prof.lipschitz()))

    @classmethod
    def tabulated(cls, xs, phis):
        prof = TabulatedProfile(xs, phis)
        return cls(prof, regularity=Lipschitz(prof.lipschitz()))

    @classmethod
    def from_csv(cls, path):
        """Two-column CSV (x, phi) with a one-line header."""
        return cls.tabulated(*read_two_columns(path))

    @classmethod
    def step(cls, jump, low, high):
        return cls(StepProfile(jump, low, high), regularity=LowerSemiContinuous())

    # -- evaluation --------------------------------------------------------
    def __call__(self, x):
        return self.profile(x)

    def shifted(self, a):
        """The condition phi + a (translation tests); same critical points."""
        lo, hi = self.profile.bounds()
        prof = _CallableProfile(lambda x: self.profile(x) + a, lo + a, hi + a,
                                crit=self.profile.critical_points())
        return TerminalCondition(prof, regularity=self.regularity)

    def negated(self):
        """The condition -phi; same sup-norm and critical points."""
        lo, hi = self.profile.bounds()
        prof = _CallableProfile(lambda x: -self.profile(x), -hi, -lo,
                                crit=self.profile.critical_points())
        return TerminalCondition(prof, sup_norm=self.sup_norm, regularity=self.regularity)

    def inf_convolved(self, m):
        """Lower m-Lipschitz regularization as a new condition."""
        prof = _CallableProfile(lambda x: inf_convolution(self, m, x),
                                -self.sup_norm, self.sup_norm,
                                crit=self.profile.critical_points())
        return TerminalCondition(prof, sup_norm=self.sup_norm, regularity=Lipschitz(m))

    def sup_convolved(self, m):
        """Upper m-Lipschitz regularization as a new condition: the mirror
        image -(-phi)_m of the lower one."""
        return self.negated().inf_convolved(m).negated()


def _scan_inf(phi, m, u, window, crit=(), n=257, refinements=3):
    """min_p phi(p) + m|p - u| over p in [u-window, u+window], vectorized in u.

    Coarse scan (p = u always sampled) plus local refinements around the
    running argmin, plus the profile's critical points as explicit
    candidates: jump basins are narrower than any grid, so sampling the
    jump sides directly is what makes step/tabulated profiles exact.
    Smooth profiles are resolved to ~1e-6 * window by the refinements.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    offsets = np.linspace(-window, window, n)
    best_val = np.full(u.shape, np.inf)
    best_p = u.copy()
    center = u.copy()
    half = window
    for _ in range(refinements + 1):
        p = center[:, None] + offsets[None, :] * (half / window)
        vals = phi(p) + m * np.abs(p - u[:, None])
        idx = np.argmin(vals, axis=1)
        rows = np.arange(u.size)
        cand = vals[rows, idx]
        take = cand < best_val
        best_val = np.where(take, cand, best_val)
        best_p = np.where(take, p[rows, idx], best_p)
        center = best_p
        half = half * (2.0 / (n - 1)) * 2.0
    for c in crit:
        cand = float(phi(np.asarray(c))) + m * np.abs(c - u)
        best_val = np.minimum(best_val, cand)
    return best_val


def inf_convolution(tc, m, u):
    """Phi_m(u) = inf_p { Phi(p) + m|p-u| }; m = 0 gives the global infimum.

    The scan window u +- (2||Phi||/m + 1) is exact: outside it the penalty
    exceeds the largest possible payoff gain 2||Phi||.
    """
    if m < 0.0:
        raise ValueError("need m >= 0")
    shape = np.shape(u)
    if m == 0.0:
        out = np.full(shape or (1,), tc.profile.bounds()[0])
        return float(out.flat[0]) if not shape else out
    window = 2.0 * tc.sup_norm / m + 1.0
    out = _scan_inf(tc.profile, m, u, window,
                    crit=tc.profile.critical_points()).reshape(shape or (1,))
    return float(out.flat[0]) if not shape else out


def sup_convolution(tc, m, u):
    """Mirror image: sup_p { Phi(p) - m|p-u| } = -inf_p { (-Phi)(p) + m|p-u| }."""
    return -inf_convolution(tc.negated(), m, u)


def uniform_gap_bound(tc, m):
    """Certified bound on sup_u (Phi - Phi_m) from the continuity modulus:
    the smallest tabulated eps with m >= 2||Phi||/delta(eps), or the exact
    Lipschitz formula 2||Phi|| L / m; 2||Phi|| is the trivial fallback."""
    if m <= 0.0:
        return 2.0 * tc.sup_norm
    reg = tc.regularity
    if isinstance(reg, Lipschitz):
        return min(2.0 * tc.sup_norm * reg.L / m, 2.0 * tc.sup_norm)
    if isinstance(reg, UniformlyContinuous):
        best = 2.0 * tc.sup_norm
        for eps, delta in sorted(reg.table):
            if m >= 2.0 * tc.sup_norm / delta:
                best = min(best, eps)
                break
        return best
    raise NoModulusError(f"regularity {reg!r} carries no continuity modulus")
