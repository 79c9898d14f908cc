"""Bounded terminal conditions and their Lipschitz regularizations.

A TerminalCondition is a bounded payoff Phi with its bounds [lo, hi],
its kinks and jumps, its sup-norm and a Lipschitz constant L (None when
Phi is not Lipschitz).  The inf-/sup-convolutions

    lower_m(u) = inf_p { phi(p) + m|p - u| }
    upper_m(u) = sup_p { phi(p) - m|p - u| }

are the canonical m-Lipschitz squeezes used by the solver's
approximation ladders; for L-Lipschitz Phi the uniform gap
sup (Phi - lower_m) is certified by 2||Phi|| L / m.

Immutable after construction; concurrent reads are safe.
"""

import numpy as np

from .errors import NoModulusError
from .generators import read_two_columns

_KINDS = ("const", "cos", "inv_quad", "tanh")


class TerminalCondition:
    """Bounded payoff fn with values in [lo, hi], its Lipschitz constant
    (None when fn is not Lipschitz) and its kinks and jumps `crit`: the
    abscissae the convolution scan must always sample, since basins at
    discontinuities can be narrower than any grid.  sup_norm defaults to
    max(|lo|, |hi|)."""

    def __init__(self, fn, lo, hi, lipschitz=None, crit=(), sup_norm=None):
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.lipschitz = float(lipschitz) if lipschitz is not None else None
        self.crit = tuple(crit)
        self.sup_norm = (float(sup_norm) if sup_norm is not None
                         else max(abs(self.lo), abs(self.hi)))

    # -- constructors -----------------------------------------------------
    @classmethod
    def analytic(cls, kind, amplitude=1.0, frequency=1.0, offset=0.0):
        if kind not in _KINDS:
            raise ValueError(f"unknown analytic profile {kind!r}; choose from {_KINDS}")
        amp, freq, off = float(amplitude), float(frequency), float(offset)
        if not np.all(np.isfinite([amp, freq, off])):
            raise ValueError("amplitude, frequency and offset must be finite, got "
                             f"{amp}, {freq}, {off}")
        a = abs(amp)
        if kind == "const":
            return cls(lambda x: np.full_like(x, amp) + off, amp + off, amp + off,
                       lipschitz=0.0)
        if kind == "inv_quad":
            return cls(lambda x: amp / (1.0 + x * x) + off,
                       min(0.0, amp) + off, max(0.0, amp) + off,
                       lipschitz=a * 3.0 * np.sqrt(3.0) / 8.0)
        wave = np.cos if kind == "cos" else np.tanh
        return cls(lambda x: amp * wave(freq * x) + off, -a + off, a + off,
                   lipschitz=a * abs(freq))

    @classmethod
    def tabulated(cls, xs, phis):
        """Linear interpolation through (x, phi) pairs, constant beyond the table."""
        xs = np.asarray(xs, dtype=float).copy()
        phis = np.asarray(phis, dtype=float).copy()
        if xs.ndim != 1 or xs.shape != phis.shape or xs.size < 2:
            raise ValueError("need matching 1-d arrays with >= 2 entries")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(phis))):
            raise ValueError("table entries must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise ValueError("abscissae must be strictly increasing")
        return cls(lambda x: np.interp(x, xs, phis), phis.min(), phis.max(),
                   lipschitz=np.max(np.abs(np.diff(phis) / np.diff(xs))),
                   crit=xs.tolist())

    @classmethod
    def from_csv(cls, path):
        """Two-column CSV (x, phi) with a one-line header."""
        return cls.tabulated(*read_two_columns(path))

    @classmethod
    def step(cls, jump, low, high):
        """Jump at `jump` from `low` to `high`; the value at the jump is `low`
        (lower semi-continuous when high > low), so no Lipschitz constant."""
        jump, low, high = float(jump), float(low), float(high)
        if not np.all(np.isfinite([jump, low, high])):
            raise ValueError(f"jump, low and high must be finite, got {jump}, {low}, {high}")
        # both one-sided limits at the jump matter
        eps = 1e-9 * max(1.0, abs(jump))
        return cls(lambda x: np.where(x > jump, high, low), min(low, high), max(low, high),
                   crit=(jump - eps, jump, jump + eps))

    # -- evaluation --------------------------------------------------------
    def __call__(self, x):
        out = self.fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    def shifted(self, a):
        """The condition phi + a (translation tests); same critical points."""
        return TerminalCondition(lambda x: self.fn(x) + a, self.lo + a, self.hi + a,
                                 self.lipschitz, self.crit)

    def negated(self):
        """The condition -phi; same sup-norm and critical points."""
        return TerminalCondition(lambda x: -self.fn(x), -self.hi, -self.lo,
                                 self.lipschitz, self.crit, sup_norm=self.sup_norm)

    def inf_convolved(self, m):
        """Lower m-Lipschitz regularization as a new condition; a
        non-finite or negative m raises ValueError here, not at evaluation."""
        m = _check_m(m)
        return TerminalCondition(lambda x: inf_convolution(self, m, x),
                                 -self.sup_norm, self.sup_norm, m, self.crit,
                                 sup_norm=self.sup_norm)

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
        cand = float(phi(np.asarray(c, dtype=float))) + m * np.abs(c - u)
        best_val = np.minimum(best_val, cand)
    return best_val


def _check_m(m):
    m = float(m)
    if not 0.0 <= m < np.inf:
        raise ValueError(f"need a finite m >= 0, got {m}")
    return m


def inf_convolution(tc, m, u):
    """Phi_m(u) = inf_p { Phi(p) + m|p-u| }; m = 0 gives the global infimum.

    The scan window u +- (2||Phi||/m + 1) is exact: outside it the penalty
    exceeds the largest possible payoff gain 2||Phi||.
    """
    m = _check_m(m)
    shape = np.shape(u)
    if m == 0.0:
        out = np.full(shape or (1,), tc.lo)
        return float(out.flat[0]) if not shape else out
    window = 2.0 * tc.sup_norm / m + 1.0
    out = _scan_inf(tc.fn, m, u, window, crit=tc.crit).reshape(shape or (1,))
    return float(out.flat[0]) if not shape else out


def uniform_gap_bound(tc, m):
    """Certified bound on sup_u (Phi - Phi_m): 2||Phi|| L / m for
    L-Lipschitz Phi, capped by the trivial 2||Phi|| (which is also the
    bound for m <= 0)."""
    if m <= 0.0:
        return 2.0 * tc.sup_norm
    if tc.lipschitz is None:
        raise NoModulusError("terminal condition has no Lipschitz constant")
    return min(2.0 * tc.sup_norm * tc.lipschitz / m, 2.0 * tc.sup_norm)
