"""Bounded terminal conditions and their Lipschitz regularizations.

A TerminalCondition is a bounded payoff Phi with its bounds [lo, hi],
its kinks and jumps, its sup-norm and a Lipschitz constant L (None when
Phi is not Lipschitz).  The inf-/sup-convolutions

    lower_m(u) = inf_p { phi(p) + m|p - u| }
    upper_m(u) = sup_p { phi(p) - m|p - u| }

are the canonical m-Lipschitz squeezes used by the solver's
approximation ladders; for L-Lipschitz Phi the uniform gap
sup (Phi - lower_m) is certified by 2||Phi|| L / m.

Data that are linear between their knots and constant beyond them
(tabulated data, and their negations and shifts) are convolved exactly:
p -> phi(p) + m|p - u| is then piecewise linear with corners only at the
knots and at u, so its minimum is one of those candidates.  Any other
data go through a sampling scan (`_scan_inf`) over a window around u,
which also takes the knots, kinks and jump sides as candidates, and which
can miss the global minimum of oscillatory data at small m; it runs
over chunks of _SCAN_CHUNK points of u, so its temporaries stay near
2 MB however many points are asked for.

Immutable after construction; concurrent reads are safe.
"""

import numpy as np

from .errors import NoModulusError
from .generators import read_two_columns

_KINDS = ("const", "cos", "inv_quad", "tanh")
# points of each pass of the convolution scan, and the refining passes after
# the first
_SCAN_POINTS = 257
_SCAN_REFINEMENTS = 3
# points of u per scan chunk: a (chunk, _SCAN_POINTS) temporary is ~2 MB
_SCAN_CHUNK = 1024


class TerminalCondition:
    """Bounded payoff fn with values in [lo, hi], its Lipschitz constant
    (None when fn is not Lipschitz) and its kinks and jumps `crit`: the
    abscissae the convolution scan must always sample, since basins at
    discontinuities can be narrower than any grid.  sup_norm defaults to
    max(|lo|, |hi|).  piecewise_linear says that fn is linear between
    consecutive crit points and constant beyond them, so its
    convolutions need only those points and no scan."""

    def __init__(self, fn, lo, hi, lipschitz=None, crit=(), sup_norm=None,
                 piecewise_linear=False):
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.lipschitz = float(lipschitz) if lipschitz is not None else None
        self.crit = tuple(crit)
        self.piecewise_linear = bool(piecewise_linear)
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
                   crit=xs.tolist(), piecewise_linear=True)

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
                                 self.lipschitz, self.crit,
                                 piecewise_linear=self.piecewise_linear)

    def negated(self):
        """The condition -phi; same sup-norm and critical points."""
        return TerminalCondition(lambda x: -self.fn(x), -self.hi, -self.lo,
                                 self.lipschitz, self.crit, sup_norm=self.sup_norm,
                                 piecewise_linear=self.piecewise_linear)

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


def _scan_inf(phi, m, u, window, crit=()):
    """min_p phi(p) + m|p - u| over p in [u-window, u+window], vectorized in u.

    Coarse scan (p = u always sampled) plus local refinements around the
    running argmin, plus the profile's critical points as explicit
    candidates: jump basins are narrower than any grid, so sampling the
    jump sides directly is what makes step profiles exact.  The
    refinements resolve the minimum of the basin the coarse scan picks to
    about 1e-6 * window, which is the global minimum only when the coarse
    samples land in its basin.  Oscillatory data at small m can defeat
    that: for cos with amplitude 2 and frequency 3 the result sits 0.179
    above the true infimum at m = 0.1 (ROADMAP direction 4, exact
    candidates).  Every point of u is independent, so the chunks of
    _SCAN_CHUNK points give the bits of one pass over all of u.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    best = np.empty(u.shape)
    for start in range(0, u.size, _SCAN_CHUNK):
        stop = start + _SCAN_CHUNK
        best[start:stop] = _grid_inf(phi, m, u[start:stop], window)
    return _crit_inf(phi, m, u, best, crit)


def _grid_inf(phi, m, u, window):
    """The sampled part of `_scan_inf` for one chunk of u."""
    offsets = np.linspace(-window, window, _SCAN_POINTS)
    best_val = np.full(u.shape, np.inf)
    best_p = u.copy()
    center = u.copy()
    half = window
    rows = np.arange(u.size)
    for _ in range(_SCAN_REFINEMENTS + 1):
        p = center[:, None] + offsets[None, :] * (half / window)
        vals = phi(p) + m * np.abs(p - u[:, None])
        idx = np.argmin(vals, axis=1)
        cand = vals[rows, idx]
        take = cand < best_val
        best_val = np.where(take, cand, best_val)
        best_p = np.where(take, p[rows, idx], best_p)
        center = best_p
        half = half * (2.0 / (_SCAN_POINTS - 1)) * 2.0
    return best_val


def _crit_inf(phi, m, u, best_val, crit):
    """best_val lowered to phi(c) + m|c - u| for every critical point c."""
    for c in crit:
        cand = float(phi(np.asarray(c, dtype=float))) + m * np.abs(c - u)
        best_val = np.minimum(best_val, cand)
    return best_val


def _knot_inf(phi, m, u, knots):
    """min_p phi(p) + m|p - u| over p in {u} and the knots: the exact
    inf-convolution of data linear between the knots and constant beyond
    them.  Each candidate is the scan's own expression for that p (its
    first pass samples p = u + 0.0), so the result has `_scan_inf`'s bits
    without its (points, _SCAN_POINTS) grids.  The one exception is an m
    equal to a segment's slope: p -> phi(p) + m|p - u| is then flat on
    that segment, and the scan may read a grid point there that rounds
    a few ulps below every candidate."""
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    p = u + 0.0
    return _crit_inf(phi, m, u, phi(p) + m * np.abs(p - u), knots)


def _check_m(m):
    m = float(m)
    if not 0.0 <= m < np.inf:
        raise ValueError(f"need a finite m >= 0, got {m}")
    return m


def inf_convolution(tc, m, u):
    """Phi_m(u) = inf_p { Phi(p) + m|p-u| }; m = 0 gives the global infimum.

    Piecewise-linear data take the exact knot candidates (`_knot_inf`);
    any other data are scanned (`_scan_inf`) over the window
    u +- (2||Phi||/m + 1).  The window loses nothing, since outside it the
    penalty exceeds the largest possible payoff gain 2||Phi||, but the scan
    inside it is not exact: it can settle in a basin above the global
    minimum for oscillatory data at small m.
    """
    m = _check_m(m)
    shape = np.shape(u)
    if m == 0.0:
        out = np.full(shape or (1,), tc.lo)
        return float(out.flat[0]) if not shape else out
    if tc.piecewise_linear:
        out = _knot_inf(tc.fn, m, u, tc.crit)
    else:
        window = 2.0 * tc.sup_norm / m + 1.0
        out = _scan_inf(tc.fn, m, u, window, crit=tc.crit)
    out = out.reshape(shape or (1,))
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
