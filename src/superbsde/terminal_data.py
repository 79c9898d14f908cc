"""Bounded terminal conditions and their Lipschitz regularizations.

A TerminalCondition is a bounded payoff Phi with its bounds [lo, hi],
its kinks and jumps, its sup-norm and a Lipschitz constant L (None when
Phi is not Lipschitz).  The inf-/sup-convolutions

    lower_m(u) = inf_p { phi(p) + m|p - u| }
    upper_m(u) = sup_p { phi(p) - m|p - u| }

are the canonical m-Lipschitz squeezes used by the solver's
approximation ladders; for L-Lipschitz Phi the uniform gap
sup (Phi - lower_m) is certified by 2||Phi|| L / m.

Both are exact.  A minimizer of p -> phi(p) + m|p - u| is u itself, a
kink or jump of phi (`crit`) or a root of phi'(p) = +-m (`slope_roots`),
so over those candidates c

    lower_m(u) = min(phi(u), m u + min_{c <= u} (phi(c) - m c),
                     -m u + min_{c >= u} (phi(c) + m c)):

two running minima over the sorted candidates and one search for all u.
`cos` takes its roots from arcsin, `tanh` from arccosh and `inv_quad`
from a quartic; data linear between their knots have none, and a
convolved condition supplies the candidates of its own envelope
(`_envelope_roots`).  Candidates are enumerated near the points asked
for, so their number grows with the points, not with 1/m or with the
frequency.

Immutable after construction; concurrent reads are safe.
"""

import numpy as np

from .errors import NoModulusError
from .generators import read_two_columns

_KINDS = ("const", "cos", "inv_quad", "tanh")


class TerminalCondition:
    """Bounded payoff fn with values in [lo, hi], its Lipschitz constant
    (None when fn is not Lipschitz), its kinks and jumps `crit` and its
    slope roots.  sup_norm defaults to max(|lo|, |hi|).

    The convolutions take every point of crit as a candidate, since basins
    at discontinuities can be narrower than any grid.  slope_roots(m, u),
    for m > 0 and a 1-d array u, gives the points p with fn'(p) = +-m that
    minimizers of fn(p) + m|p - u| may need, as a 1-d array: those within
    one period of some u for periodic fn, all of them otherwise.  A
    superset does no harm.  The default, no roots, says that fn is linear
    between consecutive crit points and constant beyond them."""

    def __init__(self, fn, lo, hi, lipschitz=None, crit=(), sup_norm=None,
                 slope_roots=None):
        self.fn = fn
        self.lo = float(lo)
        self.hi = float(hi)
        self.lipschitz = float(lipschitz) if lipschitz is not None else None
        self.crit = tuple(crit)
        self.slope_roots = slope_roots or _no_roots
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
                       lipschitz=a * 3.0 * np.sqrt(3.0) / 8.0,
                       slope_roots=_inv_quad_roots(amp))
        wave, roots = (np.cos, _cos_roots) if kind == "cos" else (np.tanh, _tanh_roots)
        return cls(lambda x: amp * wave(freq * x) + off, -a + off, a + off,
                   lipschitz=a * abs(freq), slope_roots=roots(amp, freq))

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
        """The condition phi + a (translation tests); same critical points
        and slope roots."""
        return TerminalCondition(lambda x: self.fn(x) + a, self.lo + a, self.hi + a,
                                 self.lipschitz, self.crit,
                                 slope_roots=self.slope_roots)

    def negated(self):
        """The condition -phi; same sup-norm, critical points and slope
        roots."""
        return TerminalCondition(lambda x: -self.fn(x), -self.hi, -self.lo,
                                 self.lipschitz, self.crit, sup_norm=self.sup_norm,
                                 slope_roots=self.slope_roots)

    def inf_convolved(self, m):
        """Lower m-Lipschitz regularization as a new condition, with the
        candidates of its own envelope as slope roots (`_envelope_roots`),
        so that it convolves exactly too.  A non-finite or negative m, or
        one so small that (hi - lo) / m overflows, raises ValueError here,
        not at evaluation."""
        m = _check_m(m)
        return TerminalCondition(lambda x: inf_convolution(self, m, x),
                                 -self.sup_norm, self.sup_norm, m, self.crit,
                                 sup_norm=self.sup_norm,
                                 slope_roots=_envelope_roots(self, m))

    def sup_convolved(self, m):
        """Upper m-Lipschitz regularization as a new condition: the mirror
        image -(-phi)_m of the lower one."""
        return self.negated().inf_convolved(m).negated()


def _no_roots(m, u):
    return np.empty(0)


def _cos_roots(amp, freq):
    """Slope roots of amp cos(freq p): |amp freq sin(freq p)| = m at
    k pi / |freq| +- theta, theta = arcsin(m / |amp freq|) / |freq|, taken
    over the windows u +- one period (a minimizer lies within half a
    period of u; the other half serves `_envelope_roots`)."""
    peak = abs(amp * freq)

    def roots(m, u):
        if not (m <= peak and u.size):
            return np.empty(0)
        half = np.pi / abs(freq)
        theta = np.arcsin(m / peak) / abs(freq)
        x = np.sort(u)
        gaps = np.flatnonzero(np.diff(x) > 4.0 * half)
        lo = x[np.r_[0, gaps + 1]] - 2.0 * half
        hi = x[np.r_[gaps, x.size - 1]] + 2.0 * half
        # k from (lo - theta) / half up to (hi + theta) / half in each window
        count = np.floor((hi - lo + 2.0 * theta) / half).astype(np.int64) + 1
        first = np.ceil((lo - theta) / half) - (np.cumsum(count) - count)
        k = (np.repeat(first, count) + np.arange(count.sum())) * half
        return np.concatenate([k - theta, k + theta])

    return roots


def _tanh_roots(amp, freq):
    """Slope roots of amp tanh(freq p): |amp freq| sech^2(freq p) = m at
    freq p = +-arccosh(sqrt(|amp freq| / m))."""
    peak = abs(amp * freq)

    def roots(m, u):
        if not m <= peak:
            return np.empty(0)
        r = np.arccosh(np.sqrt(peak / m)) / abs(freq)
        return np.array([-r, r])

    return roots


def _inv_quad_roots(amp):
    """Slope roots of amp / (1 + p^2): the real parts of the roots of
    m (1 + p^2)^2 +- 2 amp p = 0, a superset of the real ones."""
    def roots(m, u):
        return np.concatenate([np.roots([m, 0.0, 2.0 * m, s * amp, m]).real
                               for s in (2.0, -2.0)])

    return roots


def _envelope_roots(tc, m1):
    """Slope roots of phi_m1 = tc.inf_convolved(m1): the points a
    minimizer or maximizer of phi_m1(p) +- m|p - u| may need.

    phi_m1 = min(phi, cones phi_m1(c) + m1|x - c|) with apexes c at the
    kinks and m1-roots of phi.  Between two consecutive apexes a < b it is
    min(phi, line from a, line from b): its kinks there are the corner
    where the two lines meet and the crossings of phi with each line, and
    on its phi pieces its slope is phi's.  So the candidates are phi's
    m-roots, the apexes, the corners and the crossings, which bisection
    finds: phi minus a line is monotone between consecutive apexes.  The
    apexes come from the windows of u and of the first apexes found, so
    periodic data keep every bracket within a period of u whole.  Two
    virtual apexes, farther out than any cone can reach, bracket the
    crossings beyond the last real ones."""
    if m1 == 0.0:
        return _no_roots  # phi_0 is a constant
    reach = (tc.hi - tc.lo) / m1 + 1.0
    if reach == np.inf:
        raise ValueError(f"m = {m1!r} is too small for data in [{tc.lo!r}, {tc.hi!r}]: "
                         "(hi - lo) / m overflows")

    def roots(m, u):
        near = np.concatenate([u, tc.slope_roots(m1, u)])
        apex = np.union1d(tc.crit, tc.slope_roots(m1, near))
        if apex.size == 0:
            return tc.slope_roots(m, u)  # phi_m1 = phi
        apex = np.concatenate([[apex[0] - reach], apex, [apex[-1] + reach]])
        env = inf_convolution(tc, m1, apex)
        a, b, ea, eb = apex[:-1], apex[1:], env[:-1], env[1:]
        corner = 0.5 * (a + b) + (eb - ea) / (2.0 * m1)
        return np.concatenate([tc.slope_roots(m, u), apex, corner,
                               _crossings(tc.fn, a, corner, ea - m1 * a, m1),
                               _crossings(tc.fn, corner, b, eb + m1 * b, -m1)])

    return roots


def _crossings(fn, lo, hi, icept, slope):
    """Where fn(x) - (icept + slope x) changes sign on the brackets
    [lo, hi] on which it is monotone: both ends of each bracket whose ends
    differ in sign, bisected until no float lies between them."""
    up = fn(lo) > icept + slope * lo
    keep = up != (fn(hi) > icept + slope * hi)
    lo, hi, icept, up = lo[keep], hi[keep], icept[keep], up[keep]
    while True:
        mid = 0.5 * (lo + hi)
        inner = (lo < mid) & (mid < hi)
        if not inner.any():
            return np.concatenate([lo, hi])
        same = inner & ((fn(mid) > icept + slope * mid) == up)
        lo = np.where(same, mid, lo)
        hi = np.where(inner & ~same, mid, hi)


def _running_minima(keys):
    """The indices i with keys[i] <= keys[:i].min(), ascending: the
    smallest of keys[:j + 1] sits at the last of them <= j."""
    return np.flatnonzero(keys == np.minimum.accumulate(keys))


def _check_m(m):
    m = float(m)
    if not 0.0 <= m < np.inf:
        raise ValueError(f"need a finite m >= 0, got {m}")
    return m


def inf_convolution(tc, m, u):
    """Phi_m(u) = inf_p { Phi(p) + m|p-u| }; m = 0 gives the global infimum.

    Exact: the candidates are u, `tc.crit` and `tc.slope_roots(m, u)`.
    The running minima of phi(c) - m c over the sorted candidates (and of
    phi(c) + m c from the right) pick the best candidate on each side of
    each u, and the value is phi(c) + m|c - u| at those two and at u.
    Data linear between their knots thus get the direct minimum over the
    knots bit for bit, except where an m equal to a segment's slope ties
    two knots to within rounding.  Nothing here reads tc.lipschitz: for
    m >= L the identity lower_m = Phi comes out of the candidates.
    """
    m = _check_m(m)
    shape = np.shape(u)
    if m == 0.0:
        out = np.full(shape or (1,), tc.lo)
        return float(out.flat[0]) if not shape else out
    u = np.atleast_1d(np.asarray(u, dtype=float)).ravel()
    p = u + 0.0
    out = tc.fn(p) + m * np.abs(p - u)
    c = np.concatenate([tc.crit, tc.slope_roots(m, u)])
    if c.size:
        c.sort()
        phi = tc.fn(c)
        k = np.searchsorted(c, u)  # c[:k] < u <= c[k:]
        left = _running_minima(phi - m * c)
        right = c.size - 1 - _running_minima((phi + m * c)[::-1])[::-1]
        left = left[np.searchsorted(left, k - 1, side="right") - 1]
        right = right[np.minimum(np.searchsorted(right, k), right.size - 1)]
        for i in (left, right):
            out = np.minimum(out, phi[i] + m * np.abs(c[i] - u))
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
