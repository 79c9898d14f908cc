"""Hot numeric kernels: numba-jitted loops with pure-numpy fallbacks.

The Hamilton-Jacobi step (``hj_base_step`` with its ``ImplicitDiffusion``
solve) is pure numpy and has no jitted twin.  The Euler-Maruyama and comb
kernels use the jitted path when numba imports cleanly and the
environment variable ``SUPERBSDE_DISABLE_NUMBA`` is unset/falsy; each has
a numpy twin with identical semantics, and the test suite asserts
agreement.

Jitted kernels only ever see plain arrays and scalar "kind" codes;
anything that needs a Python callable (custom drifts, sampled generators)
goes through the numpy path, which the callers select automatically.
"""

import os

import numpy as np

_ENV_DISABLE = os.environ.get("SUPERBSDE_DISABLE_NUMBA", "").lower() in ("1", "true", "yes")

try:
    if _ENV_DISABLE:
        raise ImportError("numba disabled by SUPERBSDE_DISABLE_NUMBA")
    from numba import njit

    USE_NUMBA = True
except ImportError:
    USE_NUMBA = False

    def njit(*args, **kwargs):
        # passthrough decorator so the jitted twins stay importable
        def wrap(f):
            return f

        if args and callable(args[0]):
            return args[0]
        return wrap


# generator kind codes shared with the jitted kernels
GEN_POWER = 0
GEN_QUADRATIC = 1

# drift kind codes: b(x) and b_x(x)
DRIFT_ZERO = 0
DRIFT_LINEAR = 1  # b = par*x
DRIFT_TANH = 2  # b = par*tanh(x)

# tilt kind codes
TILT_NONE = 0
TILT_CONST = 1
TILT_PIECEWISE = 2
TILT_FEEDBACK = 3


# ---------------------------------------------------------------------------
# Hamilton-Jacobi single base step (IMEX: implicit diffusion, explicit LLF)
# ---------------------------------------------------------------------------

class ImplicitDiffusion:
    """Solve (I - c D2) delta = rhs along the last axis of rhs.

    D2 is the second difference whose ghost nodes copy the edge values
    (u_{-1} = u_0, u_n = u_{n-1}), the closure of the explicit stencil in
    hj_base_step.  I - c D2 (c >= 0) is a symmetric M-matrix with unit row
    sums, so its inverse is entrywise nonnegative with max-norm 1.

    The Thomas pivots d_i of I - c D2 = L diag(d) L^T follow from the
    leading minors p_i = A mu+^i + B mu-^i in closed form, so factoring
    has no loop over cells.  Both substitutions are first-order
    recurrences with the same multipliers beta_j = c / d_j, solved by
    Hillis-Steele doubling scans in log2(n) vectorized sweeps: cost does
    not depend on the prime factors of n, and rows stack along leading
    axes.  The scan multipliers are cached for the last c, which changes
    only on substeps where the CFL bound, not the base step, is the limit.
    """

    # scan multipliers below this add less than rounding to any entry
    _NEGLIGIBLE = 1e-18
    _REFINE_ABOVE = 100.0

    def __init__(self, n):
        self.n = n
        self._c = None

    def _factor(self, c):
        n = self.n
        b = 1.0 + 2.0 * c
        s = np.sqrt(1.0 + 4.0 * c)
        mu_p = 0.5 * (b + s)
        rho = c * c / (mu_p * mu_p)  # mu- / mu+
        a_w = 0.5 * (1.0 + s) / s  # p_0 = 1, p_1 = 1 + c
        rp = rho ** np.arange(n - 1)
        d = np.empty(n)
        d[:-1] = mu_p * (a_w + (1.0 - a_w) * rp * rho) / (a_w + (1.0 - a_w) * rp)
        d[-1] = 1.0 + c - c * c / d[-2]
        w = c / d[:-1]
        levels = []
        shift = 1
        while shift < n:
            levels.append((shift, w))
            w = w[:-shift] * w[shift:]
            if w.size == 0 or w.max() < self._NEGLIGIBLE:
                break
            shift *= 2
        self._c, self._inv_d, self._levels = c, 1.0 / d, levels

    def _sweep(self, rhs):
        y = np.array(rhs, dtype=float)
        for shift, w in self._levels:
            y[..., shift:] += w * y[..., :-shift]
        y *= self._inv_d
        for shift, w in self._levels:
            y[..., :-shift] += w * y[..., shift:]
        return y

    def _apply(self, x, c):
        d2 = np.empty_like(x)
        d2[..., 1:-1] = x[..., 2:] - 2.0 * x[..., 1:-1] + x[..., :-2]
        d2[..., 0] = x[..., 1] - x[..., 0]
        d2[..., -1] = x[..., -2] - x[..., -1]
        return x - c * d2

    def __call__(self, rhs, c):
        if c != self._c:
            self._factor(c)
        y = self._sweep(rhs)
        if c > self._REFINE_ABOVE:
            # the scans' rounding grows roughly like c; one refinement
            # sweep brings the residual back to that of a sequential solve
            y += self._sweep(rhs - self._apply(y, c))
        return y


def hj_base_step(u, bvals, dx, sigma, h_vec, hp_vec, pcap, dt_base, max_substeps,
                 cfl, diffusion):
    """Advance one backward base step of size dt_base by IMEX substeps.

    Each substep forms the explicit increment

        inc = dtau (0.5 sigma^2 d2 - H + 0.5 theta dx d2)

    (centered second differences, local Lax-Friedrichs Hamiltonian H with
    dissipation theta, edge ghosts copying the edge value) and adds
    diffusion(inc, c) with c = 0.5 sigma^2 dtau / dx^2.  That is the delta
    form of (I - c D2) u_new = u + dtau (0.5 theta dx d2 - H): the diffusion
    is implicit, and a zero increment leaves u exactly unchanged.  Only the
    hyperbolic bound dtau <= cfl dx / theta_max limits the substep; with
    cfl <= 1 the explicit part is monotone and (I - c D2)^{-1} >= 0, so the
    step is monotone.  h_vec/hp_vec are vectorized radial profiles, so any
    generator (sampled, truncated, custom) works.

    Returns (u_new, n_substeps, cap_hit); n_substeps == -1 signals the
    substep ceiling was exceeded.  A non-finite theta ends the step early
    and returns the non-finite state for the caller to reject.
    """
    n = u.shape[0]
    cur = u.copy()
    sig2 = sigma * sigma
    asig = abs(sigma)
    dx2 = dx * dx
    babs = np.abs(bvals)
    consumed = 0.0
    nsub = 0
    cap_hit = False
    pad = np.empty(n + 2)
    while consumed < dt_base:
        pad[1:-1] = cur
        pad[0] = cur[0]
        pad[-1] = cur[-1]
        pp = (pad[2:] - cur) / dx
        pm = (cur - pad[:-2]) / dx
        pc = 0.5 * (pp + pm)
        pa = np.abs(pc)
        if np.any(pa > pcap):
            cap_hit = True
            pa = np.minimum(pa, pcap)
        pl = np.minimum(np.maximum(np.abs(pp), np.abs(pm)), pcap)
        theta = asig * hp_vec(asig * pl) + babs
        theta_max = theta.max()
        if not np.isfinite(theta_max):
            return cur, nsub, cap_hit
        rem = dt_base - consumed
        dtau = rem if theta_max == 0.0 else min(cfl * dx / theta_max, rem)
        ham = h_vec(asig * pa) - pc * bvals
        d2 = (pad[2:] - 2.0 * cur + pad[:-2]) / dx2
        inc = dtau * (0.5 * sig2 * d2 - ham + 0.5 * theta * dx * d2)
        cur = cur + diffusion(inc, 0.5 * sig2 * dtau / dx2)
        consumed += dtau
        nsub += 1
        if nsub > max_substeps:
            return cur, -1, cap_hit
    return cur, nsub, cap_hit


# ---------------------------------------------------------------------------
# Euler-Maruyama path loop (optionally Girsanov-tilted)
# ---------------------------------------------------------------------------

@njit(inline="always")
def _pow_pos(r, p):
    # generic float pow dominates the cell loop; the common exponents are
    # small integers, so special-case them into multiplications
    if p == 1.0:
        return r
    if p == 2.0:
        return r * r
    if p == 3.0:
        return r * r * r
    if p == 4.0:
        r2 = r * r
        return r2 * r2
    return r ** p


@njit(inline="always")
def _drift_eval(dkind, dpar, x):
    if dkind == DRIFT_ZERO:
        return 0.0, 0.0
    if dkind == DRIFT_LINEAR:
        return dpar * x, dpar
    th = np.tanh(x)
    return dpar * th, dpar * (1.0 - th * th)


@njit(inline="always")
def _gprime_eval(gkind, gpar, z):
    if gkind == GEN_POWER:
        if z == 0.0:
            return 0.0
        m = gpar * _pow_pos(abs(z), gpar - 1.0)
        return m if z > 0.0 else -m
    return 2.0 * gpar * z


@njit(inline="always")
def _tilt_eval(tkind, tpar, t_brk, q_vals, tg0, dtg, nt, xg0, dxg, nx, zmat,
               gkind, gpar, t, x):
    if tkind == TILT_NONE:
        return 0.0
    if tkind == TILT_CONST:
        return tpar
    if tkind == TILT_PIECEWISE:
        idx = np.searchsorted(t_brk, t, side='right')
        return q_vals[idx]
    # feedback: bilinear interpolation of the z-field, then g'
    ft = (t - tg0) / dtg
    it = int(ft)
    if it < 0:
        it = 0
    if it > nt - 2:
        it = nt - 2
    lt = ft - it
    if lt < 0.0:
        lt = 0.0
    if lt > 1.0:
        lt = 1.0
    fx = (x - xg0) / dxg
    ix = int(fx)
    if ix < 0:
        ix = 0
    if ix > nx - 2:
        ix = nx - 2
    lx = fx - ix
    if lx < 0.0:
        lx = 0.0
    if lx > 1.0:
        lx = 1.0
    z = ((1.0 - lt) * ((1.0 - lx) * zmat[it, ix] + lx * zmat[it, ix + 1])
         + lt * ((1.0 - lx) * zmat[it + 1, ix] + lx * zmat[it + 1, ix + 1]))
    return _gprime_eval(gkind, gpar, z)


@njit(cache=True, fastmath=True)
def em_paths_numba(x0, t0, dt, dw, sigma, dkind, dpar, tkind, tpar, t_brk, q_vals,
                   tg0, dtg, nt, xg0, dxg, nx, zmat, gkind, gpar):
    """Euler-Maruyama with exact per-step exponential variational flow.

    Returns (x_paths, flow_paths, diverged_step); diverged_step is -1 on
    success."""
    npaths, nsteps = dw.shape
    x = np.empty((npaths, nsteps + 1))
    flow = np.empty((npaths, nsteps + 1))
    diverged = -1
    for p in range(npaths):
        xc = x0
        fc = 1.0
        x[p, 0] = xc
        flow[p, 0] = fc
        for k in range(nsteps):
            t = t0 + k * dt
            b, bx = _drift_eval(dkind, dpar, xc)
            q = _tilt_eval(tkind, tpar, t_brk, q_vals, tg0, dtg, nt, xg0, dxg, nx,
                           zmat, gkind, gpar, t, xc)
            xc = xc + (b + sigma * q) * dt + sigma * dw[p, k]
            if bx != 0.0:
                fc = fc * np.exp(bx * dt)
            if not np.isfinite(xc):
                return x, flow, k
            x[p, k + 1] = xc
            flow[p, k + 1] = fc
    return x, flow, diverged


def em_paths_numpy(x0, t0, dt, dw, sigma, drift, drift_x, rate):
    """Numpy twin: drift, drift_x and rate(t, x) are vectorized Python
    callables (rate may be None for an untilted run)."""
    npaths, nsteps = dw.shape
    x = np.empty((npaths, nsteps + 1))
    flow = np.empty((npaths, nsteps + 1))
    x[:, 0] = x0
    flow[:, 0] = 1.0
    xc = np.full(npaths, float(x0))
    fc = np.ones(npaths)
    for k in range(nsteps):
        t = t0 + k * dt
        b = drift(t, xc)
        bx = drift_x(t, xc)
        if rate is not None:
            xc = xc + (b + sigma * rate(t, xc)) * dt + sigma * dw[:, k]
        else:
            xc = xc + b * dt + sigma * dw[:, k]
        fc = fc * np.exp(bx * dt)
        if not np.all(np.isfinite(xc)):
            return x, flow, k
        x[:, k + 1] = xc
        flow[:, k + 1] = fc
    return x, flow, -1


# ---------------------------------------------------------------------------
# Periodic comb measures (non-stability construction)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _comb_measure_nb(t, period, width):
    if t <= 0.0:
        return 0.0
    n = np.floor(t / period)
    r = t - n * period
    extra = r - (period - width)
    if extra < 0.0:
        extra = 0.0
    return n * width + extra


def comb_measure(t, period, width):
    """Lebesgue measure of [0, t] intersected with the comb whose tooth is
    the last `width` of each `period` (vectorized in t)."""
    t = np.asarray(t, dtype=float)
    n = np.floor(np.maximum(t, 0.0) / period)
    r = np.maximum(t, 0.0) - n * period
    return n * width + np.maximum(0.0, r - (period - width))


@njit(cache=True)
def comb_cross_overlap_numba(alpha_j, period_j, width_j, period_k, width_k, edges):
    """Per-bin measure of teeth_j intersect teeth_k, binned by `edges`.

    Sweeps the alpha_j teeth of the coarser comb; teeth must be narrower
    than every bin (caller contract), so a tooth spans at most two bins."""
    nb = edges.shape[0] - 1
    out = np.zeros(nb)
    for i in range(1, alpha_j + 1):
        b = i * period_j
        a = b - width_j
        ov = _comb_measure_nb(b, period_k, width_k) - _comb_measure_nb(a, period_k, width_k)
        if ov <= 0.0:
            continue
        ia = np.searchsorted(edges, a, side='right') - 1
        ib = np.searchsorted(edges, b, side='right') - 1
        if ia < 0:
            ia = 0
        if ib > nb - 1:
            ib = nb - 1
        if ia == ib:
            out[ia] += ov
        else:
            split = edges[ib]
            left = _comb_measure_nb(split, period_k, width_k) - _comb_measure_nb(a, period_k, width_k)
            out[ia] += left
            out[ib] += ov - left
    return out


def comb_cross_overlap_numpy(alpha_j, period_j, width_j, period_k, width_k, edges,
                             chunk=1 << 20):
    nb = edges.shape[0] - 1
    out = np.zeros(nb)
    for start in range(1, alpha_j + 1, chunk):
        idx = np.arange(start, min(start + chunk, alpha_j + 1), dtype=np.float64)
        b = idx * period_j
        a = b - width_j
        ov = comb_measure(b, period_k, width_k) - comb_measure(a, period_k, width_k)
        keep = ov > 0.0
        if not np.any(keep):
            continue
        a, b, ov = a[keep], b[keep], ov[keep]
        ia = np.clip(np.searchsorted(edges, a, side='right') - 1, 0, nb - 1)
        ib = np.clip(np.searchsorted(edges, b, side='right') - 1, 0, nb - 1)
        same = ia == ib
        np.add.at(out, ia[same], ov[same])
        if np.any(~same):
            aa, bb, oo = a[~same], b[~same], ov[~same]
            ja, jb = ia[~same], ib[~same]
            left = comb_measure(edges[jb], period_k, width_k) - comb_measure(aa, period_k, width_k)
            np.add.at(out, ja, left)
            np.add.at(out, jb, oo - left)
    return out


# the EM kernels differ in signature between paths (kind codes vs
# callables), so their callers dispatch explicitly on USE_NUMBA plus
# whether the inputs are kind-codeable; only the comb sweep is a drop-in
comb_cross_overlap = comb_cross_overlap_numba if USE_NUMBA else comb_cross_overlap_numpy
