"""Hot numeric kernels, all pure numpy.

The Hamilton-Jacobi step (``hj_base_step`` with its ``ImplicitDiffusion``
solve), the Euler-Maruyama path loop (``em_paths``) and the comb sweep
(``comb_cross_overlap``) are vectorized over cells, paths and teeth
respectively.  The step and the path loop take generator profiles, drifts
and tilts as vectorized Python callables, so every kind (sampled,
truncated, custom) runs the same code.
"""

import numpy as np

# numba is not a dependency; perfbench/run.py reports this in its machine facts
USE_NUMBA = False


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

def em_paths(x0, t0, dt, dw, sigma, drift, drift_x, rate):
    """Euler-Maruyama with exact per-step exponential variational flow.

    drift, drift_x and rate(t, x) are vectorized Python callables (rate
    may be None for an untilted run).  Returns (x_paths, flow_paths,
    diverged_step); diverged_step is -1 on success."""
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

def comb_measure(t, period, width):
    """Lebesgue measure of [0, t] intersected with the comb whose tooth is
    the last `width` of each `period` (vectorized in t)."""
    t = np.asarray(t, dtype=float)
    n = np.floor(np.maximum(t, 0.0) / period)
    r = np.maximum(t, 0.0) - n * period
    return n * width + np.maximum(0.0, r - (period - width))


def comb_cross_overlap(alpha_j, period_j, width_j, period_k, width_k, edges,
                       chunk=1 << 20):
    """Per-bin measure of teeth_j intersect teeth_k, binned by `edges`.

    Sweeps the alpha_j teeth of the coarser comb in chunks; teeth must be
    narrower than every bin (caller contract), so a tooth spans at most
    two bins."""
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
            aa, oo = a[~same], ov[~same]
            ja, jb = ia[~same], ib[~same]
            left = comb_measure(edges[jb], period_k, width_k) - comb_measure(aa, period_k, width_k)
            np.add.at(out, ja, left)
            np.add.at(out, jb, oo - left)
    return out

