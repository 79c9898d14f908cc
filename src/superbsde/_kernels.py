"""Hot numeric kernels, all pure numpy.

The implicit diffusion solve of the Hamilton-Jacobi substep
(``ImplicitDiffusion``; ``hj_solver.solve`` runs the substep loop), the
Euler-Maruyama path loop (``em_paths``) and the comb sweep
(``comb_cross_overlap``) are vectorized over cells, paths and teeth
respectively.  The path loop takes drifts and controls as vectorized
Python callables, so every drift and control kind runs the same code.

``em_paths`` is the package's one Euler loop.  It reads a control by step
index k, not by (t_k, x): ``simulate_paths`` hands it the control's
pointwise ``rate`` and stores no knots, and ``PathBundle.knots`` runs it
again on a block of paths to store theirs; the dual Monte Carlo pass
hands it each control's knot plan (``dual_mc``), stores no knots and has
it accumulate the penalty in the step itself, so that pass holds only
X_T and the per-path penalty of a block of paths.  The loop is
elementwise along the paths, which is why results do not depend on the
block size and a replayed block has the bits of the first run.
"""

import math

import numpy as np

# numba is not a dependency; perfbench/run.py reports this in its machine facts
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Implicit diffusion of the Hamilton-Jacobi substep
# ---------------------------------------------------------------------------

class ImplicitDiffusion:
    """Solve (I - c D2) delta = rhs along the last axis of rhs.

    D2 is the second difference whose ghost nodes copy the edge values
    (u_{-1} = u_0, u_n = u_{n-1}), the closure of the explicit stencil in
    hj_solver.solve.  I - c D2 (c >= 0) is a symmetric M-matrix with unit row
    sums, so its inverse is entrywise nonnegative with max-norm 1.

    The Thomas pivots d_i of I - c D2 = L diag(d) L^T follow from the
    leading minors p_i = A mu+^i + B mu-^i in closed form, so factoring
    has no loop over cells.  Both substitutions are first-order
    recurrences with the same multipliers beta_j = c / d_j, solved by
    Hillis-Steele doubling scans in log2(n) vectorized sweeps: cost does
    not depend on the prime factors of n.

    A stack of rows (any leading axes) is laid end to end on one
    contiguous axis, and each scan level is one 1-D update of it, so a
    stack costs about what one row of the same total length does.  The
    level multipliers w_flat repeat the row's w with zeros where a step
    would cross a row boundary; those products are then replaced by
    -0.0, the one addend that leaves every float unchanged, so each row
    comes out bit for bit as if solved alone, signed zeros included, and
    a non-finite entry does not reach another row.  One row is the
    rows = 1 case, whose w_flat is w itself.  The multipliers are cached
    for the last c, which changes only on substeps where the CFL bound,
    not the base step, is the limit; the flat ones are built on first
    use for each row count.  An instance keeps its scan buffers, so it
    serves one caller at a time.
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
        self._c, self._levels = c, levels
        self._inv_d = 1.0 / d
        self._plans = {}

    def _plan(self, rows):
        """The scan of `rows` rows laid end to end: a work buffer, inv_d
        repeated per row, and the forward and backward levels.  A level
        holds w_flat, fixed source, target and product views of the
        buffers, and the product entries whose step crosses a row
        boundary (None for one row)."""
        plan = self._plans.get(rows)
        if plan is None:
            n = self.n
            work = np.empty(rows * n)
            prod = np.empty(rows * n)
            cross = None
            forward, backward = [], []
            for shift, w in self._levels:
                if rows > 1:
                    w_flat = np.zeros(rows * n)
                    w_flat.reshape(rows, n)[:, :n - shift] = w
                    w = w_flat[:-shift]
                    cross = prod.reshape(rows, n)[:-1, n - shift:]
                forward.append((w, work[:-shift], work[shift:], prod[:-shift], cross))
                backward.append((w, work[shift:], work[:-shift], prod[:-shift], cross))
            plan = (work, np.tile(self._inv_d, rows), forward, backward)
            self._plans[rows] = plan
        return plan

    @staticmethod
    def _scan(levels):
        for w, src, dst, prod, cross in levels:
            np.multiply(w, src, out=prod)
            if cross is not None:
                cross[...] = -0.0
            np.add(dst, prod, out=dst)

    def _sweep(self, rhs):
        shape = np.shape(rhs)
        work, inv_d, forward, backward = self._plan(math.prod(shape) // self.n)
        work.reshape(shape)[...] = rhs
        self._scan(forward)
        work *= inv_d
        self._scan(backward)
        return work.reshape(shape).copy()

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


# ---------------------------------------------------------------------------
# Euler-Maruyama path loop (optionally Girsanov-tilted)
# ---------------------------------------------------------------------------

def em_paths(x0, t0, dt, dw, sigma, drift, store=False, control=None):
    """Euler-Maruyama over step-major increments dw of shape (n_steps, n_paths).

    Step k reads t_k = t0 + k dt and the state X_k once.  With a control,
    (q, c) = control(k, X_k) tilts the drift to b + sigma q, and c dt is
    added to the per-path running cost in the same step (c None adds
    nothing), so the penalty of a tilted run is the left-endpoint sum
    sum_k c_k dt.  q and c are arrays over the paths or scalars.  drift is
    a forward_model.Drift; one flagged `zero` is not evaluated, b = 0.0
    enters the same expressions, and every float is the one its zero
    arrays would give.  drift and control are vectorized Python callables.

    store=True asks for the x knots, path-major (n_paths, n_steps + 1).
    Without it only the current state is held, so memory does not grow with
    n_steps.  Every operation is elementwise along the paths, so a path's
    numbers do not depend on which other paths share the call.

    Returns (x_end, running, knots, diverged_step): the state where the loop
    stopped, the running cost (None without a control), the x knots or
    None, and the first step k whose new state X_{k+1} is non-finite (-1 if
    none).  A diverged run stops at that step."""
    n_steps, n_paths = dw.shape
    xc = np.full(n_paths, float(x0))
    running = None if control is None else np.zeros(n_paths)
    knots = None
    if store:
        knots = np.empty((n_paths, n_steps + 1))
        knots[:, 0] = x0
    zero = drift.zero
    b = 0.0
    for k in range(n_steps):
        if not zero:
            b = drift(t0 + k * dt, xc)
        if control is None:
            xc = xc + b * dt + sigma * dw[k]
        else:
            q, c = control(k, xc)
            xc = xc + (b + sigma * q) * dt + sigma * dw[k]
            if c is not None:
                running += c * dt
        if not np.isfinite(xc).all():
            return xc, running, knots, k
        if store:
            knots[:, k + 1] = xc
    return xc, running, knots, -1


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


_OVERLAP_CHUNK = 1 << 20


def comb_cross_overlap(alpha_j, period_j, width_j, period_k, width_k, edges):
    """Per-bin measure of teeth_j intersect teeth_k, binned by `edges`.

    Sweeps the alpha_j teeth of the coarser comb in chunks of
    _OVERLAP_CHUNK; teeth must be narrower than every bin (caller
    contract), so a tooth spans at most two bins."""
    nb = edges.shape[0] - 1
    out = np.zeros(nb)
    for start in range(1, alpha_j + 1, _OVERLAP_CHUNK):
        stop = min(start + _OVERLAP_CHUNK, alpha_j + 1)
        idx = np.arange(start, stop, dtype=np.float64)
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

