"""Path-level verifiers tying the PDE output back to the backward equation:
step/terminal residuals, the BMO energy bound, the a-priori Z and penalty
envelopes, and the gradient-blowup exponent fit.

All functions are pure over immutable inputs; reruns with the same
(seed, grid) are bit-identical.  They read one primary array, u of the
solution, and the seed of the path bundle, and derive the rest where they
read it: Z rows from u (`PdeSolution.z_of`: on stacks of the levels
read, in a streamed pass over u, for the envelopes and the exponent fit;
at the levels its knots fall between for the residual), and the
increments and x knots of one block of paths at a time from the seed
(`PathBundle.increments`, `PathBundle.knots`).  The residual keeps the per-path sums it reports as
running sums, so beside the solution it holds the u and Z rows of those
levels, one block of increments and of knots, arrays of one knot and
a few per-path arrays.  An envelope whose threshold is zero (zero data)
reads ratio 0 where Z is zero too and inf elsewhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResolutionError, SuperbsdeError
from .hj_solver import z_envelope


class NoFitError(SuperbsdeError):
    """Exponent fit impossible (degenerate Z-field)."""


# levels closer to T than this many base steps are resolution-limited, not
# statements about the continuous bounds
EDGE_STEPS = 10
# largest share of paths that may leave the spatial grid; the `checks`
# command's exclusion row holds bsde_residual's report to it
MAX_EXCLUDED = 0.01
# points of the convexity probe in penalty_bound_check
_CONVEXITY_POINTS = 256
# floats of u rows stacked before their Z rows and peaks are computed
# (_z_peaks): all 201 levels of a 128-node grid, 20 rows of 3201 nodes
_Z_STACK_FLOATS = 2**16


@dataclass(frozen=True)
class ResidualReport:
    rms_terminal_residual: float
    max_step_residual: float
    energy: float
    energy_se: float
    excluded_fraction: float


def _same_model(a, b):
    """Same sigma, horizon and drift (kind and parameters)."""
    return ((a.sigma, a.horizon, type(a.drift), vars(a.drift))
            == (b.sigma, b.horizon, type(b.drift), vars(b.drift)))


def bsde_residual(sol, model, gen, bundle):
    """Pathwise consistency of (u, Z) with the backward dynamics.

    Along each untilted path, Y_s = u(s, X_s) and Z_s = Z(s, X_s) are read
    off the grid by bilinear interpolation.  Step residuals are
    |Y_{k+1} - Y_k - g(Z_k) dt + Z_k dB_k|; the terminal residual
    integrates the dynamics forward from u(t0, x0) and compares against
    Phi(X_T).  Paths leaving the spatial grid are excluded and their share
    is reported, whatever it is; fewer than 2 paths left on the grid is a
    domain error, since the energy's standard error needs two.  A bundle
    whose time span [t0, T] is not the solution's, or whose model is not
    `model` (another sigma, drift or horizon), raises ValueError.

    It walks the paths in blocks of `forward_model.BLOCK_PATHS`, drawing
    each block's increments once (`PathBundle.map_blocks`), which drive
    both the replay of its knots (`PathBundle.knots`) and the sums, and
    each block's knots in order, one set of lookup weights per knot for u
    and Z.  Z is computed once per call, at the levels the knots fall
    between (two per knot at most), and u is read in place or, from a
    checkpointed solve, at those levels, read once
    (`PdeSolution._fields_between`).  It streams the two per-path sums it
    reports, sum_k (g(Z_k) dt - Z_k dB_k) and sum_k Z_k^2, in knot order.
    Beside the solution it holds those rows, one block of increments and
    one of knots, arrays of one knot of a block and four per-path arrays;
    every step is elementwise along the paths, so the report does not
    depend on the block size.
    """
    if bundle.tilted:
        raise ValueError("bsde_residual expects an untilted bundle")
    if not _same_model(model, bundle.model):
        raise ValueError(f"the bundle was simulated under {bundle.model!r}, not {model!r}")
    span, sol_span = (bundle.t0, bundle.model.horizon), (sol.t0, sol.horizon)
    if span != sol_span:
        raise ValueError(f"the bundle spans [t0, T] = [{span[0]!r}, {span[1]!r}] "
                         f"but the solution spans [{sol_span[0]!r}, {sol_span[1]!r}]")
    n_paths, n_steps = bundle.n_paths, bundle.n_steps
    times = bundle.times
    dt = bundle.dt
    x_lo, x_hi = sol.x_grid[0], sol.x_grid[-1]
    # u and Z at the levels the knots fall between, for every block
    u_desc, u_pos, z_desc, z_pos = sol._fields_between(sol._time_weights(times)[0])
    inside = np.empty(n_paths, dtype=bool)
    inc_sum = np.zeros(n_paths)
    z2_sum = np.zeros(n_paths)
    x_end = np.empty(n_paths)
    max_step = 0.0

    def walk(start, stop, dw):
        nonlocal max_step
        x = bundle.knots(dw=dw)
        keep = (x.min(axis=1) >= x_lo) & (x.max(axis=1) <= x_hi)
        inside[start:stop] = keep
        x_end[start:stop] = x[:, -1]
        if not keep.any():
            return
        inc_b = np.zeros(int(np.count_nonzero(keep)))
        z2_b = np.zeros_like(inc_b)
        for k in range(n_steps + 1):
            xk = x[:, k][keep]
            w = sol._weights(times[k], xk)
            yk = sol._interpolate(u_desc, (u_pos[k], *w[1:]))
            if k > 0:
                max_step = np.maximum(max_step, np.max(np.abs(yk - y_prev - inc)))
            if k < n_steps:
                zk = sol._interpolate(z_desc, (z_pos[k], *w[1:]))
                gz = np.asarray(gen.eval(zk), dtype=float)
                inc = gz * dt - zk * dw[k][keep]
                inc_b += inc
                z2_b += zk * zk
            y_prev = yk
        inc_sum[start:stop][keep] = inc_b
        z2_sum[start:stop][keep] = z2_b

    bundle.map_blocks(walk)
    excluded = 1.0 - float(np.mean(inside))
    n_used = int(np.count_nonzero(inside))
    if n_used < 2:
        raise DomainError(
            f"{excluded:.1%} of paths left the grid; {n_used} stayed, need 2")
    y_num_T = sol.u_at(bundle.t0, bundle.x0) + inc_sum[inside]
    terminal = y_num_T - np.asarray(sol.tc(x_end[inside]), dtype=float)
    energy_paths = z2_sum[inside] * dt
    return ResidualReport(
        rms_terminal_residual=float(np.sqrt(np.mean(terminal**2))),
        max_step_residual=float(max_step),
        energy=float(np.mean(energy_paths)),
        energy_se=float(np.std(energy_paths, ddof=1) / np.sqrt(n_used)),
        excluded_fraction=excluded,
    )


@dataclass(frozen=True)
class BmoReport:
    energy: float
    bound: float
    passed: bool


def bmo_energy_check(report, sup_norm):
    """Sample E int Z^2 dt against the BMO bound 4 ||Phi||^2 (+ 3 SE)."""
    bound = 4.0 * sup_norm**2
    limit = bound + 3.0 * report.energy_se
    return BmoReport(energy=report.energy, bound=bound,
                     passed=report.energy <= limit)


@dataclass(frozen=True)
class EnvelopeReport:
    worst_ratio: float
    worst_time_to_go: float
    n_levels: int
    threshold_at_worst: float
    passed: bool
    skipped_reason: str = ""


def _z_peaks(sol, *wanted):
    """For each (levels, peak) in `wanted`, the peak of the Z row of each
    level in levels (ascending indices into t_grid), from one streamed
    pass over u (`PdeSolution.walk`).  The rows of the levels wanted are
    stacked in order, up to _Z_STACK_FLOATS floats, and each stack's Z rows
    come from one `z_of` call; peak reduces them along the last axis.
    Every step is elementwise or a reduction along a row, so the peaks do
    not depend on how the levels are stacked.  No level wanted walks
    nothing."""
    masks = np.zeros((len(wanted), sol.t_grid.size), dtype=bool)
    for mask, (levels, _) in zip(masks, wanted):
        mask[levels] = True
    read = masks.any(axis=0).tolist()
    peaks = [[] for _ in wanted]
    held, rows = [], []

    def flush():
        z = sol.z_of(np.stack(rows))
        for mask, (_, peak), out in zip(masks, wanted, peaks):
            sel = mask[held]
            if sel.all():
                out.append(peak(z))
            elif sel.any():
                out.append(peak(z[sel]))
        held.clear()
        rows.clear()

    for k, row in enumerate(sol.walk() if any(read) else ()):
        if read[k]:
            held.append(k)
            rows.append(row)
            if (len(rows) + 1) * row.size > _Z_STACK_FLOATS:
                flush()
    if rows:
        flush()
    return [np.concatenate(p) if p else np.empty(0) for p in peaks]


def _abs_max(z):
    return np.max(np.abs(z), axis=-1)


def _window(sol):
    """Time to go T - s_k of every level, and the indices of the levels
    with T - s_k >= EDGE_STEPS dt."""
    tau = sol.level_time_to_go()
    return tau, np.nonzero(tau >= EDGE_STEPS * sol.dt - 1e-12)[0]


def _worst_level(tau, idx, peaks, threshold):
    """Largest peaks[j] / threshold(tau[idx[j]]) over the window idx
    (`_window`), at the first level that attains it; an empty window gives
    worst_ratio = -inf and passes.  A zero threshold (zero data) gives
    ratio 0 where the peak is 0 too and inf otherwise."""
    if idx.size == 0:
        return EnvelopeReport(worst_ratio=-np.inf, worst_time_to_go=np.nan, n_levels=0,
                              threshold_at_worst=np.nan, passed=True)
    thr = threshold(tau[idx])
    ratios = np.divide(peaks, thr, out=np.where(peaks == 0.0, 0.0, np.inf),
                       where=thr != 0.0)
    j = int(np.argmax(ratios))
    return EnvelopeReport(worst_ratio=float(ratios[j]),
                          worst_time_to_go=float(tau[idx[j]]), n_levels=int(idx.size),
                          threshold_at_worst=float(thr[j]), passed=bool(ratios[j] <= 1.0))


def apriori_z_bound(sol, model, sup_norm):
    """max_x |Z(s, .)| against 2 exp(lambda T) ||Phi|| (T-s)^{-1/2}, with
    lambda = sup |b_x| = model.lam, on every level with T-s >= 10 dt."""
    tau, idx = _window(sol)
    (peaks,) = _z_peaks(sol, (idx, _abs_max))
    return _worst_level(tau, idx, peaks, lambda tau: z_envelope(model, sup_norm, tau))


def _composite_convex(gen, conj, r_hi):
    """Numerical convexity probe of z -> f(g'(z)) on [0, r_hi] (the radial
    profile suffices; the composite is even)."""
    r = np.linspace(0.0, max(r_hi, 1.0), _CONVEXITY_POINTS)
    vals = np.asarray(conj.eval(np.asarray(gen.grad(r), dtype=float)), dtype=float)
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    return bool(np.all(second >= -1e-9 * max(1.0, np.max(np.abs(vals)))))


def penalty_bound_check(sol, gen, conj, sup_norm):
    """max_x f(g'(Z(s, .))) against 2 ||Phi|| (T-s)^{-1} where the composite
    f o g' is convex (for g = |z|^q it is (q-1)|z|^q); skipped otherwise.

    One streamed pass over u gives both the |Z| peak of every level, for
    the convexity probe, and the composite peaks of the window, which are
    dropped when the composite is not convex."""
    def composite_peak(z):
        return np.max(conj.eval(np.asarray(gen.grad(z), dtype=float)), axis=-1)
    tau, idx = _window(sol)
    z_peaks, composite = _z_peaks(sol, (np.arange(sol.t_grid.size), _abs_max),
                                  (idx, composite_peak))
    if not _composite_convex(gen, conj, float(np.max(z_peaks))):
        return EnvelopeReport(worst_ratio=np.nan, worst_time_to_go=np.nan,
                              n_levels=0, threshold_at_worst=np.nan, passed=True,
                              skipped_reason="composite f(g'(.)) not convex")
    return _worst_level(tau, idx, composite, lambda tau: 2.0 * sup_norm / tau)


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    stderr: float
    expected: float
    n_levels: int


def exponent_fit(sol, q):
    """Least-squares slope of log max_x |Z(s,.)| vs log(T-s) over the window
    10 dt <= T-s <= T/10, compared with the predicted -1/q."""
    tau = sol.level_time_to_go()
    span = sol.horizon - sol.t0
    keep = (tau >= EDGE_STEPS * sol.dt - 1e-12) & (tau <= span / 10.0 + 1e-12)
    if int(np.count_nonzero(keep)) < 20:
        raise ResolutionError(
            "need >= 20 levels with 10 dt <= T-s <= T/10 for the exponent fit")
    (zmax,) = _z_peaks(sol, (np.flatnonzero(keep), _abs_max))
    if np.max(zmax) < 1e-12:
        raise NoFitError("Z-field is degenerate (identically ~0)")
    lx = np.log(tau[keep])
    ly = np.log(zmax)
    n = lx.size
    coeffs, residuals, *_ = np.polyfit(lx, ly, 1, full=True)
    slope = float(coeffs[0])
    ssr = float(residuals[0]) if residuals.size else 0.0
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    stderr = float(np.sqrt(ssr / max(n - 2, 1) / sxx))
    return ExponentFit(slope=slope, stderr=stderr, expected=-1.0 / q,
                       n_levels=int(n))
