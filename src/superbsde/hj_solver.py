"""Backward-in-time monotone finite-difference solver for the viscous
Hamilton-Jacobi equation

    u_t + 0.5 sigma^2 u_xx + u_x b(t,x) - g(-u_x sigma) = 0,  u(T,.) = Phi,

plus the exact Cole-Hopf reference for the quadratic generator, by a
Gauss-Hermite rule (`_gauss_hermite_rule`, shared with `dual_mc`) that
is built at the first quadrature, not at import: numpy.polynomial and
the LAPACK pages of its eigenvalue solve load only in a run that needs
them.

Scheme: IMEX stepping in time-to-go.  The diffusion 0.5 sigma^2 u_xx is
implicit (centered second differences, one tridiagonal solve per
substep); the Hamiltonian is explicit with a local Lax-Friedrichs flux.
At the two edges the ghost node copies the edge value (a Neumann ghost),
for the diffusion and the flux alike.  Substeps obey only the hyperbolic
CFL bound

    dt_eff <= CFL_SAFETY dx / max_i theta_i,

with theta_i = |sigma| g'(|sigma| p_i) + |b_i| the Lax-Friedrichs
dissipation at the larger (clamped) one-sided slope p_i, not the dx^2
diffusion bound.  The implicit part is the inverse of an M-matrix and
the explicit part is monotone under that bound, so the scheme is
monotone and the discrete comparison and maximum principles hold.  A
level that turns non-finite or meets a non-finite theta raises
ResolutionError.  The substep works in place on a state kept inside its
ghost-padded buffer and gives the floats of the textbook form of the
scheme bit for bit (see `solve`).

The superquadratic Hamiltonian has an unbounded gradient Lipschitz
constant, so the gradient argument of g is clamped at 1.5x the a-priori
envelope 2 exp(lambda T) ||Phi|| (T-s)^{-1/2} / sigma, lambda = sup |b_x|
(`model.lam`); for Lipschitz terminal data the time-uniform bound
L sigma exp(2 lambda T) is taken when smaller, which keeps the
dissipation coefficient (and the substep count) bounded away from the
terminal layer.  The clamp is applied one
level in: stepping out of s = T uses the envelope at T - dt, never at T
itself.

A solve keeps every level when the field fits KEEP_FLOATS floats and
otherwise checkpoints only; a level it did not keep is replayed from the
checkpoint before it by the same level step (`_LevelStep`), bit for bit
(Griewank and Walther, "revolve", ACM TOMS 26, 2000).
"""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import _kernels
from .errors import NotGaussianError, ResolutionError
from .generators import QuadraticGenerator

CAP_SAFETY = 1.5
CFL_SAFETY = 0.9  # hyperbolic CFL factor; <= 1 keeps the explicit part monotone
MAX_SUBSTEPS = 1 << 21  # per level; more raises ResolutionError
# levels x members x nodes of a field a solve keeps whole (8 MiB of floats)
KEEP_FLOATS = 1 << 20


@dataclass
class GridSpec:
    """Spatial/temporal discretization request.

    The domain is [x_lo, x_hi] when both are set (one alone is an error)
    and otherwise x_center +- (6 sigma sqrt(T-t0) + drift range + pad); dt
    is a target base step, rounded so the horizon divides evenly.
    """

    n_x: int = 641
    dt: float = 1e-3
    x_center: float = 0.0
    pad: float = 2.0
    x_lo: float = None
    x_hi: float = None


class _Replay(NamedTuple):
    """What a checkpointed solve keeps for replay: its level step, the
    levels it kept (ascending indices into t_grid) and their rows, every
    member of a stack."""

    step: object
    kept: np.ndarray
    u: np.ndarray


@dataclass
class PdeSolution:
    """u on the grid, levels from T down to t0 in t_grid.

    u is the one stored field.  It holds every level when the field
    (levels x members x nodes) fits KEEP_FLOATS floats; otherwise it holds
    the checkpoints only, every ceil(sqrt(n_t))-th level and the last two,
    and `replay` keeps the solve's level step and the kept level indices.
    Either way u[0] is the terminal level and u[-1] the level at t0, and
    cap_active and substeps have one entry per level.

    Every level is a deterministic function of the level before it, so a
    level that was not kept is replayed from the checkpoint before it by
    the level step of the solve itself and has the solve's bits; a replay
    adds nothing to substeps.  `rows(levels)` is the batched read and
    `walk()` the streaming pass over every level in solve order; each
    call steps a level at most once and keeps nothing.  When every level
    is kept, or a level read is a checkpoint, a read is a plain gather
    from u.  `u_at` and `z_at` read the two levels each lookup time falls
    between, so a lookup at t0 reads the last two levels, which are kept.

    Z = -u_x sigma (central differences inside, one-sided at the edges)
    is derived from u where it is read: `z_rows` computes the rows of the
    levels asked for, a Z lookup the two levels it interpolates between,
    and nothing keeps them.  A Z row depends on its u row only, so every
    reader gets the same bits.

    A stacked solve has a member axis after the level axis; lookups,
    to_npy and to_csv read one member and raise ValueError on a stack, so
    split it with `members()` first.  A member's replay steps the whole
    stack, since its members share the clamp and every substep, and reads
    its own column."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    u: np.ndarray
    cap_active: np.ndarray
    substeps: np.ndarray
    model: object
    tc: object
    replay: _Replay = None  # None: u holds every level
    member: int = None  # the column of the stack's replay a member reads

    @property
    def dx(self):
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def dt(self):
        return float(self.t_grid[0] - self.t_grid[1])

    @property
    def t0(self):
        return float(self.t_grid[-1])

    @property
    def horizon(self):
        return float(self.t_grid[0])

    def rows(self, levels):
        """u at the levels `levels` (an index, slice or index array into
        t_grid, levels from T down), as u[levels] reads with every level
        kept; a stack gives every member of each level."""
        if self.replay is None:
            return self.u[levels]
        want = np.arange(self.t_grid.size)[levels]
        # a mask over the levels, not np.unique, which imports numpy.ma
        need = np.zeros(self.t_grid.size, dtype=bool)
        need[want] = True
        ascending = np.flatnonzero(need)
        got = np.empty((ascending.size, *self.u.shape[1:]))
        for i, row in enumerate(self._replayed(ascending)):
            got[i] = row
        return got[np.searchsorted(ascending, want)]

    def walk(self):
        """u at every level in solve order (from T down), one row per level;
        a stack gives every member of each level.  A checkpointed solve
        replays each level once, holding O(1) rows."""
        if self.replay is None:
            return iter(self.u)
        return self._replayed(range(self.t_grid.size))

    def _replayed(self, levels):
        """This solution's row at each of `levels` (ascending indices into
        t_grid): a kept row where there is one, otherwise the state stepped
        on from the checkpoint before the level, or from the last level
        stepped to when that is nearer."""
        step, kept, u = self.replay
        col = () if self.member is None else (self.member,)
        pad = np.empty((*u.shape[1:-1], u.shape[-1] + 2))
        at = -1  # the level the state in pad holds
        for k in levels:
            j = int(np.searchsorted(kept, k, side="right")) - 1
            if kept[j] == k:
                yield u[j][col]
                continue
            if at < kept[j]:
                pad[..., 1:-1] = u[j]
                at = int(kept[j])
            while at < k:
                step(at, pad)
                at += 1
            yield pad[..., 1:-1][col].copy()

    def z_of(self, u_rows):
        """Z = -u_x sigma of rows of u along their last axis."""
        return _central_z(u_rows, self.dx, self.model.sigma)

    def z_rows(self, levels):
        """Z = -u_x sigma at the levels `levels` (an index, slice or index
        array into t_grid, levels from T down), computed from those rows
        of u only; a stack gives every member of each level."""
        return self.z_of(self.rows(levels))

    def _one_member(self):
        if self.u.ndim == 3:
            raise ValueError("split a stacked solution with members()")

    def _time_weights(self, t):
        """Level index and offset (it, lt) of time t, levels ascending."""
        t_asc = self.t_grid[::-1]
        ft = (np.asarray(t, dtype=float) - t_asc[0]) / (t_asc[1] - t_asc[0])
        it = np.clip(ft.astype(int), 0, t_asc.size - 2)
        return it, np.clip(ft - it, 0.0, 1.0)

    def _space_weights(self, x):
        """Cell index and offset (ix, lx) of x, clamped to the grid; both
        are arrays shaped like x (0-d for a scalar x)."""
        x = np.asarray(x, dtype=float)
        fx = np.subtract(x, self.x_grid[0], out=np.empty_like(x))
        fx /= self.dx
        ix = fx.astype(int)
        # clamped in place: np.clip's Python wrapper costs more than the work
        np.maximum(ix, 0, out=ix)
        np.minimum(ix, self.x_grid.size - 2, out=ix)
        fx -= ix
        np.maximum(fx, 0.0, out=fx)
        np.minimum(fx, 1.0, out=fx)
        return ix, fx

    def _weights(self, t, x):
        """Cell indices and offsets (it, lt, ix, lx) of the bilinear lookup
        at (t, x); one set serves every field on the grid."""
        return (*self._time_weights(t), *self._space_weights(x))

    def _interpolate(self, mat, weights):
        """Bilinear value of the field mat (levels from T down) at the
        points whose `_weights` are given."""
        it, lt, ix, lx = weights
        m_asc = mat[::-1]
        if it.ndim == 0:
            # one time level pair: gather from two rows, same arithmetic
            lo, hi = m_asc[it], m_asc[it + 1]
            v = ((1.0 - lt) * ((1.0 - lx) * lo[ix] + lx * lo[ix + 1])
                 + lt * ((1.0 - lx) * hi[ix] + lx * hi[ix + 1]))
        else:
            v = ((1.0 - lt) * ((1.0 - lx) * m_asc[it, ix] + lx * m_asc[it, ix + 1])
                 + lt * ((1.0 - lx) * m_asc[it + 1, ix] + lx * m_asc[it + 1, ix + 1]))
        return float(v) if v.ndim == 0 else v

    def u_at(self, t, x):
        """Bilinear interpolation of u (x clamped to the grid), reading
        only the levels the lookup falls between."""
        self._one_member()
        it, lt, ix, lx = self._weights(t, x)
        levels, pos = self._between(it)
        return self._interpolate(self.rows(levels)[::-1], (pos, lt, ix, lx))

    def z_at(self, t, x):
        """Bilinear interpolation of the Z-field (x clamped to the grid),
        computing Z at only the levels the lookup reads; the arithmetic is
        that of the whole field."""
        self._one_member()
        it, lt, ix, lx = self._weights(t, x)
        levels, pos = self._between(it)
        return self._interpolate(self.z_rows(levels)[::-1], (pos, lt, ix, lx))

    def _between(self, it):
        """The levels it and it + 1 for every it (level indices ascending in
        time, as `_time_weights` gives them) as indices into t_grid, in
        ascending time, and the position of each it among them.  No level
        lies between it and it + 1, so the position after it's is it + 1's."""
        # a mask over the levels, not np.unique, which imports numpy.ma
        need = np.zeros(self.t_grid.size, dtype=bool)
        need[it] = True
        need[np.add(it, 1)] = True
        levels = np.flatnonzero(need)
        return self.t_grid.size - 1 - levels, np.searchsorted(levels, it)

    def _fields_between(self, it):
        """u and Z for lookups at the level indices it (ascending in time):
        (u, u_pos, z, z_pos), each field with levels from T down and the
        position of every it among its rows counted from t0.  Z holds the
        levels it and it + 1 only.  u is the stored field itself when it
        holds every level, and otherwise those levels too, read once."""
        levels, pos = self._between(it)
        if self.replay is None:
            return self.u, it, self.z_rows(levels)[::-1], pos
        u_asc = self.rows(levels)
        return u_asc[::-1], pos, self.z_of(u_asc)[::-1], pos

    def members(self):
        """One solution per member of a stacked solve, as views."""
        return [replace(self, u=self.u[:, i], cap_active=self.cap_active[:, i],
                        substeps=self.substeps[:, i], tc=tc, member=i)
                for i, tc in enumerate(self.tc)]

    def level_time_to_go(self):
        return self.horizon - self.t_grid

    def to_npy(self, path):
        """u as a NumPy .npy file of little-endian float64, shaped (levels,
        nodes) with levels from T down: the bytes `np.save` writes for
        `rows(slice(None))`.  The header goes first and then each level's
        row as one `walk` yields it, so memory holds one level, never the
        whole field; Z = -u_x sigma is derived from u and not stored."""
        self._one_member()
        header = {"descr": "<f8", "fortran_order": False,
                  "shape": (self.t_grid.size, self.x_grid.size)}
        with open(path, "wb") as fh:
            np.lib.format.write_array_header_1_0(fh, header)
            for row in self.walk():
                fh.write(row.astype("<f8", copy=False).tobytes())

    def to_csv(self, path):
        """Long format: t,x,u,z,cap_active (one row per grid node).

        Each level is one string, joined from a list of parts whose x and
        separator slots are filled once per call, t and the cap flag once
        per level and u and z by slice assignment, then written at once.
        The levels come from one `walk`, so memory holds one level, and its
        Z row, never the whole file or the whole field."""
        self._one_member()
        # repr of a numpy scalar is "np.float64(...)" under numpy 2, so
        # format Python floats from tolist(); a row reads
        # t "," x "," u "," z "," cap "\n"
        n = self.x_grid.size
        parts = [","] * (6 * n)
        parts[1::6] = [x + "," for x in map(repr, self.x_grid.tolist())]
        with open(path, "w", newline="") as fh:
            fh.write("t,x,u,z,cap_active\n")
            levels = zip(map(repr, self.t_grid.tolist()), self.cap_active.tolist(),
                         self.walk())
            for tk, cap, row in levels:
                parts[0::6] = [tk + ","] * n
                parts[2::6] = map(repr, row.tolist())
                parts[4::6] = map(repr, self.z_of(row).tolist())
                parts[5::6] = [f",{int(cap)}\n"] * n
                fh.write("".join(parts))


def _central_z(u_row, dx, sigma):
    z = np.empty_like(u_row)
    # the interior is written in place: no temporary the size of u
    inner = z[..., 1:-1]
    np.subtract(u_row[..., 2:], u_row[..., :-2], out=inner)
    np.negative(inner, out=inner)
    inner /= 2.0 * dx
    inner *= sigma
    z[..., 0] = -(u_row[..., 1] - u_row[..., 0]) / dx * sigma
    z[..., -1] = -(u_row[..., -1] - u_row[..., -2]) / dx * sigma
    return z


def z_envelope(model, sup_norm, tau):
    """The a-priori bound 2 exp(lambda T) ||Phi|| tau^{-1/2} on |Z| at
    time-to-go tau, lambda = sup |b_x| = model.lam."""
    return 2.0 * np.exp(model.lam * model.horizon) * sup_norm / np.sqrt(tau)


def _p_cap(model, sup_norm, lip, tau):
    """Clamp level for |u_x| when stepping with time-to-go tau."""
    cap_z = z_envelope(model, sup_norm, tau)
    if lip is not None:
        cap_z = min(cap_z, lip * model.sigma * np.exp(2.0 * model.lam * model.horizon))
    return CAP_SAFETY * cap_z / model.sigma


def _grid_arrays(model, grid, t0):
    if grid.n_x < 64:
        raise ValueError("need n_x >= 64")
    span = model.horizon - t0
    if not span > 0.0:
        raise ValueError(f"need t0 < T, got t0 = {t0} and T = {model.horizon}")
    if (grid.x_lo is None) != (grid.x_hi is None):
        raise ValueError("set both x_lo and x_hi, or neither")
    if grid.x_lo is not None:
        x_lo, x_hi = float(grid.x_lo), float(grid.x_hi)
    else:
        b0 = abs(float(np.asarray(model.drift(t0, np.array([grid.x_center]))).ravel()[0]))
        radius = (6.0 * model.sigma * np.sqrt(span) + grid.pad
                  + b0 * span * np.exp(model.lam * span))
        x_lo, x_hi = grid.x_center - radius, grid.x_center + radius
    if not x_lo < x_hi:
        raise ValueError(f"need x_lo < x_hi, got [{x_lo}, {x_hi}]")
    x = np.linspace(x_lo, x_hi, grid.n_x)
    n_t = max(1, round(span / grid.dt))
    t_desc = model.horizon - (span / n_t) * np.arange(n_t + 1)
    t_desc[-1] = t0
    return x, t_desc


class _LevelStep:
    """One base step of the scheme (see `solve`) for a fixed grid, clamp
    and stack: `step(k, pad)` advances the state inside the ghost-padded
    buffer pad from level k to level k + 1 in place and returns the
    substep count and the per-member cap flags of the step.  `solve` and
    the replay of a checkpointed PdeSolution both call it, so a replayed
    level has the bits of the solve's.  Its ImplicitDiffusion keeps scan
    buffers, so a step serves one caller at a time."""

    def __init__(self, model, gen, x, t_desc, sup_norm, lip):
        self.model, self.gen, self.x, self.t_desc = model, gen, x, t_desc
        self.sup_norm, self.lip = sup_norm, lip
        self.dx = float(x[1] - x[0])
        self.dt_base = float(t_desc[0] - t_desc[1])
        self.diffusion = _kernels.ImplicitDiffusion(x.size)

    def __call__(self, k, pad):
        model, gen, dx, dt_base = self.model, self.gen, self.dx, self.dt_base
        sig2 = model.sigma * model.sigma
        asig = abs(model.sigma)
        dx2 = dx * dx
        half_dx = 0.5 * dx  # theta * (0.5 dx) is (0.5 theta) dx: halving is exact
        zero = model.drift.zero
        cur = pad[..., 1:-1]
        s_src = self.t_desc[k]
        tau = max(model.horizon - s_src, dt_base)
        pcap = _p_cap(model, self.sup_norm, self.lip, tau)
        if not zero:
            bvals = np.asarray(model.drift(s_src, self.x), dtype=float)
            babs = np.abs(bvals)
        capped = False
        consumed = 0.0
        nsub = 0
        while consumed < dt_base:
            pad[..., 0] = pad[..., 1]
            pad[..., -1] = pad[..., -2]
            # one-sided slopes: slope[..., 1:] is p+, slope[..., :-1] is p-
            slope = np.subtract(pad[..., 1:], pad[..., :-1])
            slope /= dx
            pc = slope[..., 1:] + slope[..., :-1]
            pc *= 0.5
            pa = np.abs(pc)
            if pa.max() > pcap:
                capped = capped | (pa.max(axis=-1) > pcap)
                np.minimum(pa, pcap, out=pa)
            np.abs(slope, out=slope)
            pl = np.maximum(slope[..., 1:], slope[..., :-1])
            np.minimum(pl, pcap, out=pl)
            pl *= asig
            theta = asig * gen.hp(pl)
            if not zero:
                theta += babs
            theta_max = theta.max()
            if not math.isfinite(theta_max):
                break
            rem = dt_base - consumed
            dtau = rem if theta_max == 0.0 else min(CFL_SAFETY * dx / theta_max, rem)
            pa *= asig
            ham = gen.h(pa)
            if not zero:
                ham = ham - pc * bvals
            d2 = np.multiply(cur, 2.0)
            np.subtract(pad[..., 2:], d2, out=d2)
            d2 += pad[..., :-2]
            d2 /= dx2
            # inc = dtau (0.5 sigma^2 d2 - ham + 0.5 theta dx d2), in place
            theta *= half_dx
            theta *= d2
            d2 *= 0.5 * sig2
            d2 -= ham
            d2 += theta
            d2 *= dtau
            cur += self.diffusion(d2, 0.5 * sig2 * dtau / dx2)
            consumed += dtau
            nsub += 1
            if nsub > MAX_SUBSTEPS:
                raise ResolutionError(
                    f"CFL substep ceiling {MAX_SUBSTEPS} exceeded at level {k}")
        finite = np.isfinite(cur).all()
        if not finite or consumed < dt_base:
            what = "dissipation theta" if finite else "solution"
            raise ResolutionError(
                f"non-finite {what} at level {k + 1} (t = {self.t_desc[k + 1]:.6g})")
        return nsub, capped


def _kept_levels(n_t, per_level):
    """The mask of the levels a solve of n_t levels of per_level floats
    each keeps: all of them when the field fits KEEP_FLOATS floats,
    otherwise every ceil(sqrt(n_t))-th level and the last two."""
    keep = np.ones(n_t, dtype=bool)
    if n_t * per_level > KEEP_FLOATS:
        keep[:] = False
        keep[::math.isqrt(n_t - 1) + 1] = True
        keep[-2:] = True
    return keep


def solve(model, gen, tc, grid, t0):
    """Solve the terminal-value problem backward from T to t0 for one
    TerminalCondition, or for a sequence of them in lockstep.

    Each base step is a run of IMEX substeps.  A substep forms the
    explicit increment

        inc = dtau (0.5 sigma^2 d2 - H + 0.5 theta dx d2)

    (centered second differences d2, local Lax-Friedrichs Hamiltonian H
    from gen.h, dissipation theta from gen.hp) and adds
    `_kernels.ImplicitDiffusion` of it with c = 0.5 sigma^2 dtau / dx^2,
    the delta form of (I - c D2) u_new = u + dtau (0.5 theta dx d2 - H),
    so a zero increment leaves u exactly unchanged.  dtau is the rest of
    the base step or CFL_SAFETY dx / max theta, whichever is smaller.

    A stack shares the gradient clamp (the largest sup norm and Lipschitz
    constant over it; none if a member has none) and every substep (sized
    by the largest theta over it), so all members go through one monotone
    operator: ordered data stay ordered at every node (discrete comparison
    principle; Barles and Souganidis 1991) and shifted data stay shifted
    to rounding.  It returns one PdeSolution; see `PdeSolution.members`.

    It keeps every level when levels x members x nodes fits KEEP_FLOATS
    floats (8 MiB), and otherwise every ceil(sqrt(n_t))-th level and the
    last two; cap_active and substeps keep every level.  The base step is
    `_LevelStep`: a checkpointed solution keeps it to replay the other
    levels with the solve's own arithmetic, a stack as one (see
    `PdeSolution`).  Beside its result the solve holds the padded state
    and the temporaries of one substep.

    The state lives inside its ghost-padded buffer, so a substep only
    refreshes the two ghosts.  One difference of the padded state gives
    both one-sided slopes, and one abs of it gives the larger slope.  The
    clamp test is one max over the stack; only a substep that clamps
    takes the per-member max for cap_active.  The increment is formed in place as
    theta (0.5 dx) d2, which equals (0.5 theta) dx d2 since halving is
    exact (for normal theta).  A drift flagged `zero` is not evaluated
    and its terms are skipped: b = 0 would only add zeros.
    `tests/test_hj_solver.py` keeps the textbook loop and checks u,
    cap_active and substeps against it bit for bit.

    Raises ResolutionError naming the level when a level needs more than
    MAX_SUBSTEPS substeps, turns non-finite, or meets a non-finite theta.
    """
    x, t_desc = _grid_arrays(model, grid, t0)
    stacked = isinstance(tc, Sequence)
    stack = tuple(tc) if stacked else (tc,)
    if not stack:
        raise ValueError("need at least one terminal condition")
    sup_norm = max(phi.sup_norm for phi in stack)
    lips = [phi.lipschitz for phi in stack]
    lip = None if None in lips else max(lips)

    n_t = t_desc.size
    rows = (len(stack),) if stacked else ()
    keep = _kept_levels(n_t, len(stack) * x.size)
    u = np.empty((np.count_nonzero(keep), *rows, x.size))
    cap_active = np.zeros((n_t, *rows), dtype=bool)
    substeps = np.zeros((n_t, *rows), dtype=np.int64)
    u[0] = np.reshape([np.asarray(phi(x), dtype=float) for phi in stack], u.shape[1:])

    step = _LevelStep(model, gen, x, t_desc, sup_norm, lip)
    # the state lives inside its ghost-padded buffer; the edge ghosts copy
    # the edge values
    pad = np.empty((*rows, x.size + 2))
    cur = pad[..., 1:-1]
    cur[...] = u[0]
    j = 1
    for k in range(n_t - 1):
        substeps[k + 1], cap_active[k + 1] = step(k, pad)
        if keep[k + 1]:
            u[j] = cur
            j += 1

    replay = None if j == n_t else _Replay(step, np.flatnonzero(keep), u)
    return PdeSolution(x_grid=x, t_grid=t_desc, u=u, cap_active=cap_active,
                       substeps=substeps, model=model,
                       tc=stack if stacked else tc, replay=replay)


@functools.cache
def _gauss_hermite_rule(n):
    """Nodes and weights of the n-node Gauss-Hermite rule for E[h(N)],
    N ~ N(0, 1), built at the first call for each n."""
    from numpy.polynomial.hermite_e import hermegauss
    nodes, weights = hermegauss(n)
    return nodes, weights / math.sqrt(2.0 * math.pi)


def cole_hopf_reference(model, gen, tc, t, x):
    """Exact solution for the quadratic generator and zero drift.

    With g(z) = gamma z^2 and b = 0 the substitution v = exp(-2 gamma u)
    turns the equation into the backward heat equation, so

        u(t, x) = -(1 / 2 gamma) log E[ exp(-2 gamma Phi(x + sigma N)) ],

    N ~ N(0, T - t), evaluated here by 64-node Gauss-Hermite quadrature.
    """
    if not model.drift.zero:
        raise NotGaussianError("Cole-Hopf reference requires zero drift")
    if not isinstance(gen, QuadraticGenerator):
        raise ValueError("Cole-Hopf reference requires a quadratic generator")
    gamma = gen.gamma
    span = model.horizon - t
    x = np.asarray(x, dtype=float)
    if span <= 0.0:
        out = np.asarray(tc(x), dtype=float)
        return float(out) if out.ndim == 0 else out
    nodes, weights = _gauss_hermite_rule(64)
    s = model.sigma * np.sqrt(span)
    pts = x[..., None] + s * nodes
    vals = np.exp(-2.0 * gamma * np.asarray(tc(pts), dtype=float))
    out = -np.log(vals @ weights) / (2.0 * gamma)
    return float(out) if out.ndim == 0 else out


def solve_regularized_family(model, gen, tc, m_list, side, grid, t0):
    """PDE ladder with terminal data Phi_m (side='lower') or upper
    regularizations (side='upper'): one stacked `solve` of every member,
    returned as one PdeSolution per m.

    The members share the clamp (sup norm ||Phi|| and Lipschitz bound
    max(m)) and every substep, so the ladder's order in m holds at every
    node and level of the scheme itself, not only up to its
    discretization error."""
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if list(m_list) != sorted(m_list):
        raise ValueError("m_list must be increasing")
    members = [tc.inf_convolved(m) if side == "lower" else tc.sup_convolved(m)
               for m in m_list]
    return solve(model, gen, members, grid, t0).members()
