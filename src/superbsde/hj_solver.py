"""Backward-in-time monotone finite-difference solver for the viscous
Hamilton-Jacobi equation

    u_t + 0.5 sigma^2 u_xx + u_x b(t,x) - g(-u_x sigma) = 0,  u(T,.) = Phi,

plus the exact Cole-Hopf reference for the quadratic generator.

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
level that turns non-finite raises ResolutionError.

The superquadratic Hamiltonian has an unbounded gradient Lipschitz
constant, so the gradient argument of g is clamped at 1.5x the a-priori
envelope 2 exp(lambda T) ||Phi|| (T-s)^{-1/2} / sigma; for Lipschitz
terminal data the time-uniform bound L sigma exp(2 ||b_x|| T) is taken
when smaller, which keeps the dissipation coefficient (and the substep
count) bounded away from the terminal layer.  The clamp is applied one
level in: stepping out of s = T uses the envelope at T - dt, never at T
itself.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from . import _kernels
from .errors import NotGaussianError, ResolutionError
from .generators import QuadraticGenerator
from .terminal_data import Lipschitz

CAP_SAFETY = 1.5
CFL_SAFETY = 0.9  # hyperbolic CFL factor; <= 1 keeps the explicit part monotone


@dataclass
class GridSpec:
    """Spatial/temporal discretization request.

    The domain defaults to x_center +- (6 sigma sqrt(T-t0) + drift range +
    pad); dt is a target base step, rounded so the horizon divides evenly.
    """

    n_x: int = 641
    dt: float = 1e-3
    x_center: float = 0.0
    pad: float = 2.0
    x_lo: float = None
    x_hi: float = None
    max_substeps: int = 1 << 21


@dataclass
class PdeSolution:
    """u and Z = -u_x sigma on the grid; t_grid runs from T down to t0."""

    x_grid: np.ndarray
    t_grid: np.ndarray
    u: np.ndarray
    z: np.ndarray
    cap_active: np.ndarray
    substeps: np.ndarray
    sup_norm_used: float
    model: object
    gen: object
    tc: object
    domain_warning: bool = False

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

    def _bilinear(self, mat, t, x):
        t_asc = self.t_grid[::-1]
        m_asc = mat[::-1]
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        ft = (t - t_asc[0]) / (t_asc[1] - t_asc[0])
        it = np.clip(ft.astype(int), 0, t_asc.size - 2)
        lt = np.clip(ft - it, 0.0, 1.0)
        fx = (x - self.x_grid[0]) / self.dx
        ix = np.clip(fx.astype(int), 0, self.x_grid.size - 2)
        lx = np.clip(fx - ix, 0.0, 1.0)
        v = ((1.0 - lt) * ((1.0 - lx) * m_asc[it, ix] + lx * m_asc[it, ix + 1])
             + lt * ((1.0 - lx) * m_asc[it + 1, ix] + lx * m_asc[it + 1, ix + 1]))
        return float(v) if v.ndim == 0 else v

    def u_at(self, t, x):
        """Bilinear interpolation of u (x clamped to the grid)."""
        return self._bilinear(self.u, t, x)

    def z_at(self, t, x):
        """Bilinear interpolation of the Z-field (x clamped to the grid)."""
        return self._bilinear(self.z, t, x)

    def level_time_to_go(self):
        return self.horizon - self.t_grid

    def to_csv(self, path):
        """Long format: t,x,u,z,cap_active (one row per grid node)."""
        # repr of a numpy scalar is "np.float64(...)" under numpy 2, so format
        # Python floats; tolist() one level at a time keeps memory flat
        xs = self.x_grid.tolist()
        with open(path, "w", newline="") as fh:
            fh.write("t,x,u,z,cap_active\n")
            for k, tk in enumerate(self.t_grid.tolist()):
                cap = int(self.cap_active[k])
                for x, u, z in zip(xs, self.u[k].tolist(), self.z[k].tolist()):
                    fh.write(f"{tk!r},{x!r},{u!r},{z!r},{cap}\n")


def _central_z(u_row, dx, sigma):
    z = np.empty_like(u_row)
    z[1:-1] = -(u_row[2:] - u_row[:-2]) / (2.0 * dx) * sigma
    z[0] = -(u_row[1] - u_row[0]) / dx * sigma
    z[-1] = -(u_row[-1] - u_row[-2]) / dx * sigma
    return z


def _p_cap(model, sup_norm, lip, tau):
    """Clamp level for |u_x| when stepping with time-to-go tau."""
    c1 = 2.0 * np.exp(model.lam * model.horizon)
    cap_z = c1 * sup_norm / np.sqrt(tau)
    if lip is not None:
        cap_z = min(cap_z, lip * model.sigma * np.exp(2.0 * model.b_x_bound * model.horizon))
    return CAP_SAFETY * cap_z / model.sigma


def _grid_arrays(model, grid, t0):
    if grid.n_x < 64:
        raise ValueError("need n_x >= 64")
    span = model.horizon - t0
    if grid.x_lo is not None and grid.x_hi is not None:
        x_lo, x_hi = float(grid.x_lo), float(grid.x_hi)
    else:
        b0 = abs(float(np.asarray(model.drift(t0, np.array([grid.x_center]))).ravel()[0]))
        radius = (6.0 * model.sigma * np.sqrt(span) + grid.pad
                  + b0 * span * np.exp(model.b_x_bound * span))
        x_lo, x_hi = grid.x_center - radius, grid.x_center + radius
    x = np.linspace(x_lo, x_hi, grid.n_x)
    n_t = max(1, round(span / grid.dt))
    t_desc = model.horizon - (span / n_t) * np.arange(n_t + 1)
    t_desc[-1] = t0
    return x, t_desc


def solve(model, gen, tc, grid, t0, envelope_sup_norm=None,
          envelope_lipschitz=None, domain_check=False):
    """Solve the terminal-value problem backward from T to t0.

    envelope_sup_norm / envelope_lipschitz override ||Phi|| and L in the
    gradient clamp; passing common values across runs gives them the same
    clamp, which is what the comparison/translation properties and the
    regularization ladders need.  The substep schedule still follows each
    run's own theta_max, so runs whose gradients differ take different
    substeps; data shifted by a constant keeps the schedule, so
    translation holds to rounding.

    Raises ResolutionError when a level needs more than
    grid.max_substeps substeps or turns non-finite.
    """
    x, t_desc = _grid_arrays(model, grid, t0)
    dx = float(x[1] - x[0])
    dt_base = float(t_desc[0] - t_desc[1])
    sup_norm = float(envelope_sup_norm) if envelope_sup_norm is not None else tc.sup_norm
    if envelope_lipschitz is not None:
        lip = float(envelope_lipschitz)
    else:
        lip = tc.regularity.L if isinstance(tc.regularity, Lipschitz) else None

    n_t = t_desc.size
    u = np.empty((n_t, x.size))
    z = np.empty_like(u)
    cap_active = np.zeros(n_t, dtype=bool)
    substeps = np.zeros(n_t, dtype=np.int64)
    u[0] = np.asarray(tc(x), dtype=float)
    z[0] = _central_z(u[0], dx, model.sigma)

    h_vec = lambda r: np.asarray(gen.h(r), dtype=float)
    hp_vec = lambda r: np.asarray(gen.hp(r), dtype=float)
    diffusion = _kernels.ImplicitDiffusion(x.size)

    for k in range(n_t - 1):
        s_src = t_desc[k]
        tau = max(model.horizon - s_src, dt_base)
        pcap = _p_cap(model, sup_norm, lip, tau)
        bvals = np.asarray(model.drift(s_src, x), dtype=float)
        unew, nsub, hit = _kernels.hj_base_step(
            u[k], bvals, dx, model.sigma, h_vec, hp_vec, pcap,
            dt_base, grid.max_substeps, CFL_SAFETY, diffusion)
        if nsub < 0:
            raise ResolutionError(
                f"CFL substep ceiling {grid.max_substeps} exceeded at level {k}")
        if not np.all(np.isfinite(unew)):
            raise ResolutionError(
                f"non-finite solution at level {k + 1} (t = {t_desc[k + 1]:.6g})")
        u[k + 1] = unew
        z[k + 1] = _central_z(unew, dx, model.sigma)
        cap_active[k + 1] = hit
        substeps[k + 1] = nsub

    sol = PdeSolution(x_grid=x, t_grid=t_desc, u=u, z=z, cap_active=cap_active,
                      substeps=substeps, sup_norm_used=sup_norm,
                      model=model, gen=gen, tc=tc)
    if domain_check:
        _domain_check(sol, model, gen, tc, grid, t0, envelope_sup_norm)
    return sol


def _domain_check(sol, model, gen, tc, grid, t0, envelope_sup_norm):
    """Coarse rerun on a 20%-wider domain; warn if the reporting window moved."""
    x_lo = sol.x_grid[0] - 0.2 * (sol.x_grid[-1] - sol.x_grid[0]) / 2.0
    x_hi = sol.x_grid[-1] + 0.2 * (sol.x_grid[-1] - sol.x_grid[0]) / 2.0
    wide = GridSpec(n_x=max(64, grid.n_x // 2 + 1), dt=grid.dt * 2.0,
                    x_lo=x_lo, x_hi=x_hi, max_substeps=grid.max_substeps)
    ref = solve(model, gen, tc, wide, t0, envelope_sup_norm=envelope_sup_norm)
    # also rerun on the original domain at the same coarse resolution so the
    # comparison isolates the boundary influence, not the refinement error
    base = GridSpec(n_x=max(64, grid.n_x // 2 + 1), dt=grid.dt * 2.0,
                    x_lo=float(sol.x_grid[0]), x_hi=float(sol.x_grid[-1]),
                    max_substeps=grid.max_substeps)
    coarse = solve(model, gen, tc, base, t0, envelope_sup_norm=envelope_sup_norm)
    span = model.horizon - t0
    center = 0.5 * (sol.x_grid[0] + sol.x_grid[-1])
    window = 3.0 * model.sigma * np.sqrt(span)
    xs = np.linspace(center - window, center + window, 129)
    gap = float(np.max(np.abs(np.interp(xs, ref.x_grid, ref.u[-1])
                              - np.interp(xs, coarse.x_grid, coarse.u[-1]))))
    tol = max(1e-6, 1e-3 * max(1.0, sol.sup_norm_used))
    if gap > tol:
        sol.domain_warning = True
        warnings.warn(f"domain too small: widening moved u(t0) by {gap:.3g} "
                      f"on the reporting window (tol {tol:.3g})")


_GH_NODES, _GH_WEIGHTS = hermegauss(64)
_GH_WEIGHTS = _GH_WEIGHTS / np.sqrt(2.0 * np.pi)


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
    s = model.sigma * np.sqrt(span)
    pts = x[..., None] + s * _GH_NODES
    vals = np.exp(-2.0 * gamma * np.asarray(tc(pts), dtype=float))
    out = -np.log(vals @ _GH_WEIGHTS) / (2.0 * gamma)
    return float(out) if out.ndim == 0 else out


def solve_regularized_family(model, gen, tc, m_list, side, grid, t0):
    """PDE ladder with terminal data Phi_m (side='lower') or upper
    regularizations (side='upper'), one solve per member.

    All members share the clamp envelope of the unregularized Phi (its
    sup norm and the Lipschitz bound max(m)), so they step the same
    monotone scheme.  They do not share the substep schedule: each
    member's CFL bound follows its own gradients (for the slope-50 spike
    on 801 x 2e-3, the lower ladder m = 2, 4, 8, 16 takes 2, 2, 3, 4
    substeps on the first level), so member-to-member order is the
    comparison principle of the continuous problem, kept up to the
    discretization error."""
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    if list(m_list) != sorted(m_list):
        raise ValueError("m_list must be increasing")
    lip = float(max(m_list))  # every member is also max(m)-Lipschitz
    out = []
    for m in m_list:
        tc_m = tc.inf_convolved(m) if side == "lower" else tc.sup_convolved(m)
        out.append(solve(model, gen, tc_m, grid, t0,
                         envelope_sup_norm=tc.sup_norm, envelope_lipschitz=lip))
    return out
