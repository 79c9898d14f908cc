"""Penalty-representation Monte Carlo: E_Q[Phi(X_T) + int f(q) du] for
parametric drift controls, the PDE-induced feedback control q* = g'(Z),
and the duality-gap report.

The Q-expectation is evaluated by tilting the simulated dynamics (drift
b + sigma q driven by Q-Brownian increments); no likelihood ratios are
formed, which sidesteps the density degeneracy superquadratic controls
can produce.  The penalty integral uses the left-endpoint rule on the
same grid as the Euler step.
"""

from dataclasses import dataclass

import numpy as np

from .forward_model import simulate_paths


class ControlProcess:
    """Drift control q(t, x); `rate` is vectorized in x."""

    kind = "abstract"

    def rate(self, t, x):
        raise NotImplementedError


class ZeroControl(ControlProcess):
    kind = "zero"

    def rate(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class ConstantControl(ControlProcess):
    kind = "constant"

    def __init__(self, q):
        self.q = float(q)

    def rate(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.q)


class PiecewiseConstantControl(ControlProcess):
    """q(t) = values[j] on [breakpoints[j-1], breakpoints[j})."""

    kind = "piecewise"

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        qv = np.asarray(values, dtype=float)
        if qv.size != bp.size + 1:
            raise ValueError("need len(values) == len(breakpoints) + 1")
        if bp.size and np.any(np.diff(bp) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        self.breakpoints = bp
        self.values = qv

    def rate(self, t, x):
        idx = int(np.searchsorted(self.breakpoints, t, side="right"))
        return np.full_like(np.asarray(x, dtype=float), self.values[idx])


class FeedbackControl(ControlProcess):
    """q*(t, x) = g'(Z(t, x)) with Z bilinearly interpolated off the PDE grid.

    Finite everywhere because the solver clamps its gradient argument."""

    kind = "feedback"

    def __init__(self, sol, gen):
        self.sol = sol
        self.gen = gen

    def rate(self, t, x):
        return self.gen.grad(self.sol.z_at(t, x))


@dataclass(frozen=True)
class DualEstimate:
    """Sample statistics of Phi(X_T^Q) + int f(q) du."""

    value: float
    std_error: float
    penalty_mean: float
    n_paths: int
    seed: int
    control_kind: str


def evaluate_control(model, gen, conj, tc, ctrl, x0, t0, n_paths, n_steps, seed):
    """Monte Carlo dual value for one control."""
    tilt = None if isinstance(ctrl, ZeroControl) else ctrl
    bundle = simulate_paths(model, x0, t0, n_paths, n_steps, seed, tilt=tilt)
    dt = bundle.dt
    penalty = np.zeros(n_paths)
    if tilt is not None:
        for k in range(n_steps):
            q = ctrl.rate(bundle.times[k], bundle.x_paths[:, k])
            penalty += np.asarray(conj.eval(q), dtype=float) * dt
    payoff = np.asarray(tc(bundle.x_paths[:, -1]), dtype=float)
    total = payoff + penalty
    value = float(np.mean(total))
    se = float(np.std(total, ddof=1) / np.sqrt(n_paths))
    return DualEstimate(value=value, std_error=se,
                        penalty_mean=float(np.mean(penalty)),
                        n_paths=int(n_paths), seed=int(seed), control_kind=ctrl.kind)


def feedback_control(sol, gen):
    """The candidate optimizer q* = g'(Z) read off a computed solution."""
    return FeedbackControl(sol, gen)


@dataclass(frozen=True)
class ControlRow:
    control_kind: str
    value: float
    std_error: float
    penalty_mean: float
    lower_bound_pass: bool
    attainment_gap: float = float("nan")
    attainment_within_tol: bool = True


@dataclass(frozen=True)
class DualityReport:
    u0: float
    scheme_tol: float
    rows: tuple

    @property
    def all_lower_bounds_pass(self):
        return all(r.lower_bound_pass for r in self.rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("control_kind,value,std_error,penalty_mean,pass\n")
            for r in self.rows:
                fh.write(f"{r.control_kind},{r.value!r},{r.std_error!r},"
                         f"{r.penalty_mean!r},{int(r.lower_bound_pass)}\n")


def duality_gap(model, gen, conj, tc, sol, x0, t0, n_paths, seed,
                n_steps=200, scheme_tol=1e-2, extra_controls=()):
    """Dual values for the zero and feedback controls (plus extras) against
    u(t0, x0).

    Hard, one-sided check per control: value + 3 SE >= u0 - scheme_tol
    (every admissible measure upper-bounds the solution).  The feedback
    attainment gap is also reported; it is a soft diagnostic because
    attainment can genuinely fail for superquadratic generators.
    """
    u0 = float(sol.u_at(t0, x0))
    controls = [ZeroControl(), feedback_control(sol, gen)]
    controls.extend(extra_controls)
    rows = []
    for i, ctrl in enumerate(controls):
        est = evaluate_control(model, gen, conj, tc, ctrl, x0, t0,
                               n_paths, n_steps, seed + i)
        lower_ok = est.value + 3.0 * est.std_error >= u0 - scheme_tol
        if ctrl.kind == "feedback":
            gap = est.value - u0
            rows.append(ControlRow(est.control_kind, est.value, est.std_error,
                                   est.penalty_mean, lower_ok, gap,
                                   abs(gap) <= 3.0 * est.std_error + scheme_tol))
        else:
            rows.append(ControlRow(est.control_kind, est.value, est.std_error,
                                   est.penalty_mean, lower_ok))
    return DualityReport(u0=u0, scheme_tol=float(scheme_tol), rows=tuple(rows))
