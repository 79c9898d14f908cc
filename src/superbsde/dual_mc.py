"""Penalty-representation dual values: E_Q[Phi(X_T) + int f(q) du] for
parametric drift controls, the PDE-induced feedback control q* = g'(Z),
and the duality-gap report.

The Q-expectation is evaluated by tilting the simulated dynamics (drift
b + sigma q driven by Q-Brownian increments); no likelihood ratios are
formed, which sidesteps the density degeneracy superquadratic controls
can produce.  The penalty integral uses the left-endpoint rule on the
same grid as the Euler step, and is accumulated in that step: q is read
once per knot, and the pass holds only X_T and the per-path penalty of one
block of paths, never the paths themselves.  Path p's increments depend
only on (seed, p), so the results do not depend on the block size.

The time grid of a pass is fixed, so before its Euler loop each control
becomes a knot plan (`ControlProcess.knots`): step(k, x) -> (q_k, f(q_k))
at knot t0 + k dt.  The zero, constant and piecewise controls give one
number per knot (`ControlProcess.knot_rates`), the feedback control one
row of g'(Z) per knot at the PDE's x nodes, read with one 1-D gather.  The
penalty is always conj.eval of the q actually applied, so each estimate is
exact for its control.  A plan lives in the call that built it; nothing is
cached across passes.

All controls of one Monte Carlo pass (`evaluate_controls`) read the same
increments, salt 0 of `seed`: each block is drawn once and every control's
Euler loop runs on it (common random numbers; Glasserman, "Monte Carlo
Methods in Financial Engineering", 2004, 4.2).  Each row keeps the law it
has alone; the rows become positively correlated.

`duality_gap` samples only the rows that need it.  A control with one
number per knot under a zero or linear drift leaves the Euler X_T exactly
Gaussian (`forward_model.euler_gaussian_law`) and its penalty
deterministic, so its row is E[Phi(X_T)] by Gauss-Hermite quadrature plus
sum_k f(q_k) dt, with no standard error, whenever the 64- and 128-node
rules agree (`gauss_hermite_expectation`); every other row, the feedback
row always, is the Monte Carlo value of `evaluate_controls`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, forward_model
from .errors import ExtrapolationRangeError, SimulationDivergedError
from .forward_model import (draw_increments, euler_gaussian_law, map_path_blocks,
                            time_step)
from .hj_solver import _gauss_hermite_rule


def knot_times(t0, dt, n_steps):
    """The Euler knots t0 + k dt, k < n_steps, as `em_paths` computes them."""
    return t0 + np.arange(n_steps) * dt


class ControlProcess:
    """Drift control q(t, x); `rate` is vectorized in x.

    `knots` turns the control into the plan of one pass on a fixed Euler
    grid: step(k, x) -> (q_k, f(q_k)) at knot t0 + k dt, with f = conj.eval
    of the q actually applied, the same numbers `rate` gives at the knots;
    None means no tilt and no penalty.  `knot_rates` gives those q_k as one
    array when they do not depend on the state, and None otherwise."""

    kind = "abstract"

    def rate(self, t, x):
        raise NotImplementedError

    def knots(self, t0, dt, n_steps, conj):
        raise NotImplementedError

    def knot_rates(self, t0, dt, n_steps):
        return None


def _scalar_plan(q, conj):
    """Plan of a control that is one number per knot: q holds them."""
    # f comes from one array call: numpy's vectorized pow can round
    # differently from its scalar pow, and conj.eval of rate's array is
    # an array call
    q, f = q.tolist(), conj.eval(q).tolist()
    return lambda k, x: (q[k], f[k])


class ZeroControl(ControlProcess):
    """q = 0: the pass runs it untilted with penalty 0 (its plan is None)."""

    kind = "zero"

    def rate(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def knots(self, t0, dt, n_steps, conj):
        return None

    def knot_rates(self, t0, dt, n_steps):
        return np.zeros(n_steps)


class ConstantControl(ControlProcess):
    kind = "constant"

    def __init__(self, q):
        self.q = float(q)
        if not np.isfinite(self.q):
            raise ValueError(f"need a finite constant q, got {self.q}")

    def rate(self, t, x):
        return np.full_like(np.asarray(x, dtype=float), self.q)

    def knots(self, t0, dt, n_steps, conj):
        return _scalar_plan(self.knot_rates(t0, dt, n_steps), conj)

    def knot_rates(self, t0, dt, n_steps):
        return np.full(n_steps, self.q)


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

    def knots(self, t0, dt, n_steps, conj):
        return _scalar_plan(self.knot_rates(t0, dt, n_steps), conj)

    def knot_rates(self, t0, dt, n_steps):
        idx = np.searchsorted(self.breakpoints, knot_times(t0, dt, n_steps),
                              side="right")
        return self.values[idx]


class FeedbackControl(ControlProcess):
    """q*(t, x) ~ g'(Z(t, x)) read off a table of g' at the PDE's x nodes.

    At time t the row holds g'((1 - lt) Z[it] + lt Z[it + 1]) at every x
    node, Z linear in time between the levels it and it + 1; q is the
    row's linear interpolant in x, q[ix] + lx (q[ix + 1] - q[ix]), with x
    clamped to the grid.  At x nodes it is g'(Z) of the bilinear Z; between
    nodes it interpolates g', not Z.  Any control gives a valid dual upper
    bound, so this one is as admissible as g' of the bilinear Z.

    `knots` builds one row per Euler knot of the pass (n_steps x n_x) and
    its slope rows q[ix + 1] - q[ix] once, and each step reads both rows
    of its knot with one 1-D gather each; `rate` builds the rows of its t
    with the same code, so both give the same bits.  A row node where |Z|
    exceeds the generator's range (a sampled generator) holds NaN, and
    reading a cell next to one raises ExtrapolationRangeError; nodes no
    path reads do not raise."""

    kind = "feedback"

    def __init__(self, sol, gen):
        self.sol = sol
        self.gen = gen

    def _rows(self, t):
        """The g' rows at the times t (a 1-d array), one row per time."""
        sol = self.sol
        sol._one_member()
        it, lt = sol._time_weights(t)
        lt = lt[:, None]
        levels, lo = sol._between(it)
        z = sol.z_rows(levels)  # Z at the levels the times fall between
        z = (1.0 - lt) * z[lo] + lt * z[lo + 1]
        inside = np.abs(z) <= self.gen.r_max
        rows = self.gen.grad(np.where(inside, z, 0.0))
        rows[~inside] = np.nan
        return rows

    def _read(self, row, slope, x):
        """The row's linear interpolant in x (x clamped to the grid), with
        slope = row[1:] - row[:-1]."""
        ix, lx = self.sol._space_weights(x)
        lx *= slope[ix]
        q = row[ix]
        q += lx
        if np.isnan(q).any():
            raise ExtrapolationRangeError(
                f"|Z| beyond the generator's range {self.gen.r_max:g} at a grid "
                "node next to a path: the feedback control is undefined there")
        return q

    def rate(self, t, x):
        row = self._rows(np.array([t], dtype=float))[0]
        return self._read(row, row[1:] - row[:-1], x)

    def knots(self, t0, dt, n_steps, conj):
        table = self._rows(knot_times(t0, dt, n_steps))
        slopes = table[:, 1:] - table[:, :-1]

        def step(k, x):
            q = self._read(table[k], slopes[k], x)
            return q, conj.eval(q)
        return step


@dataclass(frozen=True)
class DualEstimate:
    """Sample statistics of Phi(X_T^Q) + int f(q) du over the paths driven
    by salt 0 of `seed`, the draw every control of one pass shares."""

    value: float
    std_error: float
    penalty_mean: float
    n_paths: int
    seed: int
    control_kind: str


def evaluate_controls(model, conj, tc, controls, x0, t0, n_paths, n_steps, seed):
    """Monte Carlo dual values of several controls on one Brownian draw.

    Each control's knot plan is built once, then each block of paths draws
    its salt-0 increments of `seed` once, step-major into one buffer
    allocated per call (`draw_increments(..., out=)`); every control then
    runs its own Euler loop on those same increments (common random
    numbers), reading its plan at knot k once per step and adding
    conj(q) dt of the applied q to the penalty in the same step.  The zero
    control runs untilted with penalty 0.  A control's estimate does not
    depend on which other controls share the pass; the rows share their
    noise and are positively correlated.
    Returns one DualEstimate per control, in order.

    A non-finite state raises SimulationDivergedError for the first control
    (in order) that diverged, naming its earliest diverged step over all
    blocks, the step `simulate_paths` names on the same inputs.  The
    standard error needs n_paths >= 2; fewer raise ValueError.
    """
    if n_paths < 2:
        raise ValueError(f"need n_paths >= 2, got {n_paths}")
    dt = time_step(model, t0, n_steps)
    t0 = float(t0)
    # the plans live in this call only: a pass shares no state with another
    plans = [c.knots(t0, dt, n_steps, conj) for c in controls]
    x_end = np.empty((len(plans), n_paths))
    penalty = np.zeros((len(plans), n_paths))
    diverged = [[] for _ in plans]

    block = min(forward_model.BLOCK_PATHS, n_paths)
    buf = np.empty((n_steps, block))

    def draw(start, stop):
        return draw_increments(seed, stop - start, n_steps, dt, start=start,
                               out=buf[:, :stop - start])

    def run(start, stop, dw):
        for i, plan in enumerate(plans):
            xb, pb, _, k = _kernels.em_paths(float(x0), t0, dt, dw, model.sigma,
                                             model.drift, control=plan)
            if k >= 0:
                diverged[i].append(k)
            x_end[i, start:stop] = xb
            if pb is not None:
                penalty[i, start:stop] = pb

    map_path_blocks(draw, run, n_paths, block)
    for steps in diverged:
        if steps:
            raise SimulationDivergedError(min(steps))
    out = []
    for ctrl, xc, pen in zip(controls, x_end, penalty):
        total = np.asarray(tc(xc), dtype=float) + pen
        out.append(DualEstimate(
            value=float(np.mean(total)),
            std_error=float(np.std(total, ddof=1) / np.sqrt(n_paths)),
            penalty_mean=float(np.mean(pen)), n_paths=int(n_paths), seed=int(seed),
            control_kind=ctrl.kind))
    return out


def evaluate_control(model, conj, tc, ctrl, x0, t0, n_paths, n_steps, seed):
    """Monte Carlo dual value for one control: `evaluate_controls` with
    that control alone."""
    return evaluate_controls(model, conj, tc, (ctrl,), x0, t0, n_paths, n_steps,
                             seed)[0]


# largest gap between the 64- and 128-node rules, relative to max(1, ||Phi||)
_GH_AGREEMENT = 1e-12


def gauss_hermite_expectation(tc, mean, var):
    """E[Phi(mean + sqrt(var) N)], N ~ N(0, 1), by the 64-node
    Gauss-Hermite rule of `hj_solver.cole_hopf_reference`, or None when
    the 128-node rule differs from it by more than 1e-12 max(1, ||Phi||):
    data that oscillate or turn on the scale of the rule's node spacing
    (cos(5x) at a standard deviation of 3, say) get no value rather than a
    wrong one.  Data with critical points (knots, jumps: `tc.crit`) get
    None too, since a feature narrower than the node spacing can hide from
    both rules: the A10 spike, 0.04 wide, reads 0.0 under both at a
    standard deviation of 1, where its expectation is 0.008."""
    if tc.crit:
        return None
    std = math.sqrt(var)
    values = []
    for n in (64, 128):
        nodes, weights = _gauss_hermite_rule(n)
        values.append(float(np.asarray(tc(mean + std * nodes), dtype=float) @ weights))
    if not abs(values[0] - values[1]) <= _GH_AGREEMENT * max(1.0, tc.sup_norm):
        return None
    return values[0]


def exact_dual_value(model, conj, tc, ctrl, x0, t0, n_steps):
    """(value, penalty) of the control's row without paths, or None.

    A control with one number q_k per knot (`knot_rates`) under a zero or
    linear drift leaves the Euler X_T Gaussian (`euler_gaussian_law`), so
    the value is `gauss_hermite_expectation` of that law plus the penalty
    sum_k f(q_k) dt, added up in knot order as the Euler loop adds it.
    None when the control depends on the state, the drift is neither, or
    the two quadrature rules disagree."""
    dt = time_step(model, t0, n_steps)
    q = ctrl.knot_rates(float(t0), dt, n_steps)
    if q is None:
        return None
    law = euler_gaussian_law(model, float(x0), dt, q)
    if law is None:
        return None
    payoff = gauss_hermite_expectation(tc, *law)
    if payoff is None:
        return None
    penalty = 0.0
    for f in np.asarray(conj.eval(q), dtype=float).tolist():
        penalty += f * dt
    return payoff + penalty, penalty


@dataclass(frozen=True)
class ControlRow:
    """One control's dual value.  method "quadrature" rows are exact for
    the Euler scheme (std_error 0); "monte_carlo" rows are sampled."""

    control_kind: str
    value: float
    std_error: float
    penalty_mean: float
    lower_bound_pass: bool
    attainment_gap: float = float("nan")
    attainment_within_tol: bool = True
    method: str = "monte_carlo"


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
            fh.write("control_kind,value,std_error,penalty_mean,pass,method\n")
            for r in self.rows:
                fh.write(f"{r.control_kind},{r.value!r},{r.std_error!r},"
                         f"{r.penalty_mean!r},{int(r.lower_bound_pass)},{r.method}\n")


def duality_gap(model, gen, conj, tc, sol, x0, t0, n_paths, seed,
                n_steps=200, scheme_tol=1e-2, extra_controls=()):
    """Dual values for the zero and feedback controls (plus extras) against
    u(t0, x0).

    A row that `exact_dual_value` can give is exact (method "quadrature",
    std_error 0).  The others, the feedback row always, read the same
    Brownian increments, salt 0 of `seed` (one `evaluate_controls` pass),
    so they are correlated but each row's law is that of its control alone.
    Hard, one-sided check per control: value + 3 SE >= u0 - scheme_tol
    (every admissible measure upper-bounds the solution).  The feedback
    attainment gap is also reported; it is a soft diagnostic because
    attainment can genuinely fail for superquadratic generators.
    """
    u0 = float(sol.u_at(t0, x0))
    controls = [ZeroControl(), FeedbackControl(sol, gen), *extra_controls]
    exact = [exact_dual_value(model, conj, tc, c, x0, t0, n_steps) for c in controls]
    sampled = iter(evaluate_controls(
        model, conj, tc, [c for c, e in zip(controls, exact) if e is None],
        x0, t0, n_paths, n_steps, seed))
    rows = []
    for ctrl, ex in zip(controls, exact):
        if ex is None:
            est = next(sampled)
            value, se, pen, method = (est.value, est.std_error, est.penalty_mean,
                                      "monte_carlo")
        else:
            (value, pen), se, method = ex, 0.0, "quadrature"
        lower_ok = value + 3.0 * se >= u0 - scheme_tol
        if ctrl.kind == "feedback":
            gap = value - u0
            rows.append(ControlRow(ctrl.kind, value, se, pen, lower_ok, gap,
                                   abs(gap) <= 3.0 * se + scheme_tol, method))
        else:
            rows.append(ControlRow(ctrl.kind, value, se, pen, lower_ok,
                                   method=method))
    return DualityReport(u0=u0, scheme_tol=float(scheme_tol), rows=tuple(rows))
