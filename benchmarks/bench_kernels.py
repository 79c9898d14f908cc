"""Benchmark the numba kernels against their numpy fallbacks.

Runs the tilted path simulation through both code paths, checks they
agree, and prints a timing table.  The PDE step has no jitted twin.

    python3 benchmarks/bench_kernels.py
"""
import time

import numpy as np

from superbsde import _kernels
from superbsde.dual_mc import FeedbackControl
from superbsde.forward_model import ForwardModel, ZeroDrift, draw_increments
from superbsde.generators import PowerGenerator
from superbsde.hj_solver import GridSpec, solve
from superbsde.terminal_data import TerminalCondition

if not _kernels.USE_NUMBA:
    raise SystemExit("numba is disabled or missing; nothing to compare "
                     "(unset SUPERBSDE_DISABLE_NUMBA)")


def time_it(fn, repeat=3):
    best = float("inf")
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_em():
    model = ForwardModel(ZeroDrift(), 1.0, 1.0)
    gen = PowerGenerator(3.0)
    tc = TerminalCondition.analytic("cos", amplitude=0.5)
    sol = solve(model, gen, tc, GridSpec(n_x=401, dt=5e-3, x_lo=-8, x_hi=8), 0.0)
    ctrl = FeedbackControl(sol, gen)
    n_paths, n_steps = 50_000, 200
    dw = draw_increments(1, n_paths, n_steps, 1.0 / n_steps)
    spec = ctrl.kernel_spec()

    def run_numba():
        return _kernels.em_paths_numba(0.0, 0.0, 1.0 / n_steps, dw, 1.0,
                                       _kernels.DRIFT_ZERO, 0.0, *spec)

    drift = ZeroDrift()

    def run_numpy():
        return _kernels.em_paths_numpy(0.0, 0.0, 1.0 / n_steps, dw, 1.0,
                                       drift, drift.dx, ctrl.rate)

    run_numba()
    tb, (xb, _, _) = time_it(run_numba, repeat=2)
    tp, (xp, _, _) = time_it(run_numpy, repeat=2)
    assert np.allclose(xb, xp, rtol=1e-9, atol=1e-11)
    return "tilted EM paths (5e4 x 200)", tb, tp


def main():
    rows = [bench_em()]
    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'numba':>9}  {'numpy':>9}  speedup")
    for name, tb, tp in rows:
        print(f"{name:<{width}}  {tb * 1e3:7.1f}ms  {tp * 1e3:7.1f}ms  "
              f"{tp / tb:6.1f}x")


if __name__ == "__main__":
    main()
