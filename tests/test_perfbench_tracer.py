"""The benchmark's tracer (perfbench/tracer.py) on the current package.

The tracer wraps package functions by name and reads counts off what they
return, so a change to those names or return values can break
``perfbench/run.py --trace 1`` while every other test here passes.  These
tests load the tracer from its file, as the benchmark does, and leave the
package as they found it.
"""

import importlib.util
from pathlib import Path

import superbsde
import superbsde.cli  # noqa: F401  (the tracer wraps cli as well)
from superbsde import hj_solver
from superbsde.forward_model import ForwardModel, ZeroDrift
from superbsde.generators import PowerGenerator
from superbsde.terminal_data import TerminalCondition

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ladder_counts_every_member_substep():
    solve = hj_solver.solve
    tracer = load_tracer().Tracer()
    tracer.install(superbsde)
    try:
        spike = TerminalCondition.tabulated([-8.0, -0.02, 0.0, 0.02, 8.0],
                                            [0.0, 0.0, 1.0, 0.0, 0.0])
        members = hj_solver.solve_regularized_family(
            ForwardModel(ZeroDrift(), 1.0, 1.0), PowerGenerator(3.0), spike,
            [2.0, 4.0, 8.0], "upper",
            hj_solver.GridSpec(n_x=101, dt=1e-2, x_lo=-8.0, x_hi=8.0), 0.0)
    finally:
        tracer.restore()
    assert hj_solver.solve is solve
    assert len(members) == 3
    assert tracer.counts["hj_solver.solves"] == 1
    assert tracer.counts["hj_solver.substeps"] == sum(int(s.substeps.sum())
                                                      for s in members) > 0
