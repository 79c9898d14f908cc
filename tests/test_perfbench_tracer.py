"""The benchmark's tracer (perfbench/tracer.py) on the current package.

The tracer wraps package functions by name and reads counts off what they
return, so a change to those names or return values can break
``perfbench/run.py --trace 1`` while every other test here passes.  These
tests load the tracer from its file, as the benchmark does, and leave the
package as they found it.  The workloads file is loaded the same way, so a
change to a call shape it uses fails here too.
"""

import importlib.util
from pathlib import Path

import superbsde
import superbsde.cli  # noqa: F401  (the tracer wraps cli as well)
from superbsde import counterexamples as cx
from superbsde import forward_model, hj_solver
from superbsde.forward_model import ForwardModel, ZeroDrift
from superbsde.generators import PowerGenerator
from superbsde.terminal_data import TerminalCondition

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ladder_counts_every_member_substep():
    solve = hj_solver.solve
    tracer = load("tracer").Tracer()
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


def test_traced_comb_workload_runs_the_thm34_call_shapes():
    # the cx_comb workload calls thm34_checks and the standalone witness
    # with the shapes perfbench/run.py uses
    witness = cx.limit_not_solution_witness
    workload = load("workloads").CxComb(0, toy=True)
    tracer = load("tracer").Tracer()
    tracer.install(superbsde)
    try:
        checks, _ = workload.run_pass()
    finally:
        tracer.restore()
    assert cx.limit_not_solution_witness is witness
    assert checks and all(c.passed for c in checks)
    names = {span[0] for span in tracer.spans}
    assert {"counterexamples.thm34_witness", "counterexamples.thm34_joint"} <= names


def test_traced_comb_normals_are_the_channel_draws(monkeypatch):
    # the tracer's counters are plain +=, exact only if every draw runs on
    # one thread; two passes must count every channel normal, and the same
    joint, calls = cx.thm34_joint_paths, []

    def recording(cfg, k_max, n_paths, seed, n_coarse=4096):
        stats = joint(cfg, k_max, n_paths, seed, n_coarse)
        calls.append(stats.n_paths * n_coarse * stats.k_max)
        return stats

    monkeypatch.setattr(cx, "thm34_joint_paths", recording)
    workload = load("workloads").CxComb(0, toy=True)
    passes = []
    for _ in range(2):
        tracer = load("tracer").Tracer()
        tracer.install(superbsde)
        try:
            workload.run_pass()
        finally:
            tracer.restore()
        passes.append((tracer.counts["forward_model.normals"], sum(calls)))
        calls.clear()
    assert passes[0] == passes[1]
    # thm34_checks at 200 paths and the 64-path witness, 512 knots, k <= 3
    assert passes[0][0] == passes[0][1] == (200 + 64) * 512 * 3


def test_traced_dual_counts_the_lazy_rng_draws():
    # forward_model's Philox and Generator load numpy.random at the first
    # draw; the tracer still patches them by name, so two toy mc_dual
    # passes count the same streams and every normal: the 2000 x 50 dual
    # draw, and the 1000 x 20 residual increments drawn twice (simulate_paths
    # and bsde_residual)
    workload = load("workloads").McDual(0, toy=True)
    passes = []
    for _ in range(2):
        tracer = load("tracer").Tracer()
        tracer.install(superbsde)
        try:
            checks, _ = workload.run_pass()
        finally:
            tracer.restore()
        assert checks and all(c.passed for c in checks)
        passes.append((tracer.counts["forward_model.normals"],
                       tracer.counts["forward_model.philox_streams"]))
    assert passes[0] == passes[1]
    # one re-keyed Philox per draw: the dual pass, simulate_paths, the residual
    assert passes[0] == (2000 * 50 + 2 * 1000 * 20, 3)
    for module in (forward_model, cx):
        assert vars(module)["Philox"] is forward_model.Philox
        assert vars(module)["Generator"] is forward_model.Generator
