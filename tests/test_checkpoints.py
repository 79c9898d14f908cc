"""A solve whose field exceeds `hj_solver.KEEP_FLOATS` keeps checkpoints
and replays every other level with the solve's own level step.  Every
reader must give the bits of the same solve with every level kept."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from superbsde import cli, hj_solver, path_checks
from superbsde.dual_mc import FeedbackControl, knot_times
from superbsde.forward_model import ForwardModel, TanhDrift, simulate_paths
from superbsde.generators import PowerGenerator, conjugate_of
from superbsde.path_checks import (apriori_z_bound, bsde_residual, exponent_fit,
                                   penalty_bound_check)
from superbsde.terminal_data import TerminalCondition

MODEL = ForwardModel(TanhDrift(0.5), 1.0, 1.0)
GEN = PowerGenerator(3.0)
# 501 levels: the exponent fit's window 10 dt <= T - s <= T / 10 holds 41
GRID = hj_solver.GridSpec(n_x=401, dt=2e-3, x_lo=-8.0, x_hi=8.0)
# the step sets the stack's substeps near T
STACK = (TerminalCondition.analytic("cos", amplitude=0.5),
         TerminalCondition.step(0.0, 0.0, 1.0),
         TerminalCondition.tabulated([-8.0, -0.02, 0.0, 0.02, 8.0],
                                     [0.0, 0.0, 1.0, 0.0, 0.0]),
         TerminalCondition.analytic("inv_quad", amplitude=1.0))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _same(a, b):
    return np.array_equal(_bits(a), _bits(b))


def _pair(tc):
    """The solve of tc with every level kept and with checkpoints only."""
    whole = hj_solver.solve(MODEL, GEN, tc, GRID, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hj_solver, "KEEP_FLOATS", 0)
        kept = hj_solver.solve(MODEL, GEN, tc, GRID, 0.0)
    assert whole.replay is None and kept.replay is not None
    return whole, kept


@pytest.fixture(scope="module")
def one():
    return _pair(STACK[0])


@pytest.fixture(scope="module")
def stack():
    return _pair(list(STACK))


@pytest.fixture(scope="module", params=["one", 0, 1, 2, 3],
                ids=["one", "member0", "member1", "member2", "member3"])
def single(request, one, stack):
    """A single-member pair: the one-member solve, or a member of the stack."""
    if request.param == "one":
        return one
    whole, kept = stack
    return whole.members()[request.param], kept.members()[request.param]


def _levels(sol):
    return sol.t_grid.size


class TestKeptLevels:
    def test_every_sqrt_level_and_the_last_two(self, one):
        whole, kept = one
        n_t = _levels(whole)
        stride = math.isqrt(n_t - 1) + 1
        assert stride == math.ceil(math.sqrt(n_t)) == 23
        want = sorted(set(range(0, n_t, stride)) | {n_t - 2, n_t - 1})
        assert kept.replay.kept.tolist() == want
        assert _same(kept.u, whole.u[want])
        # u[0] is the terminal level and u[-1] the level at t0, as before
        assert _same(kept.u[0], whole.u[0]) and _same(kept.u[-1], whole.u[-1])

    def test_a_field_within_the_budget_keeps_every_level(self):
        n_t = round(1.0 / GRID.dt) + 1
        assert n_t * GRID.n_x <= hj_solver.KEEP_FLOATS
        assert hj_solver._kept_levels(n_t, GRID.n_x).all()
        assert hj_solver._kept_levels(n_t, hj_solver.KEEP_FLOATS // n_t + 1).sum() == 24

    def test_counters_are_per_level_and_unchanged(self, stack):
        whole, kept = stack
        assert _same(kept.substeps, whole.substeps)
        assert np.array_equal(kept.cap_active, whole.cap_active)
        assert kept.substeps.max() > 1

    def test_a_read_steps_each_level_at_most_once(self, one, monkeypatch):
        whole, kept = one
        calls = []
        step = hj_solver._LevelStep.__call__
        monkeypatch.setattr(hj_solver._LevelStep, "__call__",
                            lambda self, k, pad: calls.append(k) or step(self, k, pad))
        replayed = _levels(whole) - kept.replay.kept.size
        for read in (lambda: kept.rows(slice(None)), lambda: list(kept.walk()),
                     lambda: kept.rows(np.arange(_levels(whole))[::-1])):
            calls.clear()
            read()
            assert len(calls) == len(set(calls)) == replayed
        # a lookup at t0 and the kept levels read no replay
        calls.clear()
        kept.u_at(0.0, 0.3)
        kept.rows(kept.replay.kept)
        assert calls == []
        # a replay adds nothing to the solve's substeps
        assert _same(kept.substeps, whole.substeps)

    def test_each_envelope_walks_u_once(self, one, monkeypatch):
        # the penalty check takes the |Z| peaks of its convexity probe and
        # the composite peaks from one walk, so no level is stepped twice
        whole, kept = one
        calls = []
        step = hj_solver._LevelStep.__call__
        monkeypatch.setattr(hj_solver._LevelStep, "__call__",
                            lambda self, k, pad: calls.append(k) or step(self, k, pad))
        sup, conj = whole.tc.sup_norm, conjugate_of(GEN)
        for check in (lambda: penalty_bound_check(kept, GEN, conj, sup),
                      lambda: apriori_z_bound(kept, MODEL, sup),
                      lambda: exponent_fit(kept, 3.0)):
            calls.clear()
            check()
            assert len(calls) == len(set(calls)) == _levels(whole) - kept.replay.kept.size


class TestReplayBits:
    def test_rows_on_every_level(self, single):
        whole, kept = single
        n_t = _levels(whole)
        assert _same(kept.rows(slice(None)), whole.u)
        for k in [*range(0, n_t, 7), n_t - 3, -1, -2]:
            assert _same(kept.rows(k), whole.u[k])
        levels = np.array([400, 3, 3, 0, n_t - 1, 250, 1, 251])
        assert _same(kept.rows(levels), whole.u[levels])
        assert _same(kept.rows(slice(5, 300, 11)), whole.u[5:300:11])

    def test_walk(self, single):
        whole, kept = single
        rows = list(kept.walk())
        assert len(rows) == _levels(whole)
        assert _same(np.array(rows), whole.u)

    def test_z_rows(self, single):
        whole, kept = single
        assert _same(kept.z_rows(slice(None)), whole.z_rows(slice(None)))
        levels = np.array([17, 2, 480, 2])
        assert _same(kept.z_rows(levels), whole.z_rows(levels))

    def test_lookups_at_off_level_times(self, single):
        whole, kept = single
        ts = np.array([0.0, 0.0031, 0.4137, 0.5, 0.77, 0.9989, 1.0])
        xs = np.linspace(-9.0, 9.0, ts.size)
        for lookup in ("u_at", "z_at"):
            a, b = getattr(kept, lookup), getattr(whole, lookup)
            assert _same(a(ts, xs), b(ts, xs))
            assert _same(a(0.4137, xs), b(0.4137, xs))
            assert a(0.6011, 0.25) == b(0.6011, 0.25)

    def test_csv_bytes(self, single, tmp_path):
        whole, kept = single
        whole.to_csv(tmp_path / "whole.csv")
        kept.to_csv(tmp_path / "kept.csv")
        assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_envelope_and_exponent_rows(self, single):
        whole, kept = single
        sup = whole.tc.sup_norm
        conj = conjugate_of(GEN)
        for check in (lambda s: apriori_z_bound(s, MODEL, sup),
                      lambda s: penalty_bound_check(s, GEN, conj, sup),
                      lambda s: exponent_fit(s, 3.0)):
            assert repr(check(kept)) == repr(check(whole))

    @pytest.mark.parametrize("stack_floats", [1, 4 * 401, path_checks._Z_STACK_FLOATS],
                             ids=["one_row", "four_rows", "default"])
    def test_z_peaks_at_any_stack_depth(self, single, monkeypatch, stack_floats):
        # 501 levels leave a part-filled last stack at 4 and 163 rows
        whole, kept = single
        conj = conjugate_of(GEN)

        def composite(z):
            return np.max(conj.eval(GEN.grad(z)), axis=-1)

        n_t = _levels(whole)
        wanted = ((np.arange(n_t), path_checks._abs_max), (np.arange(10, n_t, 3), composite))
        want = [peak(whole.z_rows(levels)) for levels, peak in wanted]
        monkeypatch.setattr(path_checks, "_Z_STACK_FLOATS", stack_floats)
        for sol in (whole, kept):
            got = path_checks._z_peaks(sol, *wanted)
            assert all(_same(g, w) for g, w in zip(got, want))

    def test_bsde_residual(self, single):
        whole, kept = single
        bundle = simulate_paths(MODEL, 0.0, 0.0, 300, 40, seed=11)
        assert repr(bsde_residual(kept, MODEL, GEN, bundle)) == repr(
            bsde_residual(whole, MODEL, GEN, bundle))

    def test_feedback_rows(self, single):
        whole, kept = single
        times = knot_times(0.0, 1.0 / 64, 64)
        assert _same(FeedbackControl(kept, GEN)._rows(times),
                     FeedbackControl(whole, GEN)._rows(times))

    def test_stack_rows_and_z(self, stack):
        whole, kept = stack
        assert _same(kept.rows(slice(None)), whole.u)
        assert _same(np.array(list(kept.walk())), whole.u)
        assert _same(kept.z_rows(slice(None)), whole.z_rows(slice(None)))

    def test_member_replay_on_its_own_breaks_the_bits(self, stack):
        # the defect: a member replayed alone sizes every substep by its own
        # theta, not the stack's, although the clamp is the stack's
        whole, kept = stack
        step = kept.replay.step
        alone = hj_solver._LevelStep(step.model, step.gen, step.x, step.t_desc,
                                     step.sup_norm, step.lip)
        member = kept.members()[0]
        defective = dataclasses.replace(
            member, replay=hj_solver._Replay(alone, kept.replay.kept, member.u), member=None)
        assert _same(member.rows(slice(None)), whole.members()[0].u)
        assert not _same(defective.rows(slice(None)), whole.members()[0].u)


class TestMemory:
    def test_checkpointed_solve_holds_about_two_sqrt_rows(self):
        # 3201 nodes x 1001 levels is a 24.4 MiB field; kept whole, a solve
        # would hold its 1001 rows
        grid = hj_solver.GridSpec(n_x=3201, dt=1e-3, x_lo=-8.0, x_hi=8.0)
        tracemalloc.start()
        try:
            sol = hj_solver.solve(MODEL, GEN, STACK[0], grid, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_t, row = sol.t_grid.size, sol.x_grid.size * 8
        assert n_t * row == 25_633_608
        assert sol.u.shape[0] == 32 + 2
        assert peak <= sol.u.nbytes + 2 * math.ceil(math.sqrt(n_t)) * row

    def test_streamed_whole_field_reads_hold_a_few_rows(self, one, tmp_path):
        # 501 levels, 24 kept; the CSV's strings of one level are about 50
        # rows of floats, and the .npy writer and the extremes of
        # _solution_rows hold the replay's state and one substep's
        # temporaries
        whole, kept = one
        row = kept.x_grid.size * 8
        for read, rows in ((lambda: kept.to_csv(tmp_path / "u.csv"), 64),
                           (lambda: kept.to_npy(tmp_path / "u.npy"), 16),
                           (lambda: cli._solution_rows(kept), 16)):
            tracemalloc.start()
            try:
                read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= rows * row
