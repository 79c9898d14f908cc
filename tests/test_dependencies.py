"""The package runs on numpy alone: no numba, and no scipy outside tests.

Importing ``scipy.linalg`` costs about 0.3 s and 19 MB on a 2-core
machine, so a stray scipy import would show in every command's set-up
time and peak memory.  The package also starts no threads: the Thm 3.4
joint channel runs its path blocks one after another on the calling
thread, so ``concurrent.futures`` is never imported and a channel of
several blocks leaves one thread alive.

Within numpy, a run loads only what it computes with: ``numpy.random``
(about 6 MB) at the first draw and ``numpy.polynomial`` (the Gauss-Hermite
rule, about 1.3 MB with its LAPACK pages) at the first quadrature.  So
``solve``, ``regularize`` and the three exact ``counterexample`` commands
load neither, ``oracle`` only the quadrature, and ``checks`` the RNG.
"""

import subprocess
import sys

from test_acceptance import FAST_CFG, QUAD_CFG

_CHILD = """
import sys
import threading
sys.modules["numba"] = sys.modules["scipy"] = None
import numpy as np
import superbsde, superbsde.cli
assert "concurrent.futures" not in sys.modules
from superbsde import _kernels
from superbsde import counterexamples as cx
from superbsde.dual_mc import ConstantControl, evaluate_control
from superbsde.forward_model import ForwardModel, TanhDrift
from superbsde.generators import PowerGenerator, conjugate_of
from superbsde.hj_solver import GridSpec, solve
from superbsde.terminal_data import TerminalCondition

model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
gen, tc = PowerGenerator(3.0), TerminalCondition.analytic("cos")
sol = solve(model, gen, tc, GridSpec(n_x=64, dt=0.25, x_lo=-4.0, x_hi=4.0), 0.0)
bundle = superbsde.simulate_paths(model, 0.0, 0.0, 4, 8, seed=1,
                                  tilt=ConstantControl(0.5))
est = evaluate_control(model, conjugate_of(gen), tc, ConstantControl(0.5),
                       0.0, 0.0, 4, 8, seed=1)
ov = _kernels.comb_cross_overlap(4, 0.25, 1.0 / 16, 1.0 / 16, 1.0 / 256,
                                 np.linspace(0.0, 1.0, 3))
assert np.all(np.isfinite(sol.u)) and bundle.tilted and ov.sum() > 0.0
assert np.isfinite(est.value) and est.penalty_mean > 0.0
n_paths = 2 * cx._joint_block(cx.PATH_K_MAX, 64) + 3  # three blocks
rep = cx.thm34_checks(cx.build_thm34(3.0, 3, 1.0), n_paths, 64, seed=4)
assert rep.rows and 0.0 < rep.p_nu_T <= 1.0
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
print("ok")
"""


def test_package_runs_without_numba_and_scipy(child_env):
    res = subprocess.run([sys.executable, "-c", _CHILD], env=child_env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"


_FOOTPRINT_CHILD = """
import sys
import threading
import superbsde, superbsde.cli
fast, quad, out = sys.argv[1:]

def loaded():
    return {m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules}

def run(*argv, config=fast):
    name = "_".join(argv)
    assert superbsde.cli.main([*argv, "--config", config, "--out",
                               f"{out}/{name}"]) == 0, name

assert loaded() == set(), loaded()
for argv in (["solve"], ["regularize"], ["counterexample", "3.1"],
             ["counterexample", "3.3"], ["counterexample", "3.4"]):
    run(*argv)
    assert loaded() == set(), (argv, loaded())
run("oracle", config=quad)
assert loaded() == {"numpy.polynomial"}, loaded()
run("checks")
assert "numpy.random" in loaded()
assert threading.active_count() == 1, threading.enumerate()
print("ok")
"""


def test_commands_load_only_what_they_compute_with(tmp_path, child_env):
    # at A12's configs: the PDE and the exact witnesses draw no normal and
    # run no quadrature, so they must not pay for numpy.random or
    # numpy.polynomial
    fast, quad = tmp_path / "fast.yaml", tmp_path / "quad.yaml"
    fast.write_text(FAST_CFG)
    quad.write_text(QUAD_CFG)
    res = subprocess.run([sys.executable, "-c", _FOOTPRINT_CHILD, str(fast),
                          str(quad), str(tmp_path / "out")], cwd=tmp_path,
                         env=child_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "ok"
