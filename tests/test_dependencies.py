"""The package runs on numpy alone: no numba, and no scipy outside tests.

Importing ``scipy.linalg`` costs about 0.3 s and 19 MB on a 2-core
machine, so a stray scipy import would show in every command's set-up
time and peak memory.  For the same reason the path-block thread pool
(``forward_model.map_path_blocks``) and ``concurrent.futures`` load only
when a Monte Carlo channel first runs more than one block.
"""

import subprocess
import sys

_CHILD = """
import sys
sys.modules["numba"] = sys.modules["scipy"] = None
import numpy as np
import superbsde, superbsde.cli
assert "concurrent.futures" not in sys.modules
from superbsde import _kernels
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
print("ok")
"""


def test_package_runs_without_numba_and_scipy(child_env):
    res = subprocess.run([sys.executable, "-c", _CHILD], env=child_env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"
