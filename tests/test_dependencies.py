"""The package runs on numpy alone: no numba, and no scipy outside tests.

Importing ``scipy.linalg`` costs about 0.3 s and 19 MB on a 2-core
machine, so a stray scipy import would show in every command's set-up
time and peak memory.
"""

import subprocess
import sys

_CHILD = """
import sys
sys.modules["numba"] = sys.modules["scipy"] = None
import numpy as np
import superbsde, superbsde.cli
from superbsde import _kernels
from superbsde.dual_mc import ConstantControl
from superbsde.forward_model import ForwardModel, TanhDrift
from superbsde.generators import PowerGenerator
from superbsde.hj_solver import GridSpec, solve
from superbsde.terminal_data import TerminalCondition

model = ForwardModel(TanhDrift(0.3), 1.0, 1.0)
sol = solve(model, PowerGenerator(3.0), TerminalCondition.analytic("cos"),
            GridSpec(n_x=64, dt=0.25, x_lo=-4.0, x_hi=4.0), 0.0)
bundle = superbsde.simulate_paths(model, 0.0, 0.0, 4, 8, seed=1,
                                  tilt=ConstantControl(0.5))
ov = _kernels.comb_cross_overlap(4, 0.25, 1.0 / 16, 1.0 / 16, 1.0 / 256,
                                 np.linspace(0.0, 1.0, 3))
assert np.all(np.isfinite(sol.u)) and bundle.tilted and ov.sum() > 0.0
print("ok")
"""


def test_package_runs_without_numba_and_scipy(child_env):
    res = subprocess.run([sys.executable, "-c", _CHILD], env=child_env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"
