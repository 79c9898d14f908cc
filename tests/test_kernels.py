"""The jitted kernels and their numpy twins must agree to rounding."""

import numpy as np
import pytest

from superbsde import _kernels
from superbsde.dual_mc import FeedbackControl, ZeroControl
from superbsde.forward_model import (ForwardModel, TanhDrift, ZeroDrift,
                                     draw_increments)
from superbsde.generators import PowerGenerator
from superbsde.hj_solver import GridSpec, solve
from superbsde.terminal_data import TerminalCondition

pytestmark = pytest.mark.skipif(not _kernels.USE_NUMBA,
                                reason="numba disabled; only one path to test")


class TestEmPaths:
    def test_untilted_agree(self):
        dw = draw_increments(3, 64, 32, 1.0 / 32)
        drift = TanhDrift(0.3)
        xa, fa, da = _kernels.em_paths_numba(
            0.2, 0.0, 1.0 / 32, dw, 1.0, _kernels.DRIFT_TANH, 0.3,
            *_tilt_none())
        xb, fb, db = _kernels.em_paths_numpy(0.2, 0.0, 1.0 / 32, dw, 1.0,
                                             drift, drift.dx, None)
        assert da == db == -1
        assert np.allclose(xa, xb, rtol=1e-13)
        assert np.allclose(fa, fb, rtol=1e-13)

    def test_feedback_tilt_agree(self):
        model = ForwardModel(ZeroDrift(), 1.0, 1.0)
        gen = PowerGenerator(3.0)
        tc = TerminalCondition.analytic("cos", amplitude=0.5)
        sol = solve(model, gen, tc,
                    GridSpec(n_x=201, dt=0.01, x_lo=-6, x_hi=6), 0.0)
        ctrl = FeedbackControl(sol, gen)
        dw = draw_increments(4, 32, 25, 1.0 / 25)
        spec = ctrl.kernel_spec()
        xa, fa, da = _kernels.em_paths_numba(0.1, 0.0, 1.0 / 25, dw, 1.0,
                                             _kernels.DRIFT_ZERO, 0.0, *spec)
        drift = ZeroDrift()
        xb, fb, db = _kernels.em_paths_numpy(0.1, 0.0, 1.0 / 25, dw, 1.0,
                                             drift, drift.dx, ctrl.rate)
        assert da == db == -1
        assert np.allclose(xa, xb, rtol=1e-10, atol=1e-12)


def _tilt_none():
    return ZeroControl().kernel_spec()


class TestEnvFlag:
    def test_flag_reflects_environment(self, tmp_path, package_root):
        import subprocess
        import sys

        code = ("import superbsde._kernels as k; "
                "print(k.USE_NUMBA)")
        out = subprocess.run([sys.executable, "-c", code],
                             env={"PATH": "/usr/bin:/bin",
                                  "PYTHONPATH": package_root,
                                  "SUPERBSDE_DISABLE_NUMBA": "1"},
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
