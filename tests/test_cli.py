import csv
import filecmp
import subprocess
import sys

import numpy as np
import pytest

from superbsde import hj_solver
from superbsde.cli import (build_generator, build_grid, build_model, build_terminal,
                           load_config, main, run)
from superbsde.errors import ConfigError

FAST_CHECKS = """
generator: {kind: power, q: 3.0}
terminal: {profile: cos, amplitude: 0.5}
model: {drift: zero, sigma: 1.0, T: 1.0}
grid: {n_x: 128, dt: 0.005, x_lo: -8.0, x_hi: 8.0}
mc: {n_paths: 500, n_steps: 40, seed: 5}
"""


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("generator: {kind: power, q: 3.0}\n"
                     "terminal: {profile: cos}\n"
                     "model: {T: 1.0}\n")
        cfg = load_config(p, command="solve")
        assert cfg.grid["n_x"] == 321
        assert cfg.model["sigma"] == 1.0
        assert cfg.mc["seed"] == 1234

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("model: {sigma_x: 1.0}\n")
        with pytest.raises(ConfigError, match="sigma_x"):
            load_config(p, command="solve")

    def test_unknown_top_level_key(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("volatility: 2.0\n")
        with pytest.raises(ConfigError, match="volatility"):
            load_config(p, command="solve")

    def test_parse_error_has_line(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("model: {sigma: 1.0\n")
        with pytest.raises(ConfigError):
            load_config(p, command="solve")

    def test_type_errors(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("grid: {n_x: 2.5}\n")
        with pytest.raises(ConfigError, match="n_x"):
            load_config(p, command="solve")

    def test_full_simulation_cap_warning(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("counterexample: {K: 10, full_simulation: true}\n")
        cfg = load_config(p, command="counterexample", which="3.4")
        assert any("capped" in w for w in cfg.warnings)

    def test_invalid_generator_value_fails_before_compute(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("generator: {kind: power, q: 1.5}\n")
        with pytest.raises(ValueError):
            load_config(p, command="solve")

    def test_seed_override(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("mc: {seed: 9}\n")
        cfg = load_config(p, command="solve", overrides={"seed": 42})
        assert cfg.mc["seed"] == 42

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1])
    def test_seed_out_of_range(self, tmp_path, seed):
        p = tmp_path / "c.yaml"
        p.write_text(f"mc: {{seed: {seed}}}\n")
        with pytest.raises(ConfigError, match="mc.seed"):
            load_config(p, command="counterexample", which="3.3")
        with pytest.raises(ConfigError, match="mc.seed"):
            load_config(None, command="dual", overrides={"seed": seed})


class TestBuilders:
    def test_drift_specs(self):
        cfg = load_config(None, command="solve")
        cfg.model["drift"] = {"linear": 0.4}
        assert build_model(cfg).drift.beta == 0.4
        cfg.model["drift"] = {"tanh": 0.3}
        assert build_model(cfg).drift.scale == 0.3
        cfg.model["drift"] = "sideways"
        with pytest.raises(ConfigError, match="drift"):
            build_model(cfg)

    def test_terminal_profiles(self):
        cfg = load_config(None, command="solve")
        cfg.terminal = {"profile": "step", "jump": 0.0, "low": -1.0, "high": 1.0}
        tc = build_terminal(cfg)
        assert tc(1.0) == 1.0
        cfg.terminal["inf_convolve_m"] = 50.0
        tc = build_terminal(cfg)
        assert tc.regularity.L == 50.0


def _run_cli(args, cwd, env):
    return subprocess.run([sys.executable, "-m", "superbsde.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)


class TestCommands:
    def test_solve_exit_zero(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS)
        res = _run_cli(["solve", "--config", str(cfgp), "--out",
                        str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "solution.csv").exists()
        assert (tmp_path / "o" / "checks.csv").exists()
        assert (tmp_path / "o" / "summary.txt").exists()

    def test_checks_tiny_domain_nonzero_exit(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace("x_lo: -8.0, x_hi: 8.0",
                                            "x_lo: -0.5, x_hi: 0.5"))
        res = _run_cli(["checks", "--config", str(cfgp), "--out",
                        str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 1
        assert res.stderr.startswith("error: "), res.stderr
        assert "error" in res.stderr or "paths left the grid" in res.stderr

    def test_oracle_requires_quadratic(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS)
        res = _run_cli(["oracle", "--config", str(cfgp), "--out",
                        str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 1
        assert res.stderr.startswith("error: "), res.stderr
        assert "quadratic" in res.stderr

    def test_dump_paths(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS)
        res = _run_cli(["checks", "--config", str(cfgp), "--dump-paths",
                        "--out", str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "o" / "paths.csv").exists()

    def test_counterexample_34_defaults(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("mc: {n_paths: 500, n_steps: 512, seed: 2}\n"
                        "counterexample: {K: 3}\n")
        res = _run_cli(["counterexample", "3.4", "--config", str(cfgp),
                        "--out", str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 0, res.stderr
        text = (tmp_path / "o" / "counterexample.csv").read_text()
        assert text.startswith("construction,check,value,threshold,pass")

    def test_determinism_byte_identical(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS)
        for sub in ("a", "b"):
            res = _run_cli(["checks", "--config", str(cfgp), "--out",
                            str(tmp_path / sub)], tmp_path, child_env)
            assert res.returncode == 0, res.stderr
        for name in ("solution.csv", "checks.csv", "summary.txt"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name

    def test_main_inprocess_regularize(self, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS + "regularize: {m_list: [2.0, 8.0]}\n")
        rc = main(["regularize", "--config", str(cfgp), "--out",
                   str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "regularize.csv").exists()

    @pytest.mark.parametrize("argv", [["counterexample", "3.3", "--seed", "-1"],
                                      ["dual", "--seed", "18446744073709551615"]])
    def test_main_rejects_bad_seed_before_compute(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: mc.seed")
        assert not out.exists()

    def test_main_inprocess_oracle_csv(self, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace("{kind: power, q: 3.0}",
                                            "{kind: quadratic, gamma: 0.5}"))
        rc = main(["oracle", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 0
        with open(tmp_path / "o" / "oracle.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "u_oracle"]
        vals = np.array([[float(v) for v in row] for row in rows[1:]])
        cfg = load_config(cfgp, command="oracle")
        model = build_model(cfg)
        xs, _ = hj_solver._grid_arrays(model, build_grid(cfg), cfg.t0)
        want = hj_solver.cole_hopf_reference(model, build_generator(cfg)[0],
                                             build_terminal(cfg), cfg.t0, xs)
        assert np.array_equal(vals[:, 0], xs)
        assert np.array_equal(vals[:, 1], want)
