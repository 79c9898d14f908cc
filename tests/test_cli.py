import csv
import dataclasses
import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from superbsde import cli
from superbsde import counterexamples as cx
from superbsde import generators, hj_solver, terminal_data
from superbsde.cli import (build_generator, build_grid, build_model, build_terminal,
                           load_config, main, run)
from superbsde.errors import ConfigError
from test_acceptance import FAST_CFG, QUAD_CFG

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

    def test_full_simulation_key_rejected(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("counterexample: {K: 10, full_simulation: true}\n")
        with pytest.raises(ConfigError, match="counterexample.full_simulation: unknown key"):
            load_config(p, command="counterexample", which="3.4")

    def test_invalid_generator_value_fails_before_compute(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("generator: {kind: power, q: 1.5}\n")
        with pytest.raises(ConfigError, match="generator"):
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
        assert tc.lipschitz == 50.0


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
        # no path stays in [-0.25, 0.25], so there is no residual to report
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace("x_lo: -8.0, x_hi: 8.0",
                                            "x_lo: -0.25, x_hi: 0.25"))
        res = _run_cli(["checks", "--config", str(cfgp), "--out",
                        str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 1
        assert res.stderr.startswith("error: "), res.stderr
        assert "paths left the grid" in res.stderr

    def test_checks_exclusion_row_fails_the_run(self, tmp_path, child_env):
        # about 98 % of the paths leave [-0.5, 0.5]: the run completes, and
        # the hard exclusion row is what fails it
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace("x_lo: -8.0, x_hi: 8.0",
                                            "x_lo: -0.5, x_hi: 0.5"))
        out = tmp_path / "o"
        res = _run_cli(["checks", "--config", str(cfgp), "--dump-paths",
                        "--out", str(out)], tmp_path, child_env)
        assert res.returncode == 1
        assert res.stderr == ""
        for name in ("solution.csv", "paths.csv", "checks.csv", "summary.txt"):
            assert (out / name).exists(), name
        with open(out / "checks.csv", newline="") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        row = rows["path exclusion fraction <= 1%"]
        assert row["pass"] == "0"
        assert float(row["statistic"]) > 0.9

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
        with open(tmp_path / "o" / "paths.csv") as fh:
            assert fh.readline() == "path,t,x,dB\n"

    def test_zero_payoff_checks_pass_without_warnings(self, tmp_path, child_env):
        # u = 0 and Z = 0 are exact: both envelopes read 0 against a zero
        # threshold, with no 0/0 (numpy warnings are errors in the child)
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace("amplitude: 0.5", "amplitude: 0.0"))
        out = tmp_path / "o"
        res = subprocess.run([sys.executable, "-W", "error", "-m", "superbsde.cli",
                              "checks", "--config", str(cfgp), "--out", str(out)],
                             cwd=tmp_path, env=child_env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        with open(out / "checks.csv", newline="") as fh:
            rows = {r["check"]: r for r in csv.DictReader(fh)}
        for name in ("Z envelope ratio <= 1", "penalty envelope ratio <= 1"):
            assert (rows[name]["statistic"], rows[name]["pass"]) == ("0.0", "1")

    def test_dual_summary_names_the_sampled_rows(self, tmp_path):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS + "dual: {constants: [0.5]}\n")
        out = tmp_path / "o"
        assert main(["dual", "--config", str(cfgp), "--out", str(out)]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert [line for line in lines if line.startswith(("rng:", "quadrature"))] == [
            "rng: per-path Philox keys (seed << 64) + (salt << 48) + p; the sampled "
            "rows (feedback) read salt 0 of seed 5",
            "quadrature rows (zero, constant): Gauss-Hermite expectation of the "
            "Gaussian Euler X_T, no paths"]

    def test_counterexample_34_defaults(self, tmp_path, child_env):
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text("mc: {n_paths: 500, n_steps: 512, seed: 2}\n"
                        "counterexample: {K: 3}\n")
        res = _run_cli(["counterexample", "3.4", "--config", str(cfgp),
                        "--out", str(tmp_path / "o")], tmp_path, child_env)
        assert res.returncode == 0, res.stderr
        text = (tmp_path / "o" / "counterexample.csv").read_text()
        assert text.startswith("construction,check,value,threshold,pass")

    @staticmethod
    def counterexample_values(tmp_path, which, K):
        cfgp = tmp_path / f"{which}.yaml"
        cfgp.write_text(f"counterexample: {{K: {K}}}\n")
        out = tmp_path / which
        assert main(["counterexample", which, "--config", str(cfgp), "--out", str(out)]) == 0
        with open(out / "counterexample.csv", newline="") as fh:
            return {r["check"]: r["value"] for r in csv.DictReader(fh)}

    def test_counterexample_33_runs_the_K_it_is_given(self, tmp_path):
        # K = 20 is past the 16 that 3.3 was once clipped to
        rows = self.counterexample_values(tmp_path, "3.3", 20)
        want = cx.simulate_thm33_excursion(cx.build_thm33(3, 2, .5, .5, 20)).rows[1]
        assert rows[want.check] == repr(want.value)

    def test_counterexample_31_runs_at_least_K_10(self, tmp_path):
        # the K shared with 3.4 (K: 3 in A12) is raised to the 10 build_thm31 needs
        rows = self.counterexample_values(tmp_path, "3.1", 5)
        want = cx.thm31_series_report(cx.build_thm31(3.0, 10, 1.0)).rows
        assert rows == {r.check: repr(float(r.value)) for r in want}

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

    def test_regularize_csv_cells_are_numbers(self, tmp_path):
        # inv_quad's Lipschitz constant 3 sqrt(3) / 8 is computed with numpy;
        # the certificate column must still read as plain floats
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace("{profile: cos, amplitude: 0.5}",
                                            "{profile: inv_quad, amplitude: 1.0}")
                        + "regularize: {m_list: [2.0, 8.0]}\n")
        out = tmp_path / "o"
        assert main(["regularize", "--config", str(cfgp), "--out", str(out)]) == 0
        for name, first in (("regularize.csv", 0), ("checks.csv", 1)):
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, name
            for row in rows:
                for cell in row[first:]:
                    float(cell)

    def test_understated_lipschitz_fails_certificate(self, tmp_path):
        # the slope-50 spike claimed 1-Lipschitz certifies 2 ||Phi|| L / m =
        # 0.125 at m = 16, below its measured terminal gap of about 0.68
        (tmp_path / "spike.csv").write_text(
            "x,phi\n-8.0,0.0\n-0.02,0.0\n0.0,1.0\n0.02,0.0\n8.0,0.0\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(f"terminal: {{profile: tabulated, csv: {tmp_path}/spike.csv}}\n")

        def certificate_row(cfg, sub):
            cfg.out = str(tmp_path / sub)
            rc = run(cfg)
            with open(tmp_path / sub / "checks.csv", newline="") as fh:
                rows = {r["check"]: r for r in csv.DictReader(fh)}
            return rc, rows["certified terminal gap >= measured"]

        cfg = load_config(cfgp, command="regularize")
        tc = cfg.inputs.tc
        assert tc.lipschitz == pytest.approx(50.0)
        rc, row = certificate_row(cfg, "honest")
        assert rc == 0 and row["pass"] == "1"
        assert float(row["threshold"]) == 2.0  # 2 ||Phi|| L / 16, capped at 2 ||Phi||
        cfg.inputs = dataclasses.replace(cfg.inputs, tc=terminal_data.TerminalCondition(
            tc.fn, tc.lo, tc.hi, lipschitz=1.0, crit=tc.crit))
        rc, row = certificate_row(cfg, "understated")
        assert rc == 1 and row["pass"] == "0"
        assert float(row["threshold"]) == 0.125
        assert float(row["statistic"]) > 0.6

    @pytest.mark.parametrize("lipschitz, status", [(1.0, 1), (50.0, 0)])
    def test_certificate_sees_a_kink_between_grid_nodes(self, tmp_path, lipschitz,
                                                        status):
        # a slope-50 spike at 0.025 lies between the default grid's nodes (at
        # multiples of 0.05), so Phi - Phi_m reads 0 on every node; its table
        # nodes are critical points, and the apex gap 1 - 16 * 0.02 = 0.68
        # beats the 0.125 that L = 1 certifies at m = 16
        (tmp_path / "spike.csv").write_text(
            "x,phi\n-8.0,0.0\n0.005,0.0\n0.025,1.0\n0.045,0.0\n8.0,0.0\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(f"terminal: {{profile: tabulated, csv: {tmp_path}/spike.csv}}\n")
        cfg = load_config(cfgp, command="regularize")
        tc = cfg.inputs.tc
        cfg.inputs = dataclasses.replace(cfg.inputs, tc=terminal_data.TerminalCondition(
            tc.fn, tc.lo, tc.hi, lipschitz=lipschitz, crit=tc.crit))
        cfg.out = str(tmp_path / "o")
        x_grid, _ = hj_solver._grid_arrays(cfg.inputs.model, cfg.inputs.grid, cfg.t0)
        assert np.max(np.asarray(tc(x_grid))) == 0.0
        assert run(cfg) == status
        with open(tmp_path / "o" / "checks.csv", newline="") as fh:
            row = {r["check"]: r for r in csv.DictReader(fh)}[
                "certified terminal gap >= measured"]
        assert row["pass"] == str(1 - status)
        assert float(row["statistic"]) == pytest.approx(0.68, abs=1e-6)

    @pytest.mark.parametrize("argv", [["counterexample", "3.3", "--seed", "-1"],
                                      ["dual", "--seed", "18446744073709551615"]])
    def test_main_rejects_bad_seed_before_compute(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        rc = main(argv + ["--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: mc.seed")
        assert not out.exists()

    @pytest.mark.parametrize("command, text, field", [
        ("dual", "mc: {n_steps: 0}", "mc.n_steps"),
        ("dual", "mc: {n_paths: 1}", "mc.n_paths"),
        ("counterexample 3.4", "mc: {n_paths: 1}", "mc.n_paths"),
        ("dual", "grid: {n_x: 10}", "grid.n_x"),
        ("dual", "grid: {dt: 0.0}", "grid.dt"),
        ("dual", "model: {sigma: -1.0}", "model"),
        ("solve", "generator: {kind: power, q: 2.0}", "generator"),
        ("solve", "generator: {kind: sampled, csv: missing.csv}", "generator"),
        ("solve", "generator: {kind: sampled, csv: one.csv}", "generator"),
        ("solve", "terminal: {profile: tabulated, csv: missing.csv}", "terminal"),
        ("solve", "terminal: {profile: tabulated, csv: one.csv}", "terminal"),
        ("regularize", "regularize: {m_list: [8.0, 2.0]}", "regularize.m_list"),
        ("regularize", "regularize: {m_list: []}", "regularize.m_list"),
        ("regularize", "regularize: {m_list: [a]}", "regularize.m_list"),
        ("regularize", "regularize: {m_list: 2.0}", "regularize.m_list"),
        ("regularize", "regularize: {m_list: [2.0, .inf]}", "regularize.m_list"),
        ("dual", "dual: {constants: [x]}", "dual.constants"),
        ("dual", "dual: {constants: [.nan]}", "dual.constants"),
        ("dual", "dual: {constants: [.inf]}", "dual.constants"),
        ("counterexample 3.3", "counterexample: {theta: 1.5}", "counterexample"),
        ("counterexample 3.4", "counterexample: {K: 0}", "counterexample"),
        ("counterexample 3.1", "counterexample: {q: 2.0}", "counterexample"),
        ("counterexample 3.4", "counterexample: {K: 100}", "counterexample"),
        ("counterexample 3.3", "counterexample: {K: 400}", "counterexample"),
        ("counterexample 3.3", "counterexample: {n: 2000}", "counterexample"),
        ("oracle", "generator: {kind: power, q: 3.0}", "generator.kind"),
        ("oracle", "generator: {kind: quadratic}\nmodel: {drift: {linear: 0.5}}",
         "model.drift"),
        ("solve", "t0: 2.0", "grid"),
        ("checks", "grid: {x_lo: 1.0, x_hi: -1.0}", "grid"),
        ("dual", "grid: {x_lo: 0.5}", "grid"),
        ("solve", "grid: {x_lo: -1.0, x_hi: 1.0}\nx0: 5.0", "x0"),
        ("solve", "grid: {pad: -50.0}", "grid"),
        ("solve", "model: {drift: {linear: null}}", "model.drift"),
        ("solve", "model: {drift: {linear: 2.0}, lambda: 0.0}", "model.lambda"),
        ("solve", "generator: {kind: power, q: .inf}", "generator"),
        ("solve", "generator: {kind: quadratic, gamma: .inf}", "generator"),
        ("solve", "generator: {kind: sampled, csv: nan_node.csv}", "generator"),
        ("solve", "terminal: {profile: cos, amplitude: .inf}", "terminal"),
        ("solve", "terminal: {profile: tabulated, csv: nan_node.csv}", "terminal"),
        ("dual", "dual: {scheme_tol: .nan}", "dual.scheme_tol"),
        ("dual", "dual: {scheme_tol: -0.1}", "dual.scheme_tol"),
        ("solve", "terminal: {profile: step, high: .inf}", "terminal"),
        ("solve", "terminal: {profile: cos, inf_convolve_m: .nan}", "terminal"),
        ("solve", "model: {sigma: .inf}", "model"),
        ("solve", "model: {T: .inf}", "model"),
        ("solve", "x0: .nan", "x0"),
        ("counterexample 3.1", "counterexample: {T: 0.0}\ngrid: {n_x: 64}",
         "counterexample.T"),
        ("counterexample 3.4", "counterexample: {T: -1.0}\ngrid: {n_x: 64}",
         "counterexample.T"),
        ("counterexample 3.3", "counterexample: {T: .inf}", "counterexample.T"),
    ], ids=["n_steps", "n_paths", "cx_n_paths", "n_x", "dt", "sigma", "q",
            "generator_csv_missing", "generator_csv_one_column",
            "terminal_csv_missing", "terminal_csv_one_column",
            "m_list_decreasing", "m_list_empty", "m_list_not_numbers",
            "m_list_not_a_list", "m_list_inf", "dual_constants_not_numbers",
            "dual_constants_nan", "dual_constants_inf", "cx33_theta",
            "cx34_K_zero", "cx31_q", "cx34_K_overflow",
            "cx33_K_overflow", "cx33_n_overflow", "oracle_power",
            "oracle_drift", "t0_past_horizon", "x_lo_above_x_hi", "x_lo_alone",
            "x0_outside_domain", "default_domain_empty", "drift_not_a_number",
            "lambda_is_not_a_setting", "q_inf", "gamma_inf", "generator_nan_node",
            "amplitude_inf", "terminal_nan_node", "scheme_tol_nan",
            "scheme_tol_negative", "step_high_inf", "inf_convolve_m_nan",
            "sigma_inf", "horizon_inf", "x0_nan", "cx31_T_zero", "cx34_T_negative",
            "cx33_T_inf"])
    def test_main_rejects_bad_value_before_compute(self, tmp_path, capsys,
                                                    command, text, field):
        (tmp_path / "one.csv").write_text("x\n0.0\n1.0\n")
        (tmp_path / "nan_node.csv").write_text("x,y\n0.0,0.0\n1.0,nan\n10.0,1000.0\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(text.replace("csv: ", f"csv: {tmp_path}/") + "\n")
        out = tmp_path / "o"
        rc = main([*command.split(), "--config", str(cfgp), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")
        assert not out.exists()

    def test_each_csv_read_once_per_run(self, tmp_path, monkeypatch):
        real = generators.read_two_columns
        reads = []

        def counting(path):
            reads.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(generators, "read_two_columns", counting)
        monkeypatch.setattr(terminal_data, "read_two_columns", counting)
        (tmp_path / "g.csv").write_text("z,g\n0.0,0.0\n1.0,1.0\n10.0,1000.0\n")
        (tmp_path / "t.csv").write_text("x,phi\n-8.0,0.0\n0.0,0.5\n8.0,0.0\n")
        cfgp = tmp_path / "c.yaml"
        cfgp.write_text(FAST_CHECKS.replace(
            "generator: {kind: power, q: 3.0}",
            f"generator: {{kind: sampled, csv: {tmp_path}/g.csv}}").replace(
            "terminal: {profile: cos, amplitude: 0.5}",
            f"terminal: {{profile: tabulated, csv: {tmp_path}/t.csv}}"))
        for command in ("solve", "checks", "dual", "regularize"):
            reads.clear()
            rc = main([command, "--config", str(cfgp), "--out", str(tmp_path / command)])
            assert rc == 0
            assert sorted(reads) == ["g.csv", "t.csv"], command

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


class TestHelp:
    def test_epilog_lists_the_defaults_yaml(self, capsys):
        # the epilog is dumped once per process and reads the same on
        # every call
        sections = {k: v for k, v in cli._DEFAULTS.items() if isinstance(v, dict)}
        want = yaml.safe_dump(sections, default_flow_style=True, sort_keys=True,
                              width=100)
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].endswith("config defaults (YAML):\n" + want)
        assert cli._defaults_yaml() is cli._defaults_yaml()


class TestInProcessPasses:
    COMMANDS = (("solve", "fast"), ("checks", "fast"), ("dual", "fast"),
                ("regularize", "fast"), ("oracle", "quad"),
                ("counterexample 3.1", "fast"), ("counterexample 3.3", "fast"),
                ("counterexample 3.4", "fast"))

    def test_every_pass_matches_the_first(self, tmp_path, capsys):
        # A12's commands through main() in one process, three times: state
        # that outlives a call, or a result that is not deterministic, shows
        # as a late non-zero exit or a changed artifact, which A12's fresh
        # processes cannot see
        configs = {"fast": tmp_path / "fast.yaml", "quad": tmp_path / "quad.yaml"}
        configs["fast"].write_text(FAST_CFG)
        configs["quad"].write_text(QUAD_CFG)
        passes = [tmp_path / f"pass{i}" for i in range(3)]
        for root in passes:
            for label, key in self.COMMANDS:
                argv = [*label.split(), "--config", str(configs[key]),
                        "--out", str(root / label.replace(" ", "_"))]
                if label == "checks":
                    argv.append("--dump-paths")
                assert main(argv) == 0, (root.name, label, capsys.readouterr().err)
        first = sorted(p.relative_to(passes[0]) for p in passes[0].rglob("*") if p.is_file())
        assert len(first) == 25
        for root in passes[1:]:
            assert sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file()) == first
            for rel in first:
                same = (root / rel).read_bytes() == (passes[0] / rel).read_bytes()
                assert same, (root.name, rel)

    def test_dual_alternating_configs_stay_byte_identical(self, tmp_path, child_env):
        # two dual configs whose grids and Euler steps differ, run in turn
        # three times in one process: a table, plan or cache that outlived
        # its call would be read by the other config's pass.  Each config's
        # first in-process run must also match a run in a fresh process,
        # which no earlier call can have touched
        configs = {"a": FAST_CFG,
                   "b": FAST_CFG.replace("n_x: 128", "n_x: 96").replace(
                       "n_steps: 40", "n_steps: 30")}
        fresh = {}
        for key, text in configs.items():
            cfgp = tmp_path / f"{key}.yaml"
            cfgp.write_text(text)
            out = tmp_path / f"{key}_fresh"
            res = _run_cli(["dual", "--config", str(cfgp), "--out", str(out)],
                           tmp_path, child_env)
            assert res.returncode == 0, res.stderr
            fresh[key] = (out / "dual.csv").read_bytes()
        assert fresh["a"] != fresh["b"]
        first = {}
        for i in range(3):
            for key in configs:
                out = tmp_path / f"{key}{i}"
                rc = main(["dual", "--config", str(tmp_path / f"{key}.yaml"),
                           "--out", str(out)])
                assert rc == 0
                got = (out / "dual.csv").read_bytes()
                assert first.setdefault(key, got) == got, (key, i)
        assert first == fresh
