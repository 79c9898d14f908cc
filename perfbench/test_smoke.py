"""Smoke test of the benchmark itself, every workload at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric of BENCHMARK.json is printed with its unit, that
the exact counts repeat between runs and match the counts read off the
untraced outputs, that tracing leaves the package as it found it, that a
failed check still prints every metric and exits nonzero, and that the
command fails without printing a result when the sources are missing.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

PKG = run.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
MACHINE_KEYS = {"nproc", "cpu_model", "mem_total_mb", "python", "numpy", "scipy",
                "numba_present", "use_numba", "blas_env", "seed", "git_commit"}
# exact counts that the untraced outputs also carry, per workload
FROM_OUTPUTS = {"pde_refine": ["hj_solver.substeps"], "mc_dual": ["hj_solver.substeps"],
                "cx_comb": [], "cli_fast": ["cli.bytes_written"]}


def command(workload, trace, *extra):
    return [sys.executable, str(HERE / "run.py"), "--workload", workload, "--toy",
            "--seconds", "0", "--trace", str(trace), *extra]


def run_toy(workload, trace):
    res = subprocess.run(command(workload, trace), capture_output=True, text=True,
                         timeout=600)
    assert res.returncode == 0, res.stdout + res.stderr
    lines = res.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert BENCH["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.NAMES)
def test_metrics_units_and_exact_counts(workload):
    detail, result = run_toy(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert set(detail["machine"]) == MACHINE_KEYS
    assert detail["quality"]["check_fail_frac"]["value"] == 0.0

    traced = [run_toy(workload, 1) for _ in range(2)]
    for t_detail, t_result in traced:
        assert t_result["correct"]
        assert {k: v["unit"] for k, v in t_result["metrics"].items()} == run.PER_LAYER
        assert t_detail["facts"] == detail["facts"]
    counts = [{k: t["metrics"][k]["value"] for k in run.EXACT_COUNTS}
              for _, t in traced]
    assert counts[0] == counts[1]
    for key in FROM_OUTPUTS[workload]:
        assert counts[0][key] == detail["facts"][key]


def snapshot():
    """Every attribute of every package module and class, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "superbsde" or name.startswith("superbsde."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    before = snapshot()
    tr = tracer.Tracer()
    tr.install(PKG)
    wrapped = [key for key, value in snapshot().items() if before.get(key) is not value]
    try:
        for name, cls in workloads.WORKLOADS.items():
            kwargs = {"work_dir": tmp_path / name} if name == "cli_fast" else {}
            checks, _ = cls(0, toy=True, **kwargs).run_pass()
            assert all(c.passed for c in checks)
    finally:
        tr.restore()
    assert len(wrapped) > 30 and tr.spans
    after = snapshot()
    assert [key for key in before if after[key] is not before[key]] == []
    n_spans = len(tr.spans)
    workloads.PdeRefine(0, toy=True).run_pass()
    assert len(tr.spans) == n_spans


def test_failed_check_prints_every_metric_and_exits_nonzero(monkeypatch):
    passed = workloads.CxComb.run_pass

    def broken(self):
        checks, facts = passed(self)
        return checks + [workloads.Check("injected failure", 1.0, 0.0, False)], facts

    monkeypatch.setattr(workloads.CxComb, "run_pass", broken)
    out = io.StringIO()
    with redirect_stdout(out):
        status = run.main(["--workload", "cx_comb", "--toy", "--seconds", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert status == 1
    assert not result["correct"] and result["failed"] == 3
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    res = subprocess.run(["python3", "perfbench/run.py", "--workload", "cx_comb",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
