"""End-to-end and per-layer benchmark of the superbsde toolkit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of pde_refine, mc_dual, cx_comb, cli_fast, or ``all``, which
runs each workload in its own process and prints one table.  Each run is
a closed loop in one process with one caller: passes of the workload run
back to back, each starting after the previous one returned.  A first
warm-up pass is checked but not timed; timed passes follow until the
next one would end more than ``--seconds`` after the start (at least
two, so every run also checks that reruns reproduce the first pass).

``--trace 0`` prints the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics, the tracing overhead and each layer's share
of the traced wall time.  Every run checks its outputs at the acceptance
thresholds, prints its machine facts, quality figures and sample counts
above the last line, and prints as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
when every hard check passed, 1 when one failed (after all metrics are
printed) and 2 when the package sources are missing.

The package is imported from ``src/`` next to this directory, by absolute
path.  Spans of traced runs are written to ``perfbench/.out/``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
NAMES = ("pde_refine", "mc_dual", "cx_comb", "cli_fast")
SETUPS = 5  # set-ups per untraced run: this process plus four probes
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "hj_solver.solve_s": "s", "hj_solver.solves": "count",
    "hj_solver.substeps": "count", "hj_solver.max_level_substeps": "count",
    "hj_solver.cell_updates": "count", "hj_solver.cell_updates_per_s": "1/s",
    "hj_solver.cap_levels": "count", "hj_solver.lookup_s": "s",
    "hj_solver.lookups": "count",
    "forward_model.draw_s": "s", "forward_model.normals": "count",
    "forward_model.normals_per_s": "1/s", "forward_model.philox_streams": "count",
    "forward_model.euler_s": "s", "forward_model.path_steps": "count",
    "dual_mc.evaluate_s": "s", "dual_mc.rate_s": "s",
    "dual_mc.rate_points": "count", "dual_mc.controls": "count",
    "path_checks.residual_s": "s", "path_checks.envelope_s": "s",
    "generators.profile_s": "s", "generators.profile_calls": "count",
    "generators.conjugate_s": "s",
    "terminal_data.eval_s": "s", "terminal_data.eval_points": "count",
    "counterexamples.thm34_nu_s": "s", "counterexamples.thm34_joint_s": "s",
    "counterexamples.thm33_s": "s", "counterexamples.thm31_s": "s",
    "counterexamples.philox_streams": "count", "counterexamples.normals": "count",
    "cli.config_s": "s", "cli.to_csv_s": "s", "cli.run_self_s": "s",
    "cli.bytes_written": "B", "cli.commands": "count",
}
LAYER_NAMES = ("hj_solver", "forward_model", "dual_mc", "path_checks",
               "generators", "terminal_data", "counterexamples", "cli")
PER_LAYER.update({f"{layer}.share": "%" for layer in LAYER_NAMES})
PER_LAYER.update({"trace.unattributed_share": "%", "trace.wall_s": "s",
                  "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                  "trace.overhead_pct": "%", "trace.spans": "count"})

# counts that are exact: a rerun must reproduce them
EXACT_COUNTS = [k for k, unit in PER_LAYER.items() if unit in ("count", "B")]
# (metric, span name, "incl" or "self")
SPAN_TIMES = (
    ("hj_solver.solve_s", "hj_solver.solve", "incl"),
    ("hj_solver.lookup_s", "hj_solver.lookup", "incl"),
    ("forward_model.draw_s", "forward_model.draw", "incl"),
    ("forward_model.euler_s", "forward_model.simulate", "self"),
    ("dual_mc.evaluate_s", "dual_mc.evaluate", "self"),
    ("dual_mc.rate_s", "dual_mc.rate", "incl"),
    ("path_checks.residual_s", "path_checks.residual", "incl"),
    ("path_checks.envelope_s", "path_checks.envelope", "incl"),
    ("generators.profile_s", "generators.profile", "incl"),
    ("generators.conjugate_s", "generators.conjugate", "incl"),
    ("terminal_data.eval_s", "terminal_data.eval", "incl"),
    ("counterexamples.thm34_nu_s", "counterexamples.thm34_nu", "incl"),
    ("counterexamples.thm34_joint_s", "counterexamples.thm34_joint", "incl"),
    ("counterexamples.thm33_s", "counterexamples.thm33", "incl"),
    ("counterexamples.thm31_s", "counterexamples.thm31", "incl"),
    ("cli.config_s", "cli.config", "incl"),
    ("cli.to_csv_s", "cli.to_csv", "incl"),
    ("cli.run_self_s", "cli.run", "self"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="offset added to the acceptance seeds (0 reproduces them)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure until the next pass would end after this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes, for the benchmark's own smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def import_package():
    """Put ``src/`` first on ``sys.path`` and import the package from it."""
    if not (SRC / "superbsde" / "__init__.py").is_file():
        sys.stderr.write(f"error: package sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import superbsde
    if Path(superbsde.__file__).resolve().parent != SRC / "superbsde":
        sys.stderr.write(f"error: superbsde imported from {superbsde.__file__}\n")
        raise SystemExit(2)
    return superbsde


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_facts(pkg, seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE")
                              * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(pkg._kernels.USE_NUMBA),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "git_commit": git_commit(),
    }


def setup_probes(args, n):
    """Set-up seconds of ``n`` fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.toy:
        cmd.append("--toy")
    out = []
    for _ in range(n):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def layer_metrics(tracer, wall, untraced_wall):
    incl, self_t = tracer.times()
    m = {key: float(tracer.counts[key]) for key in EXACT_COUNTS}
    for key, span, kind in SPAN_TIMES:
        m[key] = (incl if kind == "incl" else self_t)[span]
    m["hj_solver.cell_updates_per_s"] = (
        m["hj_solver.cell_updates"] / m["hj_solver.solve_s"]
        if m["hj_solver.solve_s"] else 0.0)
    m["forward_model.normals_per_s"] = (
        m["forward_model.normals"] / m["forward_model.draw_s"]
        if m["forward_model.draw_s"] else 0.0)
    by_layer = dict.fromkeys(LAYER_NAMES, 0.0)
    for span, seconds in self_t.items():
        by_layer[span.split(".", 1)[0]] += seconds
    for layer, seconds in by_layer.items():
        m[f"{layer}.share"] = 100.0 * seconds / wall
    m["trace.unattributed_share"] = 100.0 - sum(m[f"{layer}.share"]
                                                for layer in LAYER_NAMES)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.overhead_pct"] = 100.0 * (wall - untraced_wall) / untraced_wall
    m["trace.spans"] = float(len(tracer.spans))
    return m


class Loop:
    """Closed loop of passes, with the hard checks of every pass."""

    def __init__(self, pkg, workloads, tracer_cls, wl):
        self.pkg, self.check = pkg, workloads.Check
        self.tracer_cls, self.wl = tracer_cls, wl
        self.checks = []
        self.walls = {"warmup": [], "untraced": [], "traced": []}
        self.facts = None
        self.tracers = []

    def run_pass(self, kind):
        """One pass of ``kind`` "warmup", "untraced" or "traced"."""
        tracer = self.tracer_cls() if kind == "traced" else None
        if tracer is not None:
            tracer.install(self.pkg)
        start = time.perf_counter()
        try:
            checks, facts = self.wl.run_pass()
        except self.pkg.errors.SuperbsdeError as exc:
            checks, facts = [self.check(f"pass raised {exc!r}", 1.0, 0.0, False)], {}
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        self.walls[kind].append(wall)
        if self.facts is None:
            self.facts = facts
        else:
            same = facts == self.facts
            checks.append(self.check("rerun reproduces the first pass", float(same),
                                     1.0, same))
        if tracer is not None:
            if self.tracers:
                first = self.tracers[0].counts
                same = all(tracer.counts[k] == first[k] for k in EXACT_COUNTS)
                checks.append(self.check("traced exact counts repeat", float(same),
                                         1.0, same))
            self.tracers.append(tracer)
        self.checks.extend(checks)

    def run(self, seconds, traced):
        """A checked warm-up pass, then timed passes until the next one would
        end more than ``seconds`` after the start (at least two timed
        passes); a traced run alternates untraced and traced timed passes."""
        deadline = time.perf_counter() + seconds
        self.run_pass("warmup")
        n = 0
        while True:
            self.run_pass("traced" if traced and n % 2 == 1 else "untraced")
            n += 1
            walls = self.walls["untraced"] + self.walls["traced"]
            if n >= 2 and time.perf_counter() + statistics.median(walls) > deadline:
                return


def report(args, machine, loop, metrics, units, samples):
    """Print the human-readable lines, the detail line and the result line."""
    failed = [c for c in loop.checks if not c.passed]
    n_pass = sum(len(w) for w in loop.walls.values())
    quality = {"check_fail_frac": (len(failed) / len(loop.checks), "1",
                                   f"{len(failed)} of {len(loop.checks)} hard checks")}
    for key in ("ref_err", "mc_se"):
        if key in loop.facts:
            quality[key] = (loop.facts[key], "1",
                            f"deterministic, checked equal in {n_pass} passes")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {n_pass}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6g} {units[key]:6s} {samples.get(key, '')}")
    for key, (value, unit, note) in quality.items():
        print(f"  {key:34s} {value:14.6g} {unit:6s} {note}")
    for c in failed:
        print(f"  FAILED {c.name}: {c.value!r} vs {c.threshold!r}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print(json.dumps({"detail": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": samples, "pass_walls": loop.walls,
        "quality": {k: {"value": v, "unit": u, "note": n}
                    for k, (v, u, n) in quality.items()},
        "facts": loop.facts, "failed_checks": [c.name for c in failed],
        "machine": machine}}))
    print(json.dumps({
        "correct": not failed, "attempted": len(loop.checks), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 1 if failed else 0


def traced_metrics(loop):
    untraced = statistics.median(loop.walls["untraced"])
    per_pass = [layer_metrics(t, w, untraced)
                for t, w in zip(loop.tracers, loop.walls["traced"])]
    samples = {k: f"median of {len(per_pass)} traced passes"
               for k in PER_LAYER if k not in EXACT_COUNTS}
    samples["trace.untraced_wall_s"] = f"median of {len(loop.walls['untraced'])} passes"
    samples.update({k: "exact, equal in every traced pass" for k in EXACT_COUNTS})
    return {k: (per_pass[0][k] if k in EXACT_COUNTS
                else statistics.median(p[k] for p in per_pass))
            for k in PER_LAYER}, samples


def run_one(args):
    pkg = import_package()
    import workloads
    from tracer import Tracer
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        kwargs = {"work_dir": work_dir} if args.workload == "cli_fast" else {}
        wl = workloads.WORKLOADS[args.workload](args.seed, toy=args.toy, **kwargs)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        machine = machine_facts(pkg, args.seed)
        loop = Loop(pkg, workloads, Tracer, wl)
        if args.trace:
            loop.run(args.seconds, traced=True)
            metrics, samples = traced_metrics(loop)
            OUT.mkdir(parents=True, exist_ok=True)
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.csv", "w") as fh:
                fh.write("pass,index,name,start,end,parent\n")
                for i, tracer in enumerate(loop.tracers):
                    tracer.write(fh, i)
            return report(args, machine, loop, metrics, PER_LAYER, samples)
        setups = [setup_s] + setup_probes(args, SETUPS - 1)
        loop.run(args.seconds, traced=False)
        walls = loop.walls["untraced"]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"wall_s": f"median of {len(walls)} timed passes after a warm-up "
                             f"(min {min(walls):.4f}, max {max(walls):.4f})",
                   "setup_s": f"median of {len(setups)} set-ups "
                              f"(min {min(setups):.4f}, max {max(setups):.4f})",
                   "peak_rss_mb": "1 process"}
        return report(args, machine, loop, metrics, END_TO_END, samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run_all(args):
    """Each workload in its own process, one after another."""
    status, total = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if res.returncode not in (0, 1) or not lines:
            sys.stderr.write(res.stderr)
            return res.returncode or 1
        status = max(status, res.returncode)
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(total))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        if args.setup_only:
            raise SystemExit("error: --setup-only needs one workload")
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
