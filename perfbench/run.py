"""Benchmark of the seven compactness-lab experiments at their default config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Closed loop, one client: every repetition
(a "pass") is a fresh worker process (`worker.py`) that imports the package,
then runs the workload's experiments in order through the public
`compactness_lab.cli.run` at the given seed.  Passes repeat while the next
one, taking as long as the last, would end nearer to --seconds than stopping
now.  Each worker times its import plus config load
(set-up); set-up-only workers top the samples up to MIN_SETUP_SAMPLES.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes (library wrapped by `spans.py`) and
reports the per-layer metrics plus the tracing overhead, with the end-to-end
figures of its untraced passes in the detail line; the spans of the first
traced pass stay in .perfbench_work/spans-<workload>.json.  Every run is checked
by `check.py`, and `report.csv` must be byte-identical across all passes of a
run, traced or not.  The last line of stdout is the result object; the line
before it records the machine, per-experiment medians and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402

# workload -> experiments in run order; the first is the workload's lead
WORKLOADS = {
    "commutator": ("commutator",),
    "solvers": ("divfree", "movedom", "porous", "nsprobe", "kruzhkov", "productlimit"),
}
MIN_SETUP_SAMPLES = 5
MIN_COVERAGE = 0.9
RUN_LIMIT_S = 170.0  # every worker of a run is stopped by then
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOTE = ("timings come from a noisy shared CPU; compare medians of repeated runs, "
        "single-threaded BLAS")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark invocation: spawns workers, checks their outputs, keeps samples."""

    def __init__(self, workload, seed, work):
        self.experiments = WORKLOADS[workload]
        self.spans_copy = work.parent / f"spans-{workload}.json"  # kept after the run
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
        self.spawned = 0
        self.attempted = self.failed = 0
        self.failures = []
        self.reports = {}  # experiment -> report.csv text of the first pass
        self.setup = []
        self.passes = {False: [], True: []}  # traced? -> results of finished workers
        self.accuracy = {}
        self.machine = None  # interpreter and library build, as a worker records them

    def spawn(self, experiments=(), trace=False):
        self.spawned += 1
        out = self.work / f"w{self.spawned}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(out),
               "--seed", str(self.seed), "--experiments", ",".join(experiments)]
        cmd += ["--trace"] * trace
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return out, None, f"worker timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not (out / "result.json").is_file():
            return out, None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
        return out, json.loads((out / "result.json").read_text()), None

    def probe_setup(self):
        _, result, error = self.spawn()
        if error:
            self.failures.append(f"set-up probe: {error}")
        else:
            self.setup.append(result["setup_s"])

    def run_pass(self, trace):
        out, result, error = self.spawn(self.experiments, trace=trace)
        self.attempted += len(self.experiments)
        if error:
            self.failed += len(self.experiments)
            self.failures.append(error)
            return
        self.setup.append(result["setup_s"])
        self.machine = result["machine"]
        self.passes[trace].append(result)
        if trace and len(self.passes[True]) == 1:
            shutil.copyfile(out / "spans.json", self.spans_copy)
        for run in result["runs"]:
            problems = self.check(run, out / run["experiment"])
            if problems:
                self.failed += 1
                self.failures += [f"{run['experiment']}: {p}" for p in problems]

    def check(self, run, out_dir):
        if run["code"] != 0:
            return [f"exit code {run['code']}" + (f"\n{run['error']}" if run["error"] else "")]
        try:
            report = (out_dir / "report.csv").read_text()
            found, accuracy = check.check_run(run["experiment"], out_dir, self.seed)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as e:
            return [f"outputs missing or malformed: {e!r}"]
        self.accuracy.update(accuracy)
        first = self.reports.setdefault(run["experiment"], report)
        if report != first:
            found.append("report.csv differs from the run's first pass")
        return found

    def timed(self, trace, key):
        return statistics.median(
            sum(r["seconds"] for r in p["runs"] if key in (None, r["experiment"]))
            for p in self.passes[trace])


def end_to_end(run):
    return {
        "wall_s": run.timed(False, None),
        "lead_s": run.timed(False, run.experiments[0]),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes[False]),
    }


def per_layer(run):
    traced = [p["layers"] for p in run.passes[True]]
    metrics = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    for name in spans.exact_metric_names():
        if len({t[name] for t in traced}) > 1:
            run.failures.append(f"trace: count {name} differs between traced passes")
    metrics.update({name: traced[0][name] for name in spans.exact_metric_names()})
    if metrics["trace.coverage"] < MIN_COVERAGE:
        run.failures.append(f"trace: spans cover {metrics['trace.coverage']:.3f} of "
                            f"cli.run time, below {MIN_COVERAGE}")
    metrics["trace.overhead_s"] = run.timed(True, None) - run.timed(False, None)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "compactness_lab" / "cli.py").is_file():
        print(f"perfbench: no compactness_lab sources under {ROOT / 'src'}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_before = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(args.workload, args.seed, work)
    try:
        deadline = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            if not args.trace:
                order = (False,)
            elif len(run.passes[True]) % 2:
                # alternate which pass of a pair goes first, so that an order
                # effect does not read as tracing overhead
                order = (True, False)
            else:
                order = (False, True)
            for trace in order:
                run.run_pass(trace=trace)
            # one more pass only if it ends nearer the deadline than stopping now
            if run.failed or time.monotonic() - began > 2 * (deadline - time.monotonic()):
                break
        while len(run.setup) < MIN_SETUP_SAMPLES and not run.failures:
            run.probe_setup()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    trace_on = bool(args.trace)
    if not run.passes[False] or (trace_on and not run.passes[True]) or not run.setup:
        print("perfbench: no worker finished, nothing measured:\n" + "\n".join(run.failures),
              file=sys.stderr)
        return 1
    untraced = end_to_end(run)
    metrics = per_layer(run) if trace_on else untraced
    listed = spec["per_layer" if trace_on else "end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        print("perfbench: computed metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in listed})}", file=sys.stderr)
        return 1

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "experiments": run.experiments,
        "passes": {"untraced": len(run.passes[False]), "traced": len(run.passes[True])},
        "setup_samples": len(run.setup),
        "end_to_end": untraced,
        "experiment_s": {e: run.timed(False, e) for e in run.experiments},
        "pass_s": [[r["seconds"] for r in p["runs"]] for p in run.passes[False]],
        "accuracy": run.accuracy,
        "references": {e: check.reference_path(e, args.seed).is_file() for e in run.experiments},
        "failures": run.failures[:20],
        "machine": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "cpu": cpu_model(), "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg(), "threads": dict.fromkeys(THREAD_VARS, 1),
                    **run.machine, "note": NOTE},
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
