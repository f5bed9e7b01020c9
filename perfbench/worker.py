"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py --out DIR [--experiments a,b] [--seed N] [--trace]

Times the import of `compactness_lab.cli` plus one config load (set-up), then,
if experiments are named, runs each through the public
`compactness_lab.cli.run(experiment, config, out_dir, seed)` and times it.
With --trace the library is wrapped by `spans.install` after set-up, and the
spans are written to DIR/spans.json at the end.  The interpreter, the
numpy/scipy versions and the BLAS build are recorded after set-up.  Everything
measured goes to DIR/result.json; the run's outputs land in DIR/<experiment>/.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG = HERE / "bench.cfg"


def machine_record():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = "unavailable"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--experiments", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    experiments = [e for e in args.experiments.split(",") if e]

    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    from compactness_lab import cli
    cli.load_config(CONFIG, experiments[0] if experiments else "porous")
    result = {"setup_s": time.perf_counter() - t0, "machine": machine_record()}

    args.out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    runs = []
    for experiment in experiments:
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            code = cli.run(experiment, str(CONFIG), str(args.out / experiment), seed=args.seed)
            error = None
        except Exception:  # a crash is a failed run, reported with its traceback
            code, error = None, traceback.format_exc()
        runs.append({"experiment": experiment, "code": code, "error": error,
                     "seconds": time.perf_counter() - start,
                     "cpu_seconds": time.process_time() - cpu_start})
    result["runs"] = runs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        (args.out / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
