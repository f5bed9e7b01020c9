"""Write the committed references that `check.py` compares runs against.

    python3 perfbench/make_reference.py

Runs each experiment at its default config in a fresh worker and copies its
`report.csv` to `reference/`: once for the experiments that ignore the seed,
and for each of SEEDS for those listed in `check.SEEDED`.  Also records the
porous L1 error against the closed form in `reference/accuracy.json`.
Regenerate only on a commit whose outputs are known to be right, and say so in
the change that does it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from run import ROOT, THREAD_VARS, WORKLOADS  # noqa: E402

SEEDS = range(10)


def run_experiment(experiment, seed, out):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--out", str(out),
                    "--experiments", experiment, "--seed", str(seed)], env=env, check=True)
    result = json.loads((out / "result.json").read_text())
    if result["runs"][0]["code"] != 0:
        raise SystemExit(f"{experiment} seed {seed} did not pass; no reference written")
    return out / experiment


def main():
    work = ROOT / ".perfbench_work" / "reference"
    check.REFERENCE.mkdir(exist_ok=True)
    accuracy = {}
    try:
        for experiment in (e for w in WORKLOADS.values() for e in w):
            seeds = SEEDS if experiment in check.SEEDED else (0,)
            for seed in seeds:
                out = run_experiment(experiment, seed, work / f"{experiment}-{seed}")
                shutil.copyfile(out / "report.csv", check.reference_path(experiment, seed))
                if experiment == "porous":
                    config = check.manifest_config((out / "manifest.txt").read_text())
                    accuracy["porous_l1_rel_err"] = check.porous_l1_rel_err(
                        out / "final_state.grid", config)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (check.REFERENCE / "accuracy.json").write_text(json.dumps(accuracy, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
