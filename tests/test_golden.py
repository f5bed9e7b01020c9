"""Byte-identity of the default outputs: every experiment's `report.csv` at its
defaults (seed 0) and the porous run's `final_state.grid`, against the files
in `tests/golden/`; likewise the `report.csv` of the adversarial runs
(`family = oscillating`, seed 0) of the two probes, whose verdicts fail, against
`tests/golden/adversarial/`.  The printed output of every demo is checked
against `tests/golden/demos/<stem>.txt` in `test_demos.py`.

The bytes depend on the numpy, scipy and BLAS builds as well as on this code,
so `tests/golden/VERSIONS` names the builds the files were made with.  A change
that moves a default output on purpose regenerates all of these files with

    PYTHONPATH=src python tests/test_golden.py

and states why, with the largest relative change per column.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from compactness_lab import cli
from conftest import DEMOS, GOLDEN, Reach

FILES = [f"{exp}/report.csv" for exp in cli.EXPERIMENTS] + ["porous/final_state.grid"]
ADVERSARIAL = ("nsprobe", "kruzhkov")
ADVERSARIAL_FILES = [f"adversarial/{exp}/report.csv" for exp in ADVERSARIAL]


def _versions():
    return f"numpy {np.__version__}, scipy {scipy.__version__}, python {sys.version.split()[0]}"


def test_default_runs_pass(default_runs):
    _, codes = default_runs
    assert codes == dict.fromkeys(cli.EXPERIMENTS, 0)


def run_adversarial(out):
    """Run each ADVERSARIAL experiment with `family = oscillating`, seed 0, into
    `out/adversarial/<experiment>`; returns the exit codes."""
    out = out / "adversarial"
    out.mkdir(parents=True)
    codes = {}
    for exp in ADVERSARIAL:
        cfg = out / f"{exp}.cfg"
        cfg.write_text(f"[{exp}]\nfamily = oscillating\n")
        with contextlib.redirect_stderr(io.StringIO()):
            codes[exp] = cli.run(exp, str(cfg), str(out / exp), 0)
    return codes


@pytest.fixture(scope="module")
def adversarial_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("adversarial")
    return out, run_adversarial(out)


def test_adversarial_runs_fail_their_verdicts(adversarial_runs):
    _, codes = adversarial_runs
    assert codes == dict.fromkeys(ADVERSARIAL, 1)


def _check_bytes(out, name):
    made_with = (GOLDEN / "VERSIONS").read_text().strip()
    assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{name} differs from tests/golden/{name}, which was made with {made_with}; "
        f"this run has {_versions()}.  The bytes depend on those builds as well as "
        f"on the code.")


@pytest.mark.parametrize("name", FILES)
def test_default_output_is_byte_identical(default_runs, name):
    _check_bytes(default_runs[0], name)


@pytest.mark.parametrize("name", ADVERSARIAL_FILES)
def test_adversarial_output_is_byte_identical(adversarial_runs, name):
    _check_bytes(adversarial_runs[0], name)


if __name__ == "__main__":
    from conftest import run_defaults

    with tempfile.TemporaryDirectory() as tmp:
        codes = run_defaults(Path(tmp))
        codes.update({f"adversarial/{exp}": code
                      for exp, code in run_adversarial(Path(tmp)).items()})
        for name in FILES + ADVERSARIAL_FILES:
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, GOLDEN / name)
    (GOLDEN / "demos").mkdir(exist_ok=True)
    reach = Reach()
    for path in DEMOS:
        (GOLDEN / "demos" / f"{path.stem}.txt").write_bytes(reach.run_demo(path).encode())
    (GOLDEN / "VERSIONS").write_text(_versions() + "\n")
    print(f"wrote {len(FILES) + len(ADVERSARIAL_FILES) + len(DEMOS)} files to {GOLDEN}; exit codes {codes}")
