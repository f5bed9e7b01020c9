"""Session-wide runs shared by several test files: every experiment at its
defaults (seed 0), the adversarial runs of the two probes and every demo
script, each run once per session, in process, under a profiler that records
which functions of `compactness_lab` they call: the runs into one record,
each demo into its own.  Their expected outputs are in `GOLDEN`.  Also the
identity nonlinearity, shared by the tests of the scheme and the probes."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from compactness_lab import cli
from compactness_lab.truncate import Nonlinearity

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(cli.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


class Reach:
    """Runs callables under `sys.setprofile` and keeps the code object of
    every Python function they call: in `codes` for runs and commands, in
    `demo_codes[path]` for each demo."""

    def __init__(self):
        self.codes = set()
        self.demo_codes = {}
        self.demo_output = {}

    def record(self, fn, *args, codes=None):
        add = (self.codes if codes is None else codes).add

        def profile(frame, event, arg):
            if event == "call":
                add(frame.f_code)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(previous)

    def run_demo(self, path):
        """The demo's printed output; the script runs on the first request only."""
        if path not in self.demo_output:
            out = io.StringIO()
            self.demo_codes[path] = set()
            with contextlib.redirect_stdout(out):
                self.record(runpy.run_path, str(path), None, "__main__",
                            codes=self.demo_codes[path])
            self.demo_output[path] = out.getvalue()
        return self.demo_output[path]

    def package_functions(self, codes=None):
        """(module, first line, name) of every package function in `codes`
        (default: every run and command recorded so far); the first line is
        that of the first decorator, if any."""
        codes = self.codes if codes is None else codes
        return {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name) for c in codes
                if Path(c.co_filename).resolve().parent == PACKAGE}


@pytest.fixture(scope="session")
def reach():
    return Reach()


def run_defaults(out, record=lambda fn, *args: fn(*args)):
    """Run every experiment at its defaults, seed 0, into `out/<experiment>`;
    returns the exit codes."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "defaults.cfg"
    cfg.write_text("")
    return {exp: record(cli.run, exp, str(cfg), str(out / exp), 0) for exp in cli.EXPERIMENTS}


@pytest.fixture(scope="session")
def default_runs(reach, tmp_path_factory):
    """The output directory and exit codes of `run_defaults`, made once."""
    out = tmp_path_factory.mktemp("defaults")
    return out, run_defaults(out, reach.record)


ADVERSARIAL = ("nsprobe", "kruzhkov")


def run_adversarial(out, record=lambda fn, *args: fn(*args)):
    """Run each ADVERSARIAL experiment with `family = oscillating`, seed 0, into
    `out/adversarial/<experiment>`; returns the exit codes."""
    out = out / "adversarial"
    out.mkdir(parents=True)
    codes = {}
    for exp in ADVERSARIAL:
        cfg = out / f"{exp}.cfg"
        cfg.write_text(f"[{exp}]\nfamily = oscillating\n")
        with contextlib.redirect_stderr(io.StringIO()):
            codes[exp] = record(cli.run, exp, str(cfg), str(out / exp), 0)
    return codes


@pytest.fixture(scope="session")
def adversarial_runs(reach, tmp_path_factory):
    """The output directory and exit codes of `run_adversarial`, made once."""
    out = tmp_path_factory.mktemp("adversarial")
    return out, run_adversarial(out, reach.record)


# phi(z) = z, the heat equation: a test oracle, as no run or demo uses it
IDENTITY = Nonlinearity(
    phi=lambda z: np.asarray(z, dtype=float),
    dphi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
    psi=lambda z: np.asarray(z, dtype=float) ** 2 / 2,
    critical_points=(),
)
