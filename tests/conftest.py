"""Session-wide runs shared by several test files: every experiment at its
defaults (seed 0) and every demo script, each run once per session, in
process, under one profiler that records which functions of
`compactness_lab` they call.  Their expected outputs are in `GOLDEN`."""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from compactness_lab import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(cli.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


class Reach:
    """Runs callables under `sys.setprofile` and keeps the code object of
    every Python function they call."""

    def __init__(self):
        self.codes = set()
        self.demo_output = {}

    def record(self, fn, *args):
        add = self.codes.add

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
            with contextlib.redirect_stdout(out):
                self.record(runpy.run_path, str(path), None, "__main__")
            self.demo_output[path] = out.getvalue()
        return self.demo_output[path]

    def package_functions(self):
        """(module, first line, name) of every package function called so far;
        the first line is that of the first decorator, if any."""
        return {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name) for c in self.codes
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
