"""Session-wide runs shared by several test files: every experiment at its
defaults (seed 0), the adversarial runs of the two probes and every demo
script, each run once per session, in process, under one line tracer that
records which functions of `compactness_lab` they call and which of their
lines run: the runs into one record, each demo into its own.  Their expected
outputs are in `GOLDEN`.  Also the identity nonlinearity, shared by the tests
of the scheme and the probes, `sobolev_embedding_exponent`, the exponent the
Sobolev helpers of `test_movedom.py` and `test_probe.py` measure with, and
`project_series`, the per-slice projection of whole series collected."""

import contextlib
import io
import os
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from compactness_lab import cli
from compactness_lab.divfree import per_slice_project
from compactness_lab.parabolic import StepTimeSeries
from compactness_lab.truncate import Nonlinearity

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(cli.__file__).resolve().parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


class Reach:
    """Runs callables under one `sys.settrace` hook that follows only frames
    of `compactness_lab` files.  It keeps the code object of every package
    function they call and every (code object, line) pair that runs in them:
    in `codes` and `lines` for runs and commands, in `demo_codes[path]` and
    `demo_lines[path]` for each demo.  The tracer that was active before is
    restored after each call."""

    # the `co_filename` prefix of package code, taken once: a per-event
    # `Path.resolve` costs more than the traced runs themselves
    PREFIX = os.path.join(os.path.dirname(cli.main.__code__.co_filename), "")

    def __init__(self):
        self.codes, self.lines = set(), set()
        self.demo_codes, self.demo_lines, self.demo_output = {}, {}, {}

    def record(self, fn, *args, codes=None, lines=None):
        add_code = (self.codes if codes is None else codes).add
        add_line = (self.lines if lines is None else lines).add
        prefix = self.PREFIX

        def line(frame, event, arg):
            if event == "line":
                add_line((frame.f_code, frame.f_lineno))
            return line

        def call(frame, event, arg):
            if frame.f_code.co_filename.startswith(prefix):
                add_code(frame.f_code)
                return line
            return None

        previous = sys.gettrace()
        sys.settrace(call)
        try:
            return fn(*args)
        finally:
            sys.settrace(previous)

    def run_demo(self, path):
        """The demo's printed output; the script runs on the first request only."""
        if path not in self.demo_output:
            out = io.StringIO()
            self.demo_codes[path], self.demo_lines[path] = set(), set()
            with contextlib.redirect_stdout(out):
                self.record(runpy.run_path, str(path), None, "__main__",
                            codes=self.demo_codes[path], lines=self.demo_lines[path])
            self.demo_output[path] = out.getvalue()
        return self.demo_output[path]

    def package_functions(self, codes=None):
        """(module, first line, name) of every function in `codes` (default:
        every run and command recorded so far); the first line is that of the
        first decorator, if any."""
        codes = self.codes if codes is None else codes
        return {(Path(c.co_filename).stem, c.co_firstlineno, c.co_name) for c in codes}

    def package_lines(self, lines=None):
        """(module, line) of every line in `lines` (default: every run and
        command recorded so far)."""
        lines = self.lines if lines is None else lines
        return {(Path(c.co_filename).stem, n) for c, n in lines}


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


def sobolev_embedding_exponent(p, dim):
    """p* = dim p/(dim - p) below the critical exponent, else the p+1 surrogate."""
    if p < dim:
        return dim * p / (dim - p)
    return p + 1.0


# phi(z) = z, the heat equation: a test oracle, as no run or demo uses it
IDENTITY = Nonlinearity(
    phi=lambda z: np.asarray(z, dtype=float),
    dphi=lambda z: np.ones_like(np.asarray(z, dtype=float)),
    psi=lambda z: np.asarray(z, dtype=float) ** 2 / 2,
    critical_points=(),
)


def project_series(series_list, nc, eps):
    """`per_slice_project` of whole step series, every yield collected: per
    series, its `projected` series, its `slice_surrogates` and its
    `spacetime_trace_norm`, the square root of the time integral of the
    squared slice surrogates."""
    splits = list(per_slice_project([s.fields for s in series_list], nc, eps))
    out = []
    for i, s in enumerate(series_list):
        surrs = [sp[i][1] for sp in splits]
        out.append(SimpleNamespace(
            projected=StepTimeSeries(s.interval, tuple(sp[i][2] for sp in splits)),
            slice_surrogates=surrs,
            spacetime_trace_norm=float(np.sqrt(s.delta * sum(x ** 2 for x in surrs)))))
    return out
