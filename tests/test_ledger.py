"""The ledger of package functions that no experiment, demo or command runs.

Every function of `compactness_lab` runs in one of: the seven experiments at
their defaults (seed 0), the seven demos, `compactness-lab list` and one
exit-2 config error; or it has one row below that says why it stays.  Code
that only checks other code belongs in the tests, next to what it checks.
A function that starts to run leaves the ledger; a new one that never runs
enters it with its reason, or goes.

Decisions (a step of the paper's proofs that no run reaches is none of
these: it runs in an experiment, moves into the tests next to what it
checks, or goes):
- format: reads or writes a documented file format.
- import: runs when its module is imported, before any profiled call.
- deferred: a reference that moves into the tests with the benchmark change
  that stops naming it (ROADMAP item 3).
"""

import ast
import contextlib
import io

from compactness_lab import cli
from conftest import DEMOS, PACKAGE

SGRID = ("format", "the `.sgrid` face-field format (README, File formats)")
GRID = ("format", "the `.grid` cell-field format (README, File formats)")
EIGENBASIS = ("deferred", "dense Dirichlet eigenbasis, the reference test_grid checks "
              "h_minus_m_norm against; perfbench/spans.py still names it")

LEDGER = {
    "cli._one_of": ("import", "builds the `one of` rules of cli.KEYS"),
    "divfree._face_counts": SGRID,
    "divfree.read_sgrid_file": SGRID,
    "divfree.write_sgrid_file": SGRID,
    "grid.DirichletEigenbasis.__init__": EIGENBASIS,
    "grid.DirichletEigenbasis.coefficients": EIGENBASIS,
    "grid.Grid.n_cells": ("format", "the value count of the `.grid` and `.sgrid` readers"),
    "grid._read_header_and_values": GRID,
    "grid.read_grid_file": GRID,
}
DECISIONS = {"format", "import", "deferred"}


def defined_functions():
    """'module.qualified_name' -> (module, first line, name) for every def in
    the package, matching `Reach.package_functions`."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                assert f"{module}.{name}" not in out, f"two defs are named {module}.{name}"
                out[f"{module}.{name}"] = (module, first, child.name)
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def test_functions_that_never_run_match_the_ledger(reach, default_runs, tmp_path):
    for path in DEMOS:
        reach.run_demo(path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert reach.record(cli.main, ["list"]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("[porous]\nbc = foo\n")
    with contextlib.redirect_stderr(io.StringIO()):
        assert reach.record(cli.main, ["run", "porous", "--config", str(bad),
                                       "--out", str(tmp_path / "out")]) == 2
    called = reach.package_functions()
    defined = defined_functions()
    ran = {name for name, key in defined.items() if key in called}
    never = set(defined) - ran
    assert not never - LEDGER.keys(), (
        "no experiment, demo or command runs these, and the ledger has no row for them: "
        f"{sorted(never - LEDGER.keys())}")
    assert not LEDGER.keys() & ran, f"ledger rows for functions that run: {sorted(LEDGER.keys() & ran)}"
    assert LEDGER.keys() <= defined.keys(), (
        f"ledger rows for functions that do not exist: {sorted(LEDGER.keys() - defined.keys())}")
    assert {decision for decision, _ in LEDGER.values()} <= DECISIONS
