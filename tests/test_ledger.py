"""The ledger of package functions that no run or command reaches.

Run reach is what the seven experiments at their defaults (seed 0), the two
adversarial runs (`family = oscillating` under `[nsprobe]` and `[kruzhkov]`,
seed 0, whose reports `test_golden` checks), `compactness-lab list` and one
exit-2 config error call.  Every function of `compactness_lab` is in run
reach or has one row below that says why it stays.  Code that only checks
other code belongs in the tests, next to what it checks.  A function that
starts to run leaves the ledger; a new one that never runs enters it with its
reason, or goes.

Decisions (a step of the paper's proofs that no run reaches is none of
these: it runs in an experiment, moves into the tests next to what it
checks, or goes):
- demo: only a demo reaches it.  The row names that demo and the test that
  checks the function's value; a function that some demo reaches and no run
  does has this decision and no other.
- format: reads or writes a documented file format.
- import: runs when its module is imported, before any profiled call.
- deferred: a reference that moves into the tests with the benchmark change
  that stops naming it (ROADMAP item 3).
"""

import ast
import contextlib
import io

from compactness_lab import cli
from conftest import DEMOS, PACKAGE, ROOT


def demo(stem, test):
    """A `demo` row: `demos/<stem>.py` reaches the function, and the test
    `tests/<file>::<name>` checks its value."""
    return ("demo", stem, test)


GRID = ("format", "the `.grid` cell-field format (README, File formats)")
EIGENBASIS = ("deferred", "dense Dirichlet eigenbasis, the reference test_grid checks "
              "h_minus_m_norm against; perfbench/spans.py still names it")
ORLICZ_PAIR = demo("product_limit", "test_productlimit.py::test_orlicz_pair_validates")
GAUGE = demo("product_limit", "test_productlimit.py::test_gauge_of_constant_scalar_rootfind_oracle")
BETA = demo("truncation_chain", "test_truncate.py::test_beta_graft_zone_cubic")
CHAIN = demo("truncation_chain", "test_truncate.py::test_chain_gradient_linear_field_zones")
JUNCTION = demo("truncation_chain", "test_truncate.py::test_beta_junction_smoothness")

LEDGER = {
    "cli._one_of": ("import", "builds the `one of` rules of cli.KEYS"),
    "grid.DirichletEigenbasis.__init__": EIGENBASIS,
    "grid.DirichletEigenbasis.coefficients": EIGENBASIS,
    "grid.Grid.n_cells": ("format", "the value count of the `.grid` reader"),
    "grid.ScalarField.constant": demo(
        "product_limit", "test_grid.py::test_lp_norm_unit_constant_unit_square"),
    "grid.ScalarField.from_function": demo(
        "truncation_chain", "test_grid.py::test_gradient_linear_exact"),
    "grid.read_grid_file": GRID,
    "mollify.commutator": ("deferred", "the per-series commutator, the reference test_mollify "
                           "checks separable_commutator_l1 against; perfbench/spans.py "
                           "still names it"),
    "movedom.grad_sup_norm": demo(
        "moving_domain_geometry", "test_movedom.py::test_batched_constants_match_per_t_loops"),
    "movedom.transported_poincare": demo(
        "moving_domain_geometry", "test_movedom.py::test_transported_poincare_dilation_formula"),
    "productlimit.exp_orlicz_pair": ORLICZ_PAIR,
    "productlimit.exp_orlicz_pair.<locals>.phi": ORLICZ_PAIR,
    "productlimit.exp_orlicz_pair.<locals>.psi": ORLICZ_PAIR,
    "productlimit.luxemburg_gauge": GAUGE,
    "productlimit.luxemburg_gauge.<locals>.integral": GAUGE,
    "productlimit.orlicz_holder_check": demo(
        "product_limit", "test_productlimit.py::test_holder_unit_constants_two_rootfinds"),
    "truncate.TruncationBeta.__call__": BETA,
    "truncate.TruncationBeta.__init__": BETA,
    "truncate.TruncationBeta._measure_deviation": demo(
        "truncation_chain", "test_truncate.py::test_beta_deviation_against_dense_oracle"),
    "truncate.TruncationBeta._pieces": demo(
        "truncation_chain", "test_truncate.py::test_beta_bounded_derivative"),
    "truncate.TruncationBeta.junction_mismatch": JUNCTION,
    "truncate._hermite": JUNCTION,
    "truncate._zone_index": CHAIN,
    "truncate.build_beta": BETA,
    "truncate.chain_gradient_check": CHAIN,
}
DECISIONS = {"demo", "format", "import", "deferred"}


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


def defined_tests(path):
    """Names of the top-level test functions of a test file."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


def test_functions_that_never_run_match_the_ledger(reach, default_runs, adversarial_runs,
                                                     tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert reach.record(cli.main, ["list"]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text("[porous]\nbc = foo\n")
    with contextlib.redirect_stderr(io.StringIO()):
        assert reach.record(cli.main, ["run", "porous", "--config", str(bad),
                                       "--out", str(tmp_path / "out")]) == 2
    for path in DEMOS:
        reach.run_demo(path)
    called = reach.package_functions()
    defined = defined_functions()
    ran = {name for name, key in defined.items() if key in called}
    never = set(defined) - ran
    assert not never - LEDGER.keys(), (
        "no run or command reaches these, and the ledger has no row for them: "
        f"{sorted(never - LEDGER.keys())}")
    assert not LEDGER.keys() & ran, f"ledger rows for functions that run: {sorted(LEDGER.keys() & ran)}"
    assert LEDGER.keys() <= defined.keys(), (
        f"ledger rows for functions that do not exist: {sorted(LEDGER.keys() - defined.keys())}")
    assert {row[0] for row in LEDGER.values()} <= DECISIONS

    demo_reach = {path.stem: reach.package_functions(reach.demo_codes[path]) for path in DEMOS}
    by_demo = {name for name in never
               if any(defined[name] in codes for codes in demo_reach.values())}
    demo_rows = {name for name, row in LEDGER.items() if row[0] == "demo"}
    assert not by_demo - demo_rows, (
        f"only a demo reaches these, and their rows are not `demo` rows: {sorted(by_demo - demo_rows)}")
    assert not demo_rows - by_demo, f"`demo` rows that no demo reaches: {sorted(demo_rows - by_demo)}"
    for name in sorted(demo_rows):
        _, stem, test = LEDGER[name]
        assert stem in demo_reach, f"{name}: no demo is named demos/{stem}.py"
        assert defined[name] in demo_reach[stem], f"{name}: demos/{stem}.py does not reach it"
        file, _, test_name = test.partition("::")
        path = ROOT / "tests" / file
        assert path.is_file() and test_name in defined_tests(path), (
            f"{name}: no test is named tests/{test}")
