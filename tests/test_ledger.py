"""The ledger of package code that no run or command reaches, by function and
by line.

Run reach is what the seven experiments at their defaults (seed 0), the two
adversarial runs (`family = oscillating` under `[nsprobe]` and `[kruzhkov]`,
seed 0, whose reports `test_golden` checks) and the COMMANDS below run:
`compactness-lab list`, no subcommand, and five cheap exit-2 runs.  Code that
only checks other code belongs in the tests, next to what it checks.  Code
that starts to run leaves the ledger; new code that never runs enters it with
its reason, or goes.

Every function of `compactness_lab` is in run reach or has one LEDGER row
that says why it stays (a step of the paper's proofs that no run reaches is
none of these: it runs in an experiment, moves into the tests next to what it
checks, or goes):
- demo: only a demo reaches it.  The row names that demo and the test that
  checks the function's value; a function that some demo reaches and no run
  does has this decision and no other.
- format: reads or writes a documented file format.
- import: runs when its module is imported, before any traced call.
- deferred: a reference that moves into the tests with the benchmark change
  that stops naming it (ROADMAP item 3).

A function with a LEDGER row is decided as a whole.  In every other function
that a run reaches (a nested def counts as a function of its own), each
statement is run-reached, a `raise` or in a block that ends in one, a failure
branch (an `if` block that only appends to or extends `failures` or
`violations`, and its `break`), or covered by one BRANCHES row.  A row is keyed
by the function and a short anchor text that occurs once in it, not by line
number, and covers the statement that holds the anchor and the rest of its
block.  No run may enter that block.  Its decision is one of:
- demo: a demo enters the block, and no run does.  The row names that demo
  and the test that checks the branch's value; a block that some demo enters
  has this decision and no other.
- guard: the row names the test that takes the branch.
- reference: the row names the test that reads the branch as an oracle.
"""

import ast
import contextlib
import io

import pytest

from compactness_lab import cli
from conftest import DEMOS, PACKAGE, ROOT


def demo(stem, test):
    """A `demo` row: `demos/<stem>.py` reaches the function or enters the
    block, and the test `tests/<file>::<name>` checks its value."""
    return ("demo", stem, test)


def guard(test):
    """A `guard` branch row: the test `tests/<file>::<name>` takes the branch."""
    return ("guard", test)


def reference(test):
    """A `reference` branch row: the test `tests/<file>::<name>` reads the
    branch as an oracle."""
    return ("reference", test)


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

POINCARE_ORACLE = "test_movedom.py::test_poincare_matches_dense_eigh_on_random_masks"

# ('module.qualified_name', anchor) -> decision, for a block of a run-reached
# function that no run enters
BRANCHES = {
    ("cli.run", 'f"NewtonFailure: {e}"'): guard(
        "test_cli.py::test_porous_newton_breakdown_is_a_failed_run"),
    ("grid.lp_norm", "float(np.max(np.abs(v)))"): reference(
        "test_mollify.py::test_young_inequality"),
    ("grid.signed_distance_transform", "-float(max(grid.extent))"): guard(
        "test_movedom.py::test_distance_transform_sides_are_halves_of_the_whole"),
    ("mollify.shift_space", "# shifted out of the box"): guard(
        "test_mollify.py::test_shift_space_identity_and_zero_fill"),
    ("mollify.shift_space", "slice(0, n + j)"): reference(
        "test_mollify.py::test_commutator_matches_integral_form"),
    ("movedom.poincare_constant", "L = neumann_laplacian(domain)"): demo(
        "moving_domain_geometry", POINCARE_ORACLE),
    ("movedom.poincare_constant", "scipy.linalg.eigh("): guard(POINCARE_ORACLE),
    ("probe.time_shift_safety", "return 0.0"): guard(
        "test_probe.py::test_time_shift_safety_is_zero_when_no_shift_is_safe"),
    ("truncate.nonlinearity_preset", "dtype=float) ** 3"): demo(
        "truncation_chain", "test_truncate.py::test_presets_validate"),
}
BRANCH_DECISIONS = {"demo", "guard", "reference"}


def defined_functions():
    """'module.qualified_name' -> ((module, first line, name), def node) for
    every def in the package; the key matches `Reach.package_functions`."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                assert f"{module}.{name}" not in out, f"two defs are named {module}.{name}"
                out[f"{module}.{name}"] = ((module, first, child.name), child)
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return out


def blocks(stmt):
    """The statement lists a statement holds (none for a simple statement)."""
    out = [getattr(stmt, f) for f in ("body", "orelse", "finalbody") if getattr(stmt, f, None)]
    return out + [h.body for h in getattr(stmt, "handlers", ())]


def statements(body, path=()):
    """(statement, path) for every statement of a block and of the blocks it
    holds, in source order.  The path lists (block, index) for the statement
    and for each statement that holds it, outermost first.  A nested def's
    body belongs to that def, not to this walk."""
    for i, stmt in enumerate(body):
        here = (*path, (body, i))
        yield stmt, here
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in blocks(stmt):
                yield from statements(block, here)


def own_lines(stmt):
    """The lines of which any one ran when the statement ran: all of a simple
    statement, the header (and decorators) of a compound one."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
    held = blocks(stmt)
    last = held[0][0].lineno - 1 if held else stmt.end_lineno
    return range(first, max(first, last) + 1)


def is_failure_record(stmt):
    """`failures.append(...)` or `.extend(...)`, or the same on `violations`."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("append", "extend")):
        return False
    target = call.func.value
    return getattr(target, "id", getattr(target, "attr", None)) in ("failures", "violations")


def needs_no_row(path):
    """True for a `raise`, a statement in a block that ends in a `raise` (a
    block that a statement holds: a def body that ends in one only falls
    through to it), and a failure branch: an `if` block of failure records
    and a `break`."""
    block, i = path[-1]
    if isinstance(block[i], ast.Raise):
        return True
    for (outer, j), (block, _) in zip(path, path[1:]):
        if isinstance(block[-1], ast.Raise) or (
                isinstance(outer[j], ast.If) and any(map(is_failure_record, block))
                and all(is_failure_record(s) or isinstance(s, ast.Break) for s in block)):
            return True
    return False


def body_statements(node):
    """statements(node.body) without the docstring, which compiles to no code."""
    body = node.body
    skip = (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str))
    return [(stmt, path) for stmt, path in statements(body) if not (skip and stmt is body[0])]


def branch_region(node, source, anchor):
    """(block, index) of the innermost statement of the def that holds
    `anchor`: a branch row covers that statement and the rest of its block.
    None unless the anchor occurs exactly once in the def's text."""
    text = source[node.lineno - 1:node.end_lineno]
    hits = [node.lineno + k for k, line in enumerate(text) for _ in range(line.count(anchor))]
    if len(hits) != 1:
        return None
    held = [path[-1] for stmt, path in body_statements(node)
            if stmt.lineno <= hits[0] <= stmt.end_lineno]
    return held[-1] if held else None


def defined_tests(path):
    """Names of the top-level test functions of a test file."""
    return {node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}


# (arguments of `compactness-lab`, config text, exit code): the commands that
# join the runs in run reach; each exit-2 command fails one way, cheaply
COMMANDS = (
    (["list"], None, 0),
    ([], None, 2),
    (["run", "nosuch"], "", 2),
    (["run", "porous"], "[porous]\nbc = foo\n", 2),
    (["run", "porous"], "[porous]\ngrid_cells = many\n", 2),
    (["run", "movedom"], "[movedom]\ndisk_radius = 1e-6\n", 2),
    (["run", "porous"], "[porous]\nt1 = 0.05\n", 2),
)


@pytest.fixture(scope="module")
def run_reach(reach, default_runs, adversarial_runs, tmp_path_factory):
    """`reach` once the runs, the COMMANDS and every demo are recorded."""
    tmp = tmp_path_factory.mktemp("commands")
    for i, (argv, config, code) in enumerate(COMMANDS):
        if config is not None:
            (tmp / f"{i}.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp / f"{i}.cfg"), "--out", str(tmp / f"out{i}")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert reach.record(cli.main, argv) == code, argv
    for path in DEMOS:
        reach.run_demo(path)
    return reach


def check_test(row_name, test):
    """Fail unless the row's test `tests/<file>::<name>` exists."""
    file, _, test_name = test.partition("::")
    path = ROOT / "tests" / file
    assert path.is_file() and test_name in defined_tests(path), (
        f"{row_name}: no test is named tests/{test}")


def test_functions_that_never_run_match_the_ledger(run_reach):
    called = run_reach.package_functions()
    defined = {name: key for name, (key, _) in defined_functions().items()}
    ran = {name for name, key in defined.items() if key in called}
    never = set(defined) - ran
    assert not never - LEDGER.keys(), (
        "no run or command reaches these, and the ledger has no row for them: "
        f"{sorted(never - LEDGER.keys())}")
    assert not LEDGER.keys() & ran, f"ledger rows for functions that run: {sorted(LEDGER.keys() & ran)}"
    assert LEDGER.keys() <= defined.keys(), (
        f"ledger rows for functions that do not exist: {sorted(LEDGER.keys() - defined.keys())}")
    assert {row[0] for row in LEDGER.values()} <= DECISIONS

    demo_reach = {path.stem: run_reach.package_functions(run_reach.demo_codes[path])
                  for path in DEMOS}
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
        check_test(name, test)


def test_lines_that_never_run_match_the_branch_rows(run_reach):
    ran = run_reach.package_lines()
    demo_ran = {path.stem: run_reach.package_lines(run_reach.demo_lines[path]) for path in DEMOS}
    called = run_reach.package_functions()
    defs = defined_functions()
    sources = {path.stem: path.read_text().splitlines() for path in PACKAGE.glob("*.py")}

    def runs(stmt, module, lines=ran):
        return any((module, n) in lines for n in own_lines(stmt))

    def covered(path, regions):
        return any(b is block and i >= start for block, start in regions for b, i in path)

    problems = []
    regions = {}
    for (name, anchor), row in BRANCHES.items():
        assert row[0] in BRANCH_DECISIONS, f"{name}: unknown decision {row[0]!r}"
        if name not in defs or defs[name][0] not in called or name in LEDGER:
            problems.append(f"{name}: a branch row needs a run-reached function with no "
                            f"ledger row")
            continue
        (module, _, _), node = defs[name]
        region = branch_region(node, sources[module], anchor)
        if region is None:
            problems.append(f"{name}: the anchor {anchor!r} does not occur exactly once")
            continue
        regions.setdefault(name, []).append(region)
        ran_lines = [stmt.lineno for stmt, path in body_statements(node)
                     if covered(path, [region]) and runs(stmt, module)]
        if ran_lines:
            problems.append(f"{name}: a run reaches line {ran_lines[0]}, in the block of "
                            f"the branch row at {anchor!r}")
        block, start = region
        by_demo = sorted(stem for stem, lines in demo_ran.items()
                         if runs(block[start], module, lines))
        if row[0] == "demo" and row[1] not in by_demo:
            problems.append(f"{name}: demos/{row[1]}.py does not enter the block at {anchor!r}")
        if row[0] != "demo" and by_demo:
            problems.append(f"{name}: demos {by_demo} enter the block at {anchor!r}, whose "
                            f"row is not a `demo` row")
        check_test(name, row[-1])

    for name, ((module, first, short), node) in sorted(defs.items()):
        if (module, first, short) not in called or name in LEDGER:
            continue
        for stmt, path in body_statements(node):
            if not (runs(stmt, module) or needs_no_row(path)
                    or covered(path, regions.get(name, ()))):
                problems.append(f"{name}: line {stmt.lineno} runs in no run and has no "
                                f"branch row: {sources[module][stmt.lineno - 1].strip()}")
    assert not problems, "\n".join(problems)
