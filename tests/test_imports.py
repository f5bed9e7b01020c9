"""What the package imports.

Every name a module imports is used in that module.  No linter runs on
this repository, so this is the unused-import check: it parses each module
of the package, the tests and the demos, and counts the bare names the
module reads.  `__init__.py` re-exports and `from __future__` imports are
exempt.

The package imports numpy and the top-level `scipy` only; each scipy
submodule loads on first use.  `commutator` and `productlimit` never load
one, and every other experiment has its submodules loaded by `load_config`,
before a run's timing starts."""

import ast
import json
import os
import subprocess
import sys

import pytest

from compactness_lab import cli
from conftest import DEMOS, PACKAGE, ROOT


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.relative_to(ROOT)}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py")) + DEMOS
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


# the scipy submodules the package calls; each loads on first use
SUBMODULES = ("scipy.linalg", "scipy.ndimage", "scipy.sparse", "scipy.sparse.linalg",
              "scipy.special")
# a section per experiment, small enough to run in a fraction of a second
# (a verdict may fail: exit 1 still runs every layer)
SMALL = {
    "commutator": "cells = 256\nmembers = 2\nn_slices = 4\nk_list = 4,8",
    "productlimit": "cells = 64\nn_slices = 4\nmembers = 2\nk_list = 4,8",
    "porous": "grid_cells = 64\nn_list = 16,32",
    "movedom": "grid = 24\nn_slices = 4\neps_list = 0.0,0.1",
    "divfree": "grid = 16\nn_fields = 2\npair_checks = 1",
    "nsprobe": "grid = 32\nn_slices = 5\nmembers = 2\nosc_list = 2\ndelta_list = 0.0625",
    "kruzhkov": "grid = 32\nn_slices = 4\nmembers = 2\nosc_list = 1\nm_interior = 4\nell_list = 16",
}
# in a fresh interpreter: the scipy modules loaded after the import of
# `cli`, after `load_config` and after `run` of argv[1] with config argv[2]
PROBE = """
import json, sys
from compactness_lab import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
experiment, config, out = sys.argv[1:]
loaded = [scipy_modules()]
cli.load_config(config, experiment)
loaded.append(scipy_modules())
code = cli.run(experiment, config, out)
print(json.dumps([code, *loaded, scipy_modules()]))
"""


@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_scipy_submodules_load_only_for_experiments_that_call_them(experiment, tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(f"[{experiment}]\n{SMALL[experiment]}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE, experiment, str(config),
                           str(tmp_path / "out")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, at_import, at_load, at_end = json.loads(proc.stdout)
    assert code in (0, 1)
    assert not set(SUBMODULES) & set(at_import)
    if experiment in cli.NUMPY_ONLY:
        assert not set(SUBMODULES) & set(at_end)
    else:
        assert set(SUBMODULES) <= set(at_load)
        assert set(at_end) <= set(at_load)
