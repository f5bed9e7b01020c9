"""Every name a module imports is used in that module.

No linter runs on this repository, so this is the unused-import check:
it parses each module of the package, the tests and the demos, and counts
the bare names the module reads.  `__init__.py` re-exports and
`from __future__` imports are exempt."""

import ast

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
