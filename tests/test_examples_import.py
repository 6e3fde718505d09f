"""Every example's ``repro`` imports still resolve.

The examples are not run here; this only checks that each name an
example imports from the library still exists, so a deletion or rename
that breaks an example fails the tier-1 suite.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def repro_imports(path):
    """``(module, names)`` for every ``repro`` import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] == "repro":
                yield module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, []


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(repro_imports(path))
    assert imports, "%s imports nothing from repro" % path.name
    for module_name, names in imports:
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, "%s: %s has no %s" % (
            path.name, module_name, ", ".join(missing),
        )
