"""Every import in ``src/repro`` is used.

A stdlib-``ast`` check, so it needs no linter: a module-level or local
import whose bound name never appears again in its module is dead code.
A name counts as used when it appears as an ``ast.Name``, is listed in
``__all__``, or appears inside a quoted annotation.  Package
``__init__.py`` files are skipped (their imports are re-exports), and
an import line marked ``# noqa: F401`` is kept on purpose.
"""

import ast
import os
from typing import Iterator, List, Set, Tuple

SOURCE_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, "src", "repro"
)


def _modules() -> Iterator[str]:
    for directory, _dirs, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            if name.endswith(".py") and name != "__init__.py":
                yield os.path.join(directory, name)


def _quoted_annotations(tree: ast.AST) -> Iterator[str]:
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                yield node.value


def _used_names(tree: ast.AST) -> Set[str]:
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for text in _quoted_annotations(tree):
        try:
            parsed = ast.parse(text, mode="eval")
        except SyntaxError:
            continue
        used.update(
            node.id for node in ast.walk(parsed)
            if isinstance(node, ast.Name)
        )
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            )
    return used


def unused_imports(path: str) -> List[Tuple[str, int, str]]:
    """``(path, line, name)`` for every unused import in one module."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    lines = source.splitlines()
    tree = ast.parse(source, filename=path)
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            line = getattr(alias, "lineno", node.lineno)
            if bound in used or "noqa: F401" in lines[line - 1]:
                continue
            found.append((os.path.relpath(path, SOURCE_ROOT), line, bound))
    return found


def test_no_unused_imports():
    found = [entry for path in _modules() for entry in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(
        "%s:%d: %s" % entry for entry in found
    )
