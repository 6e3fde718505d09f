"""No module in ``src/repro`` writes the process environment.

The environment is shared by every thread of the process, so a value a
job writes there leaks into every concurrent job (the kernels mode once
did).  Per-job state lives in a :mod:`contextvars` variable instead.  A
stdlib-``ast`` check: assigning or deleting an ``os.environ`` item,
calling one of its mutating methods, and ``os.putenv``/``os.unsetenv``
all count as writes; reads are fine.
"""

import ast
import os
from typing import List, Tuple

from tests.test_source_imports import SOURCE_ROOT

_MUTATORS = {"pop", "popitem", "clear", "update", "setdefault"}


def _is_environ(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def environ_writes(source: str) -> List[int]:
    """Line numbers of every environment write in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        targets: List[ast.AST] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(
            isinstance(target, ast.Subscript) and _is_environ(target.value)
            for target in targets
        ):
            lines.append(node.lineno)
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            func = node.func
            if (func.attr in _MUTATORS and _is_environ(func.value)) or (
                func.attr in ("putenv", "unsetenv")
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                lines.append(node.lineno)
    return lines


def test_the_guard_sees_every_kind_of_write():
    source = "\n".join([
        "import os",
        "os.environ['A'] = '1'",
        "del os.environ['A']",
        "os.environ.pop('A', None)",
        "os.environ.update(A='1')",
        "os.environ.setdefault('A', '1')",
        "os.putenv('A', '1')",
        "value = os.environ.get('A')",
        "copy = dict(os.environ)",
    ])
    assert environ_writes(source) == [2, 3, 4, 5, 6, 7]


def test_no_module_writes_the_environment():
    found: List[Tuple[str, int]] = []
    for directory, _dirs, files in os.walk(SOURCE_ROOT):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                found.extend(
                    (os.path.relpath(path, SOURCE_ROOT), line)
                    for line in environ_writes(handle.read())
                )
    assert not found, "os.environ writes:\n" + "\n".join(
        "%s:%d" % entry for entry in found
    )
