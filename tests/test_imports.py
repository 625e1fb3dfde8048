import ast
import os
import subprocess
import sys
from pathlib import Path

import fanokit

SRC = Path(fanokit.__file__).parent


def test_package_imports_only_the_standard_library():
    """fanokit has no runtime dependencies: every import is stdlib or fanokit.
    It does not import ``dataclasses`` either, which loads ``inspect`` and
    execs generated methods at every start (its records derive from Record)."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top == "dataclasses" or (
                    top != "fanokit" and top not in sys.stdlib_module_names
                ):
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert len(list(SRC.glob("*.py"))) >= 13
    assert outside == []


def test_package_has_no_bare_asserts():
    """Checks in fanokit raise explicitly, so they survive ``python -O``."""
    bare = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert bare == []


COLD_IMPORT = """
import sys
before = set(sys.modules)
import fanokit.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI run pays for ``import fanokit.cli``; in a fresh interpreter
    it must not newly load ``dataclasses`` or ``inspect`` (with ``ast``,
    ``dis`` and ``tokenize`` behind it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(out.stdout.split())
    assert "fanokit.pipeline" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
