import ast
import sys
from pathlib import Path

import fanokit

SRC = Path(fanokit.__file__).parent


def test_package_imports_only_the_standard_library():
    """fanokit has no runtime dependencies: every import is stdlib or fanokit."""
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
                if top != "fanokit" and top not in sys.stdlib_module_names:
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
