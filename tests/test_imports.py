import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fanokit

SRC = Path(fanokit.__file__).parent

# The built-in SHA-256 module is ``_sha256`` on Python 3.10 and 3.11 and
# ``_sha2`` from 3.12; each version's ``sys.stdlib_module_names`` lists its own.
STDLIB = sys.stdlib_module_names | {"_sha2", "_sha256"}


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
                    top != "fanokit" and top not in STDLIB
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
code = fanokit.cli.main(["polygon", "--fixture", "paper-P"])
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(code)
"""


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every CLI run pays for ``import fanokit.cli``; in a fresh interpreter
    it must not newly load ``dataclasses`` or ``inspect`` (with ``ast``,
    ``dis`` and ``tokenize`` behind it), nor, for a ``--fixture`` run,
    ``importlib.resources`` with ``pathlib``, ``typing``, ``tempfile`` and
    ``zipfile``.  ``-S`` keeps ``site`` off, so ``.pth`` files that import
    some of these at start cannot hide them."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-S", "-c", COLD_IMPORT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("{")
    loaded = set(out.stderr.split())
    assert "fanokit.pipeline" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "importlib.resources", "pathlib",
                              "typing", "tempfile", "zipfile"})


COLD_RUN = """
import sys
if sys.argv[1] == "fallback":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
import fanokit.cli
code = fanokit.cli.main(sys.argv[2:])
print(" ".join(sorted({"_hashlib", "ssl", "hashlib"} & set(sys.modules))), file=sys.stderr)
sys.exit(code)
"""


def cold_run(digest, argv):
    """Run ``fanokit.cli.main(argv)`` in a fresh interpreter without bytecode;
    return its stdout and the names of ``_hashlib``, ``ssl`` and ``hashlib``
    loaded by its end.  ``digest="fallback"`` hides the built-in SHA-256
    modules before the import, so the CLI takes ``hashlib``'s."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", COLD_RUN, digest, *argv],
        env=env, capture_output=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout, set(out.stderr.decode().split())


COMPARE = ["periods", "compare", "--fixture", "paper", "--order", "4"]


@pytest.mark.parametrize("argv", [
    ["polygon", "--fixture", "paper-P"],
    ["scaffold", "--fixture", "paper-scaffolding", "--check-hull"],
    ["periods", "classical", "--fixture", "paper", "--order", "4"],
    ["periods", "quantum", "--fixture", "paper", "--order", "4"],
    COMPARE,
], ids=["polygon", "scaffold", "classical", "quantum", "compare"])
def test_cli_run_loads_no_openssl(argv):
    """The input digest comes from the interpreter's built-in SHA-256, so no
    subcommand loads ``_hashlib`` (OpenSSL's libcrypto) or ``ssl``."""
    stdout, loaded = cold_run("builtin", argv)
    assert b'"input_sha256"' in stdout
    assert {"_hashlib", "ssl"}.isdisjoint(loaded)


def test_the_hashlib_fallback_writes_the_same_bytes():
    """On a build without ``_sha2`` and ``_sha256`` the digest comes from
    ``hashlib``, and stdout does not change."""
    builtin, _ = cold_run("builtin", COMPARE)
    fallback, loaded = cold_run("fallback", COMPARE)
    assert "hashlib" in loaded
    assert fallback == builtin
