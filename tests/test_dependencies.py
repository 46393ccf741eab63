"""The package imports nothing beyond the standard library and the
runtime dependencies that ``pyproject.toml`` declares, and the tests
nothing beyond those, the package, their own modules and the ``test``
extra."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localcausal"
TESTS = ROOT / "tests"


def imported_roots(directory: Path = PACKAGE) -> dict[str, set[str]]:
    """The top-level name of every absolute import under ``directory``,
    at module level or inside a function, with the files that make it."""
    roots: dict[str, set[str]] = {}
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                roots.setdefault(name.partition(".")[0], set()).add(path.name)
    return roots


def declared_dependencies(extra: str = "") -> set[str]:
    """The runtime dependencies, or those of one optional extra."""
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = tomllib.loads(text)["project"]
    requirements = (project["optional-dependencies"][extra] if extra
                    else project["dependencies"])
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = {root: files for root, files in imported_roots().items()
                   if root not in sys.stdlib_module_names and root != "localcausal"}
    declared = declared_dependencies()
    assert set(third_party) <= declared, third_party
    assert declared <= set(third_party), "declared but never imported"
    assert declared == {"numpy"}


def test_every_third_party_test_import_is_declared():
    # hypothesis may be installed, but the suite must not come to need it
    extra = declared_dependencies("test")
    allowed = ({"localcausal"} | {p.stem for p in TESTS.glob("*.py")}
               | declared_dependencies() | extra)
    outside = {root: files for root, files in imported_roots(TESTS).items()
               if root not in sys.stdlib_module_names and root not in allowed}
    assert outside == {}
    assert extra == {"pytest", "mpmath", "scipy"}
