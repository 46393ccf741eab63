"""The package imports nothing beyond the standard library and the
runtime dependencies that ``pyproject.toml`` declares."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localcausal"


def imported_roots() -> dict[str, set[str]]:
    """The top-level name of every absolute import in the package, at
    module level or inside a function, with the files that make it."""
    roots: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
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


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    requirements = tomllib.loads(text)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in requirements}


def test_every_third_party_import_is_a_declared_dependency():
    third_party = {root: files for root, files in imported_roots().items()
                   if root not in sys.stdlib_module_names and root != "localcausal"}
    declared = declared_dependencies()
    assert set(third_party) <= declared, third_party
    assert declared <= set(third_party), "declared but never imported"
    assert declared == {"numpy"}
