"""The package root exports only what a caller uses.

Every name that src/depscope/__init__.py imports must be used by the
command line front end, a demo, the benchmark or a test of the package's
behaviour; a name none of them uses is not public API but dead weight.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def exported_names() -> list[str]:
    tree = ast.parse((ROOT / "src" / "depscope" / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def names_used_in(path: Path) -> set[str]:
    """Every identifier the file reads, imports or looks up as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.asname or node.name)
    return used


def test_every_root_export_has_a_caller():
    callers = [
        ROOT / "src" / "depscope" / "cli.py",
        *sorted((ROOT / "demos").glob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
        *(p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != Path(__file__).name),
    ]
    used = set().union(*map(names_used_in, callers))
    exported = exported_names()
    assert exported
    assert [name for name in exported if name not in used] == []
