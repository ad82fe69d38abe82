"""Only frame.py handles CSV text.

frame.py reads every CSV depscope reads and writes every CSV table it
writes (_write_table).  A module that imports the csv module itself can
write rows a way of its own, so no module of src/depscope but frame.py
imports it.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "depscope"


def imported_modules(path: Path) -> set[str]:
    """The top-level package of every absolute import in the file."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def test_only_frame_imports_csv():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    importers = [str(p.relative_to(SRC)) for p in modules if "csv" in imported_modules(p)]
    assert importers == ["frame.py"]
