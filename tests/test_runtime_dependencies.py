"""The package runs on numpy and the standard library alone."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "selfpaced"
ALLOWED = {"numpy", "selfpaced"}


def imported_modules(path):
    """(line, module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_the_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        f"{path.name}:{line} imports {module}"
        for path in sources
        for line, module in imported_modules(path)
        if module.partition(".")[0] not in sys.stdlib_module_names | ALLOWED
    ]
    assert outside == []
