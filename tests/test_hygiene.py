"""Source hygiene: the package imports only the standard library and itself,
and every name a package module imports is used there."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "simhom"


def unused_imports(path):
    """(line, name) of each name ``path`` imports but never references."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py re-exports what it imports, so it is not scanned
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_package_imports_only_stdlib():
    # the package has no dependencies: no numpy, no flint, no gmpy
    allowed = set(sys.stdlib_module_names) | {"simhom"}
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert foreign == []
