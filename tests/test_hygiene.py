"""Source hygiene: the package imports only the standard library and itself,
every name a package module imports is used there, importing the CLI loads
no module that generates code at import time, and the engine makes no
transposed copy of a matrix."""

import ast
import subprocess
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


def imported_modules(path):
    """Top-level names of the modules ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def method_calls(path, name):
    """The qualified name of the function around each ``<expr>.name(...)``
    call in ``path``, "<module>" outside any, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == name
            ):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def test_engine_makes_no_transposed_copy():
    # delta^q is read off d_{q+1} by rows; a transposed copy would double
    # the memory of every differential it is made of
    transposes = {p.name: method_calls(p, "transpose") for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in transposes.items() if calls} == {
        "chains.py": ["ChainComplex.coboundary"]
    }
    engine = ("homology.py", "products.py", "duality.py", "lefschetz.py")
    assert {name: method_calls(SRC / name, "coboundary") for name in engine} == dict.fromkeys(
        engine, []
    )


def test_no_unused_imports():
    # __init__.py re-exports what it imports, so it is not scanned
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    unused = {p.name: unused_imports(p) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_package_imports_only_stdlib():
    # the package has no dependencies: no numpy, no flint, no gmpy
    allowed = set(sys.stdlib_module_names) | {"simhom"}
    foreign = [
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(imported_modules(path))
        if name not in allowed
    ]
    assert foreign == []


def test_package_does_not_import_dataclasses():
    # each @dataclass execs its generated methods at import, and the module
    # pulls in inspect, ast, dis and tokenize: every CLI call paid for both
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if "dataclasses" in imported_modules(p)] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only the package's own imports are counted
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import simhom.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
