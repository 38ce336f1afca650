"""Source hygiene: the package imports only the standard library and itself,
every name a package module imports is used there, importing the CLI loads
no module that generates code at import time, the engine makes no
transposed copy of a matrix, Betti-level maps are composed only by
``GradedMap.compose``, and the homology selection reduces a restricted
facet table."""

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


def scoped_nodes(path, hit):
    """The qualified name of the function around each node of ``path`` that
    ``hit`` accepts, "<module>" outside any, in source order."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif hit(child):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def method_calls(path, name):
    """Where ``path`` calls ``<expr>.name(...)``, as ``scoped_nodes``."""
    return scoped_nodes(
        path,
        lambda n: isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == name,
    )


def function_calls(path, name):
    """Where ``path`` calls the bare name ``name(...)``, as ``scoped_nodes``."""
    return scoped_nodes(
        path,
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name,
    )


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


def attribute_reads(path, name, function=None):
    """Where ``path`` reads ``<expr>.name``, as ``scoped_nodes``, or only
    inside ``function``'s qualified name."""
    found = scoped_nodes(path, lambda n: isinstance(n, ast.Attribute) and n.attr == name)
    return [f for f in found if function is None or f == function]


def test_engine_reads_no_dict_view_of_a_facet_table(monkeypatch):
    """The engine walks the facet arrays: with ``FacetTable.entries`` made to
    raise, homology, cohomology, duality, the Lefschetz and coincidence
    numbers, a relative pair and an excision all answer, on surfaces, rp2
    and S^3; the manifold analysis names no ``.entries`` at all."""
    from simhom import catalog
    from simhom.chains import build_relative
    from simhom.complex import complex_from_json, complex_to_json, validate
    from simhom.duality import duality_operator
    from simhom.errors import TopologyError
    from simhom.exactlin import FacetTable
    from simhom.homology import Space, compute_cohomology, compute_homology, excision_check
    from simhom.lefschetz import coincidence_number
    from simhom.verify import COINCIDENCE_PAIRS

    assert attribute_reads(SRC / "complex.py", "entries", "_analyse") == []
    s3 = validate([[v for v in "abcde" if v != w] for w in "abcde"], name="S3")
    torus = catalog.torus()
    circle = validate([["a", "b"], ["b", "c"], ["a", "c"]], name="circle")
    shown = (torus, catalog.rp2(), s3, catalog.genus2())
    fresh = [complex_from_json(complex_to_json(x)) for x in shown]

    def entries(m):
        raise AssertionError(f"the dict view of {m!r} was read")

    monkeypatch.setattr(FacetTable, "entries", property(entries))
    for x in fresh:
        h, c = Space(x).homology_and_cohomology()
        assert h.betti_vector() == c.betti_vector()
        try:
            duality_operator(Space(x))
        except TopologyError:
            assert x.name == "rp2"
    for fname, gname, _, _, value in COINCIDENCE_PAIRS[:6]:
        assert coincidence_number(catalog.get_map(fname), catalog.get_map(gname)).value == value
    pair = build_relative(catalog.triangle2(), circle)
    assert compute_homology(pair).betti_vector() == compute_cohomology(pair).betti_vector()
    assert excision_check(catalog.triangle2(), circle, [("a", "b")]).isomorphism


def test_only_the_transposed_copy_reads_a_dict_view(monkeypatch):
    """``verify``'s d o d = 0 checks push columns through the facet arrays;
    its delta o delta = 0 checks read the dict view only to make
    ``ChainComplex.coboundary``'s transposed copy."""
    from simhom.exactlin import FacetTable
    from simhom.verify import suite_axioms

    real = FacetTable.entries.fget
    readers = set()

    def entries(m):
        caller = sys._getframe(1)
        readers.add((caller.f_code.co_name, caller.f_back.f_code.co_name))
        return real(m)

    monkeypatch.setattr(FacetTable, "entries", property(entries))
    assert all(check.passed for check in suite_axioms())
    assert readers == {("transpose", "coboundary")}


def test_every_traced_name_resolves():
    """``perfbench/tracer.py`` wraps package functions by name; each one
    must still exist."""
    sys.path.insert(0, str(SRC.parent.parent / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    assert all(callable(value) for _, _, value in tracer.originals())


def test_betti_level_compositions_go_through_graded_map_compose():
    # D, D^{-1}, f^!, f_!, the four traces and verify's identities are
    # compositions of GradedMaps; the one dense product left in duality.py
    # is the cup pairing K D of the dual basis, K being no map
    assert function_calls(SRC / "duality.py", "dense_mul") == ["DualityOperator.dual_basis"]
    assert function_calls(SRC / "lefschetz.py", "dense_mul") == []
    assert function_calls(SRC / "verify.py", "dense_mul") == []
    assert function_calls(SRC / "homology.py", "dense_mul") == ["GradedMap.compose"]


def test_selection_reduces_a_restricted_facet_table():
    # B_F^T is d restricted to the boundary pivots and the free simplices,
    # handed to ``Reductions`` as a facet table: the selection names no
    # keyed-dict matrix and decodes no facet slot's sign itself
    path = SRC / "homology.py"
    selection = {"_select", "_selection"}
    named = scoped_nodes(path, lambda n: isinstance(n, ast.Name) and n.id == "SparseMatrix")
    assert selection.isdisjoint(named)
    assert selection.isdisjoint(method_calls(path, "column"))
    assert method_calls(path, "restricted").count("_selection") == 1


def test_facet_table_ends_takes_no_skip():
    # the manifold analysis restricts d_n to its rows of at most two
    # entries instead of asking ``ends`` to leave the others out
    tree = ast.parse((SRC / "exactlin.py").read_text())
    table = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FacetTable")
    ends = next(n for n in table.body if isinstance(n, ast.FunctionDef) and n.name == "ends")
    assert [a.arg for a in ends.args.args + ends.args.kwonlyargs] == ["self", "by_column"]
