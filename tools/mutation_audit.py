"""Which ``raise`` statements in the package can tier-1 make fire?

Copies the repository to a temporary directory (``src/`` is never edited in
place), then, one at a time, replaces each ``raise`` statement under
``src/simhom`` by ``pass`` and runs the tier-1 suite with ``-x`` in the
copy.  A mutant that still passes is a survivor: no test makes that raise
fire.  Survivors are printed with their allowlist reason, or flagged when
they have none; the exit code is 1 when some survivor has no reason.

    python tools/mutation_audit.py

Stdlib only.  At most two worker processes run at once, each in its own
copy.  ``test_no_unused_imports`` is deselected: a mutant that drops the
last use of an imported exception would be caught by that lint, which says
nothing about the gate.  On a 2-vCPU VM a full audit takes about 13
minutes.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from queue import Queue

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "simhom")
WORKERS = 2
TIMEOUT_S = 600
PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
    "--deselect", "tests/test_hygiene.py::test_no_unused_imports",
]

# (module, enclosing function, message prefix) -> why the survivor is accepted.
# A guard stays when a public entry checks the same condition first, or when
# the only way to reach it is a caller that tier-1 does not have.
ALLOWLIST = {
    ("catalog.py", "get_complex", "KeyError: unknown catalog complex {}"):
        "the builder lookup after it raises KeyError too; the raise only words "
        "the message, and the CLI resolver checks the name first",
    ("catalog.py", "get_map", "KeyError: unknown catalog map {}"):
        "the builder lookup after it raises KeyError too; the raise only words "
        "the message, and the CLI resolver checks the name first",
    ("complex.py", "SimplicialComplex.__init__", "DuplicateVertex: duplicate vertex identifiers in {}"):
        "validate, the one public constructor, lists each vertex once, so only "
        "a direct SimplicialComplex(...) call reaches it",
    ("duality.py", "_pushed_degree", "NotClosed: codomain top homology is not one-dimensi"):
        "both callers, degree and Transfer.degree, check dim X = dim Y first, and "
        "fundamental_class raises NotClosed unless b_n(Y) = 1, so only a "
        "DualityOperator built by hand around another class reaches it",
}


def raises(path):
    """The raise statements of a module: (function, message prefix, node),
    in source order.  The function is the dotted name of the enclosing
    definitions, '' at module level."""
    tree = ast.parse(open(path).read())
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                out.append((".".join(scope), _message(child), child))
            walk(child, scope)

    walk(tree, ())
    return sorted(out, key=lambda r: (r[2].lineno, r[2].col_offset))


def _message(node):
    """The raise's exception and the first words of its message."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        name = ast.unparse(exc.func)
        if exc.args:
            first = exc.args[0]
            if isinstance(first, ast.Constant):
                return f"{name}: {str(first.value)[:40]}"
            if isinstance(first, ast.JoinedStr):
                text = "".join(
                    v.value if isinstance(v, ast.Constant) else "{}" for v in first.values
                )
                return f"{name}: {text[:40]}"
        return name
    return ast.unparse(exc) if exc is not None else "raise"


def mutate(source, node):
    """``source`` with the statement ``node`` replaced by ``pass``."""
    lines = source.splitlines(keepends=True)
    head = lines[node.lineno - 1][: node.col_offset]
    tail = lines[node.end_lineno - 1][node.end_col_offset :]
    return "".join(lines[: node.lineno - 1] + [head + "pass" + tail] + lines[node.end_lineno :])


def copy_tree(dest):
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", ".perfbench")
    shutil.copytree(ROOT, dest, ignore=ignore)


def run_tier1(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            PYTEST, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    last = done.stdout.strip().splitlines()[-1:] or [""]
    return done.returncode == 0, last[0]


def main():
    modules = sorted(
        f for f in os.listdir(os.path.join(ROOT, PACKAGE)) if f.endswith(".py")
    )
    jobs = [
        (module, func, msg, node)
        for module in modules
        for func, msg, node in raises(os.path.join(ROOT, PACKAGE, module))
    ]
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        trees = Queue()
        for k in range(WORKERS):
            tree = os.path.join(tmp, f"tree{k}")
            copy_tree(tree)
            trees.put(tree)
        tree = trees.get()
        ok, summary = run_tier1(tree)
        trees.put(tree)
        if not ok:
            raise SystemExit(f"tier-1 fails on the unmutated copy: {summary}")
        print(f"{len(jobs)} raise statements; unmutated tier-1: {summary}", flush=True)

        def run(job):
            module, func, msg, node = job
            tree = trees.get()
            path = os.path.join(tree, PACKAGE, module)
            original = open(path).read()
            try:
                with open(path, "w") as fh:
                    fh.write(mutate(original, node))
                survived, _ = run_tier1(tree)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
                trees.put(tree)
            mark = "SURVIVES" if survived else "caught"
            print(f"  {mark:8} {module}:{node.lineno} {func} ({msg})", flush=True)
            return job, survived

        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(run, jobs))

    survivors = [job for job, survived in results if survived]
    print(f"\n{len(jobs) - len(survivors)} caught, {len(survivors)} survive")
    unexplained = 0
    for module, func, msg, node in survivors:
        reason = ALLOWLIST.get((module, func, msg))
        if reason is None:
            unexplained += 1
            reason = "NOT ALLOWLISTED"
        print(f"  {module}:{node.lineno} {func} ({msg}): {reason}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
