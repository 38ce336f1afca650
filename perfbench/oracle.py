"""Correctness oracle: checks every answer the benchmark receives.

The oracle shares no code with the package.  Expected invariants come from
``data/expected.json`` (cross-checked against closed forms by
``crosscheck``); orientations and duality matrices are re-verified here
from the input files in plain ``Fraction`` arithmetic.

``check(query, record, workdir)`` returns ``None`` for a correct
answer and a one-line reason otherwise.
"""

import json
import os
import re
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

# Betti numbers of the catalog spaces over Q, from their topology.
CLOSED_FORM_BETTI = {
    "point": [1],
    "interval": [1, 0],
    "disk": [1, 0, 0],
    "hexagon": [1, 1],
    "triangle": [1, 1],
    "dodecagon": [1, 1],
    "octahedron": [1, 0, 1],
    "icosahedron": [1, 0, 1],
    "torus": [1, 2, 1],
    "torus7": [1, 2, 1],
    "genus2": [1, 4, 1],
    "rp2": [1, 0, 0],
}


def load_json(name):
    with open(os.path.join(DATA, name)) as fh:
        return json.load(fh)


def crosscheck(expected):
    """Raise AssertionError unless the expected table meets its closed forms.

    Checks Betti numbers and chi, lambda(id, id) = chi, the pinned pairs of
    ``simhom.verify.COINCIDENCE_PAIRS`` and the degrees stated in
    ``simhom.catalog.MAP_NOTES``, and that every pair with lambda != 0 has a
    witness.
    """
    from simhom.catalog import MAP_NOTES
    from simhom.verify import COINCIDENCE_PAIRS

    complexes, maps, pairs = expected["complexes"], expected["maps"], expected["pairs"]
    for name, betti in CLOSED_FORM_BETTI.items():
        row = complexes[name]
        assert row["betti"] == betti, (name, row["betti"])
        chi = sum((-1) ** q * b for q, b in enumerate(betti))
        assert row["chi"] == chi == sum((-1) ** q * c for q, c in enumerate(row["counts"])), name
    for key, row in pairs.items():
        f, g = key.split(",")
        if f == g and f.startswith("id_"):
            assert Fraction(row["lambda"]) == complexes[f[3:]]["chi"], key
        if Fraction(row["lambda"]) != 0:
            assert row["witness"] == "found", key
    for f, g, _, _, value in COINCIDENCE_PAIRS:
        assert Fraction(pairs[f"{f},{g}"]["lambda"]) == value, (f, g)
    for name, note in MAP_NOTES.items():
        m = re.search(r"degree (-?\d+)", note)
        assert m and Fraction(maps[name]["degree"]) == int(m.group(1)), name


# ---------------------------------------------------------------------------
# independent re-verification
# ---------------------------------------------------------------------------


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _tops(cx):
    """Top simplices of a complex file as sorted index tuples."""
    order = {v: i for i, v in enumerate(cx["vertex_order"])}
    dim = max(len(s) for s in cx["maximal_simplices"]) - 1
    return order, [tuple(sorted(order[v] for v in s)) for s in cx["maximal_simplices"] if len(s) == dim + 1]


def orientation_error(cx, signs):
    """Why ``signs`` (names joined by '+' -> +-1) is no fundamental cycle."""
    order, tops = _tops(cx)
    got = {}
    for key, sign in signs.items():
        idx = tuple(order[v] for v in key.split("+"))
        if list(idx) != sorted(idx) or sign not in (1, -1):
            return f"bad orientation entry {key}={sign}"
        got[idx] = sign
    if set(got) != set(tops):
        return "orientation does not cover the top simplices"
    boundary = {}
    for top, sign in got.items():
        for i in range(len(top) if len(top) > 1 else 0):
            face = top[:i] + top[i + 1 :]
            boundary[face] = boundary.get(face, 0) + sign * (-1) ** i
    if any(boundary.values()):
        return "signed top simplices are not a cycle"
    return None


# ---------------------------------------------------------------------------
# answer checks
# ---------------------------------------------------------------------------


def _same(got, want, signed):
    got, want = Fraction(got), Fraction(want)
    return got == want if signed else abs(got) == abs(want)


def _check_cli(query, code, out, workdir):
    exp = query["expect"]
    if code != exp["exit"]:
        return f"exit code {code}, expected {exp['exit']}"
    if code != 0:
        return None
    if out is None or out.get("command") != query["argv"][0]:
        return "missing or foreign report"
    res = out["results"]
    cmd = query["argv"][0]
    if cmd in ("homology", "cohomology"):
        if res["betti"] != exp["betti"] or res["counts"] != exp["counts"]:
            return f"betti {res['betti']} / counts {res['counts']}"
        if res["euler_characteristic"] != exp["chi"]:
            return "wrong Euler characteristic"
    elif cmd == "duality":
        if res["betti"] != exp["betti"] or not res["betti_symmetric"] or not res["duality_invertible"]:
            return "wrong duality summary"
        if not res["manifold"]["is_closed_pseudo_manifold"]:
            return "manifold check failed"
        with open(os.path.join(workdir, query["argv"][1])) as fh:
            cx = json.load(fh)
        err = orientation_error(cx, res["orientation_signs"])
        if err:
            return err
        for q, b in enumerate(exp["betti"]):
            mat = [[Fraction(v) for v in row] for row in res["duality_matrices"][str(q)]]
            if len(mat) != b or any(len(row) != b for row in mat) or _rank(mat) != b:
                return f"duality matrix in degree {q} is not invertible"
    elif cmd == "lefschetz":
        if Fraction(res["euler_number"]) != exp["chi"] or res["combinatorial_euler_characteristic"] != exp["chi"]:
            return "wrong Euler number"
        summands = res["lefschetz_class_summands"]
        if len(summands) != sum(exp["betti"]) or any(s["sign"] != (-1) ** s["degree"] for s in summands):
            return "wrong Lefschetz class expansion"
    elif cmd == "degree":
        if not _same(res["degree"], exp["degree"], exp["signed"]):
            return f"degree {res['degree']}, expected {exp['degree']}"
    elif cmd == "coincidence":
        if not res["consistent"] or any(v != res["value"] for v in res["lambda"].values()):
            return "lambda formulas disagree"
        if not _same(res["value"], exp["lambda"], exp["signed"]):
            return f"lambda {res['value']}, expected {exp['lambda']}"
    elif cmd == "verify":
        suites = res["suites"]
        if not res["all_passed"] or any(not c["passed"] for checks in suites.values() for c in checks):
            return "verify reports a failed check"
        if {k: len(v) for k, v in suites.items()} != exp["checks"]:
            return "verify ran the wrong checks"
    return None


def check(query, record, workdir):
    """None when ``record`` answers ``query`` correctly, else the reason."""
    if record.get("error"):
        return record["error"]
    try:
        return _check_cli(query, record["code"], record["out"], workdir)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable answer: {exc!r}"
