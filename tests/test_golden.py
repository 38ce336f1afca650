"""Byte-for-byte snapshot of the CLI's ``--json`` output.

``tests/data/golden_cli.json`` holds the exit code and stdout of every
query in ``queries()``: the catalog, plus the first barycentric
subdivisions of the torus and of the genus-2 surface read from
``tests/data/sd1_*.json`` and the second subdivision of the torus read
from ``tests/data/sd2_torus.json`` (each with a seeded shuffled vertex
order), whose matrices are larger than any catalog complex's: the
torus Sd² has a 972 x 648 d_2.  Refactors of the engine must leave
all of them unchanged.  Queries run from the ``tests``
directory, because ``inputs`` echoes the file argument.  To re-record
after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the snapshot moved.
"""

import contextlib
import io
import json
import os
import random

from simhom import catalog
from simhom.cli import main
from simhom.complex import barycentric_subdivide, complex_to_json
from simhom.verify import COINCIDENCE_PAIRS

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "data", "golden_cli.json")
SD1_SEEDS = {"torus": 1, "genus2": 2}  # catalog surface -> vertex-order seed
SD2_SEEDS = {"torus": 3}


def sd1_path(base):
    return f"data/sd1_{base}.json"


def sd2_path(base):
    return f"data/sd2_{base}.json"


def _write_subdivided(base, levels, seed, path):
    x = catalog.get_complex(base)
    for _ in range(levels):
        x, _ = barycentric_subdivide(x)
    data = complex_to_json(x)
    random.Random(seed).shuffle(data["vertex_order"])
    with open(os.path.join(HERE, path), "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def write_sd1_inputs():
    for base, seed in SD1_SEEDS.items():
        _write_subdivided(base, 1, seed, sd1_path(base))


def write_sd2_inputs():
    for base, seed in SD2_SEEDS.items():
        _write_subdivided(base, 2, seed, sd2_path(base))


def queries():
    out = []
    for name in catalog.COMPLEX_BUILDERS:
        out += [
            ["homology", name],
            ["homology", name, "--generators"],
            ["cohomology", name],
            ["cohomology", name, "--generators"],
            ["duality", name],
            ["lefschetz", name],
        ]
    out += [["degree", name] for name in catalog.MAP_BUILDERS]
    out += [["coincidence", f, g] for f, g, _, _, _ in COINCIDENCE_PAIRS]
    out += [["coincidence", f, g, "--witness"] for f, g, _, _, _ in COINCIDENCE_PAIRS]
    for base in SD1_SEEDS:
        out += [
            ["homology", sd1_path(base), "--generators"],
            ["cohomology", sd1_path(base), "--generators"],
            ["duality", sd1_path(base)],
        ]
    for base in SD2_SEEDS:
        out += [["duality", sd2_path(base)], ["lefschetz", sd2_path(base)]]
    out += [["verify", "--seed", "5"], ["verify", "--seed", "7"]]
    return [argv + ["--json"] for argv in out]


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def test_cli_json_matches_golden_snapshot():
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert [e["argv"] for e in expected] == queries()
    for e in expected:
        assert answer(e["argv"]) == e, " ".join(e["argv"])


if __name__ == "__main__":
    write_sd1_inputs()
    write_sd2_inputs()
    with open(GOLDEN, "w") as fh:
        json.dump([answer(argv) for argv in queries()], fh, indent=1)
        fh.write("\n")
