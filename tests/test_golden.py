"""Byte-for-byte snapshot of the CLI's ``--json`` output over the catalog.

``tests/data/golden_cli.json`` holds the exit code and stdout of every
query in ``queries()``.  Refactors of the engine must leave all of them
unchanged.  To re-record after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the snapshot moved.
"""

import contextlib
import io
import json
import os

from simhom import catalog
from simhom.cli import main
from simhom.verify import COINCIDENCE_PAIRS

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")


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
    return [argv + ["--json"] for argv in out]


def answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def test_cli_json_matches_golden_snapshot():
    with open(GOLDEN) as fh:
        expected = json.load(fh)
    assert [e["argv"] for e in expected] == queries()
    for e in expected:
        assert answer(e["argv"]) == e, " ".join(e["argv"])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump([answer(argv) for argv in queries()], fh, indent=1)
        fh.write("\n")
