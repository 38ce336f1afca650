"""The query-answering process: answers one pass, one query at a time.

    python3 worker.py SPEC.json

SPEC names the pass directory, the queries, whether to trace and where to
write the answers.  The process imports ``simhom`` from the source tree
given in SPEC, answers every query in order (a closed loop with one
client), times each one, and writes one JSON file with the answers, the
latencies and its own peak resident memory.  Tracing, when asked for, is
installed after the import and before the first query.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _answer_cli(cli, query):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(query["argv"])
        latency = time.perf_counter() - start
    text = out.getvalue()
    return latency, {"code": code, "out": json.loads(text) if code == 0 and text else None}


def run_pass(spec, tracer=None):
    """Answer the queries of ``spec``; return one record per query."""
    import simhom.cli as cli

    records = []
    for i, query in enumerate(spec["queries"]):
        if tracer is not None:
            tracer.query = f"{spec['pass']}:{i}"
        try:
            latency, rec = _answer_cli(cli, query)
        except (Exception, SystemExit):
            latency, rec = None, {"error": traceback.format_exc(limit=3).strip().splitlines()[-1]}
        rec["latency_s"] = latency
        records.append(rec)
    return records


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import simhom
    import simhom.cli  # noqa: F401  (import cost belongs to setup, not to the first query)

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(simhom.__file__).startswith(src + os.sep):
        raise SystemExit(f"simhom imported from {simhom.__file__}, not from {src}")
    os.chdir(spec["passdir"])
    tracer = restore = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    result = {
        "records": run_pass(spec, tracer),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        restore()
        result["layers"] = tracer.report()
        tracer.dump(spec["spans_out"])
    with open(spec["result_out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
