"""One benchmark op in a fresh interpreter.

    python3 child.py SRC RESULT_JSON OP_ID TRACE -- ionvq argv...

Imports ``ionvq.cli`` from SRC, timing the import separately (set-up), then
runs ``ionvq.cli.main(argv)`` and writes timings, exit code and peak RSS to
RESULT_JSON.  With TRACE=1 it installs the span wrappers of ``spans.py``
before ``main`` runs and adds the spans to the result.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    src, result_path, op_id, trace = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py SRC RESULT_JSON OP_ID TRACE -- argv...")
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ionvq.cli as cli

    t1 = time.perf_counter()
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer(int(op_id))
        spans.install(tracer)
    t2 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    t3 = time.perf_counter()
    result = {
        "setup_s": t1 - t0,
        "run_s": t3 - t2,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": cli.__file__,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # the result is written; interpreter teardown is neither set-up nor run
    os._exit(code)
