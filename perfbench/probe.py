"""Child processes of the benchmark, each run in a fresh interpreter.

    probe.py setup <workload> <seed>
        Import hermlab.cli and generate the workload's inputs, then print the
        ``perf_counter`` reading at that moment and ``hermlab.__file__``.  The
        parent subtracts its own reading taken just before the spawn (both
        read the system-wide monotonic clock) to get one ``setup_s`` sample.

    probe.py traced-cli <spans.json> <hermlab argv...>
        Run ``hermlab.cli.main(argv)`` like ``python -m hermlab.cli`` does,
        with the span recorder installed, and write the spans to a file.

The parent puts the checkout's ``src`` on PYTHONPATH and pins
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS in the environment.
"""

import json
import sys
from time import perf_counter


def setup(workload, seed):
    import hermlab.cli  # noqa: F401  (the import is what is being timed)
    import generators as g

    seed = int(seed)
    for doc in g.documents(workload, seed).values():
        json.dumps(doc, sort_keys=True)
    if workload == "descent":
        for rung, seeds in g.descent_starts(seed, 0).items():
            for s in seeds:
                g.chart_start(g.DESCENT_N[rung], s)
    ready = perf_counter()
    print(json.dumps({"ready": ready, "hermlab": hermlab.__file__}))


def traced_cli(spans_path, argv):
    from hermlab import cli

    from tracing import SpanRecorder

    rec = SpanRecorder()
    rec.install()
    try:
        code = cli.main(argv)
    finally:
        rec.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "traced-cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown probe {sys.argv[1]!r}")
