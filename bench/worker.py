"""Run one benchmark workload in this process and print its record as JSON.

Started by run.py, one process per workload, with PYTHONPATH pointing at the
checkout's ``src`` and BLAS threads capped. The last line of stdout is one
JSON object; run.py turns it into the benchmark result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only
"""

import time

T_START = time.perf_counter()  # set-up is timed from before the package import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HARD_LIMIT_S = 150.0  # start no new round past this, whatever --seconds says


def environment() -> dict:
    """numpy and BLAS versions, and the BLAS thread count in effect."""
    import ctypes

    import numpy as np

    env = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    # numpy wheels bundle OpenBLAS here; loading it again returns the same
    # library, so its thread count is the one numpy uses
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                env["blas_threads"] = int(fn())
                return env
    return env


def _same_output(a: list, b: list) -> bool:
    import numpy as np

    return len(a) == len(b) and all(
        x == y if isinstance(x, str) else np.array_equal(x, y) for x, y in zip(a, b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None,
                        help="write the spans of the median traced operation here")
    args = parser.parse_args(argv)

    import workloads  # imports squeezelax and numpy
    import spans
    import gates

    inputs = workloads.make_inputs(args.workload, args.seed)
    operation = workloads.operation(inputs)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reference = gates.load_reference()
    walls, traced = [], []  # traced: (layer metrics, spans) per operation
    attempted = failed = 0
    failures, counts, first_output = [], None, None

    def run_once(full: bool):
        nonlocal attempted, failed, first_output, counts
        recorder = spans.Recorder(full=full)
        t0 = time.perf_counter()
        try:
            result = recorder.run(operation)
        except Exception:  # an operation that raises is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            attempted += 1
            failed += 1
            failures.append("operation raised")
            return None
        wall = time.perf_counter() - t0
        trajectories = [s[spans.ATTR]["diagnostics"] for s in recorder.spans
                        if s[spans.NAME] == "lindblad.evolve"]
        outcome = workloads.check(inputs, result, trajectories, reference)
        # outputs and exact counts must not depend on tracing or repetition
        if first_output is None:
            first_output, counts = outcome.output, outcome.counts
        elif not _same_output(first_output, outcome.output) or counts != outcome.counts:
            outcome.gate(["output or counts differ from the first operation of this run"])
        attempted += outcome.attempted
        failed += outcome.failed
        failures.extend(outcome.failures)
        if full:
            traced.append((spans.layer_metrics(recorder.spans), recorder.spans))
        return wall

    # repeat while the next operation is expected to end within half an
    # operation of --seconds; the first one always runs
    start = time.perf_counter()
    while True:
        wall = run_once(full=bool(args.trace))
        if wall is not None:
            walls.append(wall)
        elapsed = time.perf_counter() - start
        per_op = elapsed / (len(walls) or 1)
        if elapsed + 0.5 * per_op > args.seconds or elapsed + per_op > HARD_LIMIT_S:
            break

    layers = {}
    if traced:
        # every figure comes from the operation with the median traced wall
        # time, so its module self times add up to its trace.wall_s
        layers, median_spans = sorted(traced, key=lambda t: t[0]["trace.wall_s"])[
            (len(traced) - 1) // 2]
        cost = layers["trace.spans"] * spans.span_cost_s()
        layers["trace.overhead_frac"] = cost / (layers["trace.wall_s"] - cost)
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(
                {"fields": ["name", "parent", "start_s", "end_s"],
                 "spans": [s[:4] for s in median_spans]}))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": {"thetas": list(inputs.thetas), "phi": inputs.phi},
        "setup_s": setup_s,
        "wall_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counts": counts,
        "layers": layers,
        "environment": environment(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
