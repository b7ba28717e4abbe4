"""Run the benchmark over several seeds and report the spread of each end-to-end metric.

For every workload and end-to-end metric in BENCHMARK.json this prints the
median of the per-run values and the distance between their first and third
quartiles as a share of that median, next to the metric's bound. The runs
are sequential, untraced and use the benchmark's own run_seconds.

    python3 bench/stability.py --seeds 1-10 [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    names = [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "seeds": [first, last], "workloads": {}}
    ok = True
    for workload in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(first, last + 1):
            t0 = time.monotonic()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
                  + f" ({time.monotonic() - t0:.1f} s)", flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            rows[m["name"]] = {"median": statistics.median(vals), "spread": spread(vals),
                               "bound": m["bound"], "values": vals}
            print(f"  {workload} {m['name']}: median {statistics.median(vals):.5g} "
                  f"{m['unit']}, spread {spread(vals):.4f} (bound {m['bound']})", flush=True)
        summary["workloads"][workload] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
