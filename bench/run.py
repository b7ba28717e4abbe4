"""squeezelax benchmark: time-to-result, set-up and memory, with a traced breakdown.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N            # every workload, one after another

Each workload runs in its own worker process (worker.py) against the
package under ``src/`` of this checkout. With ``--trace 0`` the result
carries the end-to-end metrics; with ``--trace 1`` the per-layer metrics of
a traced run (see BENCHMARK.json and README.md). Every run also writes a
record to ``bench/out/BENCH_<workload>_seed<N>_trace<T>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when that line
was printed, whether or not the outputs were correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 16       # extra fresh-interpreter set-ups, half before and half after
                        # the measuring worker, which adds one more
RUN_LIMIT_S = 170.0     # a run must finish well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Environment for the workers: this checkout's package, BLAS threads <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cap = nproc()
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, cap)), cap)))
        except ValueError:
            env[var] = str(cap)
    return env


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "squeezelax").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def call_worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 env: dict, deadline: float, units: dict) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]

    def probe_setups(count: int) -> list[float]:
        return [call_worker(base + ["--setup-only"], env, deadline)["setup_s"]
                for _ in range(count)]

    setups = probe_setups(SETUP_PROBES // 2)
    OUT_DIR.mkdir(exist_ok=True)
    extra = ["--seconds", str(seconds), "--trace", str(trace)]
    spans_path = OUT_DIR / f"spans_{workload}_seed{seed}.json"
    if trace:
        extra += ["--spans-out", str(spans_path)]
    rec = call_worker(base + extra, env, deadline)
    setups += [rec["setup_s"]] + probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
    if not rec["wall_s"]:
        raise BenchError(f"{workload}: no operation completed")

    if trace:
        values = rec["layers"]
    else:
        values = {"wall_s": statistics.median(rec["wall_s"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": rec["peak_rss_mb"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    rec["setup_samples_s"] = setups
    rec["metrics"] = metrics
    return rec


def print_run(rec: dict):
    w = rec["workload"]
    print(f"[{w}] seed {rec['seed']}, inputs {rec['inputs']}")
    walls = rec["wall_s"]
    print(f"[{w}] wall_s samples: {len(walls)} ({', '.join(f'{x:.4f}' for x in walls)})")
    for name, m in rec["metrics"].items():
        print(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
    print(f"[{w}] failed_frac = {frac:.6g} ({rec['failed']} of {rec['attempted']} "
          f"checked parts)")
    for msg in rec["failures"]:
        print(f"[{w}] FAILED: {msg}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "squeezelax" / "__init__.py").is_file():
        print(f"error: no squeezelax package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = worker_env()
    names = [args.workload] if args.workload else workloads
    environment = {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": nproc(),
        "blas_thread_cap": {var: env[var] for var in THREAD_VARS},
    }
    runs = []
    try:
        for name in names:
            if not args.workload:
                deadline = time.monotonic() + RUN_LIMIT_S
            runs.append(run_workload(name, args.seed, args.seconds, args.trace,
                                     env, deadline, units))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for rec in runs:
        environment.update(rec.pop("environment", {}))
    for rec in runs:
        print_run(rec)
    print("environment: " + json.dumps(environment, sort_keys=True))

    label = args.workload or "all"
    record = {"label": label, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment, "runs": runs}
    (OUT_DIR / f"BENCH_{label}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    if args.workload:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{rec['workload']}/{name}": m
                   for rec in runs for name, m in rec["metrics"].items()}
    attempted = sum(rec["attempted"] for rec in runs)
    failed = sum(rec["failed"] for rec in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
