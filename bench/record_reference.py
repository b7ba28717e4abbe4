"""Record the reference outputs that the dataset and steady-state gates compare against.

Runs the workload commands once over the whole angle pools, so every input
a seed can draw is covered, and writes bench/reference.json.gz. Run it only
on a commit whose outputs are known good; the committed file was recorded
from the seed commit of the benchmark.

    PYTHONPATH=src python3 bench/record_reference.py
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import gates  # noqa: E402
import workloads as wl  # noqa: E402
from squeezelax import lindblad  # noqa: E402
from squeezelax.moments import SqueezingParams, minimal_m  # noqa: E402
from squeezelax.spin_algebra import DickeSpace, build_collective_ops  # noqa: E402


def _dataset(texts: list[str]) -> dict:
    columns, rows = None, []
    for text in texts:
        columns, part = gates.parse_csv(text)
        rows += part
    return {"columns": columns, "rows": rows}


def main() -> int:
    thetas = ",".join(wl.THETA_POOL)
    spins = str(wl.MOMENT_SPINS)
    steady = []
    for n in wl.STEADY_SPINS:
        ops = build_collective_ops(DickeSpace(n))
        for m in (minimal_m(wl.STEADY_NBAR), wl.STEADY_M_MIXED):
            rho = lindblad.steady_state(
                lindblad.spin_liouvillian(ops, SqueezingParams(wl.STEADY_NBAR, m)))
            steady.append({"n": n, "m": m, "purity": float(np.trace(rho @ rho).real),
                           "mean_z": float(np.trace(ops.sz @ rho).real)})
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                         cwd=Path(__file__).resolve().parent).stdout.strip()
    reference = {
        "recorded_at_commit": sha or None,
        "fig3b": _dataset([wl._cli(["fig3b", "--theta", thetas])]),
        "fig4a": _dataset([wl._cli(["fig4a", "--spins", spins, "--theta", thetas])]),
        "fig4b": _dataset([wl._cli(["fig4b", "--spins", spins, "--theta", thetas,
                                    "--phi", repr(phi)]) for phi in wl.PHI_POOL]),
        "steady_state": steady,
    }
    text = json.dumps(reference, sort_keys=True, separators=(",", ":"))
    with gzip.GzipFile(gates.REFERENCE_PATH, "wb", mtime=0) as handle:
        handle.write(text.encode())
    print(f"wrote {gates.REFERENCE_PATH} ({gates.REFERENCE_PATH.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
