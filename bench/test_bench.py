"""Tests of the benchmark itself: repeatable counts, tracing that changes
nothing, gates that catch a wrong reference, and a contract that matches.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, full: bool):
    inputs = workloads.make_inputs(workload, seed)
    recorder = spans.Recorder(full=full)
    result = recorder.run(workloads.operation(inputs))
    trajectories = [s[spans.ATTR]["diagnostics"] for s in recorder.spans
                    if s[spans.NAME] == "lindblad.evolve"]
    outcome = workloads.check(inputs, result, trajectories, gates.load_reference())
    return outcome, spans.layer_metrics(recorder.spans)


@pytest.fixture(scope="module")
def ellipse_runs():
    return [_run("ensemble-ellipses", 0, full) for full in (False, True, False)]


def test_exact_counts_repeat(ellipse_runs):
    (first, _), (_, traced_layers), (third, _) = ellipse_runs
    assert first.counts == third.counts
    assert first.counts["trajectories"] == 108
    assert traced_layers["ode.rhs_evals"] == first.counts["rhs_evals"]
    assert traced_layers["ode.accepted_steps"] == first.counts["accepted"]
    assert traced_layers["lindblad.apply_calls"] == first.counts["rhs_evals"]


def test_traced_and_untraced_outputs_identical(ellipse_runs):
    (untraced, _), (traced, layers), _ = ellipse_runs
    assert untraced.output == traced.output
    assert untraced.failed == traced.failed == 0
    assert untraced.attempted == traced.attempted == 109


def test_moment_curve_counts_repeat_and_self_times_add_up():
    t0 = time.perf_counter()
    a, la = _run("moment-curves", 5, True)
    outer_s = time.perf_counter() - t0
    b, lb = _run("moment-curves", 5, True)
    assert a.output == b.output and a.failed == 0
    for key in ("spin_algebra.functional_calls", "moments.cov_rhs_calls",
                "figures.csv_bytes", "trace.spans"):
        assert la[key] == lb[key] > 0
    assert la["ode.rhs_evals"] == la["lindblad.apply_calls"] == 0
    self_total = sum(v for k, v in la.items() if k.startswith("self_s."))
    assert self_total == pytest.approx(la["trace.wall_s"], rel=1e-9)
    # the root span covers the operation: the clock outside it, which also
    # times input generation and the gates, sees at most a little more
    assert 0.8 * outer_s <= la["trace.wall_s"] <= outer_s


def test_recorder_restores_the_package():
    from squeezelax import cli, lindblad, ode

    before = (cli.main, lindblad.Liouvillian.apply, lindblad.integrate, ode.integrate)
    _run("moment-curves", 0, True)
    assert (cli.main, lindblad.Liouvillian.apply, lindblad.integrate, ode.integrate) == before


def test_corrupted_reference_fails_the_gate():
    reference = gates.load_reference()
    inputs = workloads.make_inputs("moment-curves", 0)
    text = workloads._cli(["fig4a", "--spins", "150", "--theta", ",".join(inputs.thetas)])

    def select(row):
        return round(row["theta"], 12) in workloads._theta_set(inputs)

    assert gates.dataset_failures("fig4a", text, reference, select) == []
    rows = reference["fig4a"]["rows"]
    col = reference["fig4a"]["columns"].index("rate_x")
    i = next(i for i, r in enumerate(rows) if select(dict(zip(reference["fig4a"]["columns"], r))))

    within = copy.deepcopy(reference)
    within["fig4a"]["rows"][i][col] *= 1 + 1e-12
    assert gates.dataset_failures("fig4a", text, within, select) == []

    corrupted = copy.deepcopy(reference)
    corrupted["fig4a"]["rows"][i][col] *= 1 + 1e-5
    failures = gates.dataset_failures("fig4a", text, corrupted, select)
    assert len(failures) == 1 and "rate_x" in failures[0]

    dropped = copy.deepcopy(reference)
    del dropped["fig4a"]["rows"][i]
    assert gates.dataset_failures("fig4a", text, dropped, select)


def test_corrupted_steady_state_reference_fails_the_gate():
    reference = gates.load_reference()
    inputs = workloads.make_inputs("steady-state-scan", 0)
    scan = workloads.operation(inputs)()
    good = workloads.check(inputs, scan, [], reference)
    assert good.failed == 0 and good.attempted == 6
    bad = copy.deepcopy(reference)
    bad["steady_state"][-1]["purity"] += 1e-6
    assert workloads.check(inputs, scan, [], bad).failed == 1


def test_trajectory_gate_thresholds():
    good = {"max_trace_drift": 1e-9, "max_hermiticity_residual": 0.0,
            "min_eigenvalue": -1e-8}
    assert gates.trajectory_failures(good) == []
    for key, value in (("max_trace_drift", 2e-8), ("max_hermiticity_residual", 2e-8),
                       ("min_eigenvalue", -2e-7), ("min_eigenvalue", float("nan"))):
        assert len(gates.trajectory_failures({**good, key: value})) == 1


def test_seed_zero_is_the_cli_default_and_sizes_never_change():
    assert workloads.make_inputs("ensemble-ellipses", 0) == workloads.Inputs(
        "ensemble-ellipses", ("0.55", "0.75", "0.87"), 0.0)
    for seed in range(1, 50):
        inputs = workloads.make_inputs("moment-curves", seed)
        assert inputs == workloads.make_inputs("moment-curves", seed)
        assert len(inputs.thetas) == 3
        assert set(inputs.thetas) <= set(workloads.THETA_POOL)
        for got, default in zip(inputs.thetas, workloads.THETA_DEFAULT):
            assert abs(float(got) - float(default)) <= 0.01 + 1e-12
        assert inputs.phi in workloads.PHI_POOL


def test_contract_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    _, layers = _run("moment-curves", 0, True)
    assert [m["name"] for m in spec["per_layer"]] == list(layers) + ["trace.overhead_frac"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "moment-curves",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
