"""The four benchmark workloads: inputs from a seed, one operation, its gates.

Every operation goes through public squeezelax calls only: ``cli.main`` for
the figure commands, ``lindblad.oscillator_oracle`` and
``lindblad.steady_state`` for the oracle workloads. See README.md for why
each workload exists.

The seed perturbs the polar-angle list (and, for fig4b, the azimuth) by
drawing from small fixed sets, so workload sizes never change and every input a
seed can produce has a recorded reference output. Seed 0 gives the CLI
defaults.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field

import numpy as np

# calls go through module attributes so that the span wrappers see them
from squeezelax import cli, lindblad, spin_algebra
from squeezelax.moments import SqueezingParams, input_field_variances, minimal_m
from squeezelax.spin_algebra import DickeSpace

import gates

WORKLOADS = ("ensemble-ellipses", "oscillator-relaxation", "steady-state-scan",
             "moment-curves")

# polar angles in units of pi, as the CLI takes them: the CLI defaults of
# fig3b, fig4a and fig4b. A seed moves each by at most 0.01 pi, which keeps
# the RK45 work of fig3b within about 1 % of seed 0; the work grows by a
# third from 0.55 to 0.87, so wider draws would make the work depend on the
# seed.
THETA_DEFAULT = ("0.55", "0.75", "0.87")
THETA_JITTER = (-0.01, 0.0, 0.01)
THETA_POOL = tuple(f"{float(t) + d:.2f}" for t in THETA_DEFAULT for d in THETA_JITTER)
PHI_POOL = (0.0, 0.25 * math.pi, 0.5 * math.pi)

MOMENT_SPINS = 150
OSC_PARAMS = (1.0, math.sqrt(2.0))  # nbar, M: minimum-uncertainty bath
OSC_T_FINAL = 20.0
STEADY_NBAR = 0.5
STEADY_SPINS = (10, 20, 40)
STEADY_M_MIXED = 0.2


@dataclass
class Inputs:
    workload: str
    thetas: tuple[str, ...] = THETA_DEFAULT
    phi: float = 0.0


@dataclass
class Outcome:
    """What one operation produced and how many of its parts failed a gate."""

    output: list = field(default_factory=list)   # compared between runs
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    def gate(self, failures: list[str]):
        """Count one checked part, failed if the gate reported anything."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += failures


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed == 0:
        return Inputs(workload)
    rng = random.Random(seed)
    thetas = tuple(f"{float(t) + rng.choice(THETA_JITTER):.2f}" for t in THETA_DEFAULT)
    return Inputs(workload, thetas, rng.choice(PHI_POOL))


def _cli(argv: list[str]) -> str:
    """Run one CLI command, returning what it wrote to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"squeezelax {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def operation(inputs: Inputs):
    """A zero-argument callable that performs the workload once.

    Its return value is everything the gates need; only the call itself is
    timed.
    """
    thetas = ",".join(inputs.thetas)
    if inputs.workload == "ensemble-ellipses":
        return lambda: [_cli(["fig3b", "--theta", thetas])]
    if inputs.workload == "moment-curves":
        spins = str(MOMENT_SPINS)
        return lambda: [
            _cli(["fig4b", "--spins", spins, "--theta", thetas, "--phi", repr(inputs.phi)]),
            _cli(["fig4a", "--spins", spins, "--theta", thetas]),
        ]
    if inputs.workload == "oscillator-relaxation":
        params = SqueezingParams(*OSC_PARAMS)
        return lambda: lindblad.oscillator_oracle(params, OSC_T_FINAL)

    def scan():
        states = []
        for n in STEADY_SPINS:
            ops = spin_algebra.build_collective_ops(DickeSpace(n))
            for m in (minimal_m(STEADY_NBAR), STEADY_M_MIXED):
                liouv = lindblad.spin_liouvillian(ops, SqueezingParams(STEADY_NBAR, m))
                states.append((n, m, liouv, lindblad.steady_state(liouv)))
        return states

    return scan


def _theta_set(inputs: Inputs) -> set[float]:
    return {round(float(t) * math.pi, 12) for t in inputs.thetas}


def check(inputs: Inputs, result, trajectories: list[dict], reference: dict) -> Outcome:
    """Gate one operation's result; each trajectory, state and dataset is one part."""
    out = Outcome()
    for diag in trajectories:
        out.gate(gates.trajectory_failures(diag))
    out.counts = {key: sum(d[key] for d in trajectories)
                  for key in ("rhs_evals", "accepted", "rejected")}
    out.counts["trajectories"] = len(trajectories)

    thetas = _theta_set(inputs)
    w = inputs.workload
    if w == "ensemble-ellipses":
        (text,) = result
        out.gate(gates.dataset_failures(
            "fig3b", text, reference,
            lambda r: r["system"] == "oscillator" or round(r["theta"], 12) in thetas))
        out.output = result
    elif w == "moment-curves":
        text4b, text4a = result
        phi = round(inputs.phi, 12)
        out.gate(gates.dataset_failures(
            "fig4b", text4b, reference,
            lambda r: round(r["theta"], 12) in thetas and round(r["phi"], 12) == phi))
        out.gate(gates.dataset_failures(
            "fig4a", text4a, reference, lambda r: round(r["theta"], 12) in thetas))
        out.output = result
    elif w == "oscillator-relaxation":
        traj = result
        out.gate(gates.oscillator_failures(
            traj.final_state, input_field_variances(SqueezingParams(*OSC_PARAMS))))
        out.counts["cutoff"] = traj.diagnostics["cutoff"]
        out.output = [traj.final_state]
    else:
        refs = {(r["n"], round(r["m"], 12)): r for r in reference["steady_state"]}
        for n, m, liouv, rho in result:
            residual = float(np.max(np.abs(liouv.apply(rho))))
            expect_pure = m == minimal_m(STEADY_NBAR) and n % 2 == 0
            sz = spin_algebra.build_collective_ops(DickeSpace(n)).sz
            out.gate([f"n={n} M={m:.4g}: {msg}" for msg in gates.steady_state_failures(
                rho, residual, expect_pure, refs[(n, round(m, 12))], sz)])
            out.output.append(rho)
    return out
