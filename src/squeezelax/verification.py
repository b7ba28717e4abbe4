"""Oracle-versus-formula equivalence suites and invariant checks.

Each check returns a measured residual against a pinned tolerance; the
report is machine readable and drives the CLI ``verify`` exit status.
"""

from __future__ import annotations

import math

import numpy as np

from .lindblad import (annihilation_operator, evolve, oscillator_oracle,
                       spin_liouvillian, steady_state)
from .moments import (SqueezingParams, SpinMoments, collective_cov_rhs,
                      collective_mean_rhs, decay_rates, gardiner_rhs,
                      input_field_variances, rate_decomposition)
from .spin_algebra import (BlochAngles, DickeSpace, QuantumState,
                           build_collective_ops, expectation,
                           spin_coherent_state, sym_covariance)

__all__ = ["verify", "SCOPES"]

SCOPES = ("all", "spin-algebra", "moments", "lindblad")

THETA_REFERENCE = (0.55 * math.pi, 0.75 * math.pi, 0.87 * math.pi)


def _random_pure_state(rng, dim: int) -> QuantumState:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.from_vector(psi / np.linalg.norm(psi))


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _spin_algebra_checks(rng) -> list[dict]:
    checks = []

    residual = 0.0
    for n in range(1, 17):
        ops = build_collective_ops(DickeSpace(n))
        comm = ops.sm @ ops.sp - ops.sp @ ops.sm
        residual = max(residual, np.max(np.abs(comm + ops.sz)))
        residual = max(residual, np.max(np.abs(ops.sz @ ops.sp - ops.sp @ ops.sz - 2 * ops.sp)))
        residual = max(residual, np.max(np.abs(ops.sz @ ops.sm - ops.sm @ ops.sz + 2 * ops.sm)))
    checks.append(_check("spin-algebra/commutators", residual, 1e-12))

    n = 15
    space = DickeSpace(n)
    ops = build_collective_ops(space)
    residual = 0.0
    for _ in range(100):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        state = spin_coherent_state(space, BlochAngles(theta, phi))
        expected = (n * math.sin(theta) * math.cos(phi),
                    n * math.sin(theta) * math.sin(phi),
                    n * math.cos(theta))
        got = (expectation(ops.sx, state).real, expectation(ops.sy, state).real,
               expectation(ops.sz, state).real)
        residual = max(residual, max(abs(g - e) for g, e in zip(got, expected)))
    checks.append(_check("spin-algebra/coherent-expectations", residual, 1e-10 * n))

    residual = 0.0
    for _ in range(20):
        state = _random_pure_state(rng, space.dim)
        h = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        h = h + h.conj().T
        residual = max(residual, -sym_covariance(h, h, state))
    checks.append(_check("spin-algebra/variance-nonnegative", residual, 1e-10))

    return checks


def _moments_checks(rng) -> list[dict]:
    checks = []
    params = SqueezingParams.minimal(0.4)

    space = DickeSpace(1)
    ops = build_collective_ops(space)
    residual = 0.0
    for _ in range(50):
        v = rng.normal(size=3)
        v = 0.95 * v / max(1.0, np.linalg.norm(v))
        rho = 0.5 * (np.eye(2, dtype=complex) + v[0] * ops.sx + v[1] * ops.sy + v[2] * ops.sz)
        state = QuantumState.from_matrix(rho)
        ref = gardiner_rhs(SpinMoments(*v), params)
        got = collective_mean_rhs(state, ops, params)
        residual = max(residual, abs(got[0] - ref.mean_x), abs(got[1] - ref.mean_y),
                       abs(got[2] - ref.mean_z))
    checks.append(_check("moments/gardiner-equivalence", residual, 1e-12 * params.gamma_p))

    params = SqueezingParams.minimal(0.05)
    residual = 0.0
    for n in range(1, 21):
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        for theta in THETA_REFERENCE:
            state = spin_coherent_state(space, BlochAngles(theta, 0.3))
            dx, dy, _ = collective_mean_rhs(state, ops, params)
            mx = expectation(ops.sx, state).real
            my = expectation(ops.sy, state).real
            gx, gy = decay_rates(n, theta, params)
            residual = max(residual, abs(-dx / mx / gx - 1.0), abs(-dy / my / gy - 1.0))
    checks.append(_check("moments/decay-rates-vs-mean-rhs", residual, 1e-9))

    residual = 0.0
    for n in (1, 5, 20):
        for theta in THETA_REFERENCE:
            for comp in ("x", "y"):
                dec = rate_decomposition(n, theta, params, comp)
                rate = decay_rates(n, theta, params)[0 if comp == "x" else 1]
                residual = max(residual, abs(dec.total - rate),
                               abs(dec.ff_part + dec.sr_part - dec.total))
    checks.append(_check("moments/rate-decomposition-total", residual, 1e-12))

    residual = 0.0
    for n in (1, 3, 10):
        for theta in THETA_REFERENCE:
            gx, gy = decay_rates(n, theta, params)
            residual = max(residual, abs(gx - gy - 2 * params.gamma_p * params.m_corr))
    checks.append(_check("moments/rate-difference-2M", residual, 1e-12))

    vx, vy = input_field_variances(SqueezingParams.minimal(1.0))
    checks.append(_check("moments/minimal-uncertainty-product", abs(vx * vy - 1.0), 1e-12))

    return checks


def _lindblad_checks(rng) -> list[dict]:
    checks = []
    params = SqueezingParams.minimal(0.4)

    mean_res = cov_res = 0.0
    for n in range(1, 11):
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        liouv = spin_liouvillian(ops, params)
        for _ in range(20):
            state = _random_pure_state(rng, space.dim)
            rho = state.density()
            ldot = liouv.apply(rho)
            got = collective_mean_rhs(state, ops, params)
            for op, val in zip((ops.sx, ops.sy, ops.sz), got):
                mean_res = max(mean_res, abs(np.trace(op @ ldot).real - val))
            # product rule on the symmetrized second moments
            means = [np.trace(op @ rho).real for op in (ops.sx, ops.sy)]
            dmeans = [np.trace(op @ ldot).real for op in (ops.sx, ops.sy)]
            sxy = 0.5 * (ops.sx @ ops.sy + ops.sy @ ops.sx)
            oracle = (
                np.trace(ops.sx @ ops.sx @ ldot).real - 2 * means[0] * dmeans[0],
                np.trace(ops.sy @ ops.sy @ ldot).real - 2 * means[1] * dmeans[1],
                np.trace(sxy @ ldot).real - means[0] * dmeans[1] - means[1] * dmeans[0],
            )
            got_cov = collective_cov_rhs(state, ops, params)
            cov_res = max(cov_res, max(abs(a - b) for a, b in zip(oracle, got_cov)))
    checks.append(_check("lindblad/mean-rhs-equivalence", mean_res, 1e-9))
    checks.append(_check("lindblad/cov-rhs-equivalence", cov_res, 1e-9))

    # trajectory sanity on a mid-size ensemble
    space = DickeSpace(6)
    ops = build_collective_ops(space)
    liouv = spin_liouvillian(ops, SqueezingParams.minimal(0.5))
    state = spin_coherent_state(space, BlochAngles(0.75 * math.pi, 0.3))
    traj = evolve(liouv, state, 2.0, record_every=20)
    diag = traj.diagnostics
    checks.append(_check("lindblad/trace-preservation", diag["max_trace_drift"], 1e-8))
    checks.append(_check("lindblad/hermiticity", diag["max_hermiticity_residual"], 1e-8))
    checks.append(_check("lindblad/positivity", max(0.0, -diag["min_eigenvalue"]), 1e-7))

    # single-spin steady state
    residual = 0.0
    for nbar in (0.0, 0.5, 5.0):
        p1 = SqueezingParams.minimal(nbar)
        ops1 = build_collective_ops(DickeSpace(1))
        rho_ss = steady_state(spin_liouvillian(ops1, p1))
        residual = max(residual, abs(np.trace(ops1.sz @ rho_ss).real + 1.0 / (2 * nbar + 1)))
    checks.append(_check("lindblad/single-spin-steady-state", residual, 1e-9))

    # oscillator quadratures equilibrate with the squeezed input
    posc = SqueezingParams.minimal(0.5)
    traj = oscillator_oracle(posc, 20.0, record_every=10 ** 9)
    a = annihilation_operator(traj.states.shape[1])
    x = a + a.conj().T
    y = 1j * (a.conj().T - a)
    vx = traj.sym_covariances(x, x)[-1]
    vy = traj.sym_covariances(y, y)[-1]
    vx_in, vy_in = input_field_variances(posc)
    checks.append(_check("lindblad/oscillator-equilibrium",
                         max(abs(vx - vx_in), abs(vy - vy_in)), 1e-6))

    return checks


def verify(scope: str = "all", seed: int = 0) -> dict:
    """Run the requested check suites; returns a machine-readable report."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    rng = np.random.default_rng(seed)
    checks = []
    if scope in ("all", "spin-algebra"):
        checks += _spin_algebra_checks(rng)
    if scope in ("all", "moments"):
        checks += _moments_checks(rng)
    if scope in ("all", "lindblad"):
        checks += _lindblad_checks(rng)
    report = {
        "scope": scope,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    for check in checks:
        if check["name"] == "lindblad/positivity":
            report["max_positivity_violation"] = check["residual"]
    return report
