"""Oracle-versus-formula and invariant checks, written once in one table.

``CHECKS`` is an ordered table of rows ``Check(name, tolerance, measure)``.
A name reads ``scope/slug``; ``measure(rng)`` returns the measured residual,
or a mapping from check name to residual when several rows share one
computation (the three trajectory witnesses). ``verify`` runs the rows of
one scope and builds the machine-readable report that drives the CLI
``verify`` exit status; ``tests/test_acceptance.py`` runs every row as its
own test. Each measurement draws from its own random stream, seeded by the
run seed and the measurement's name, so a row measures the same residual
whichever part of the table runs. Nothing is built at import time.

Claims whose oracle run is too slow for ``verify`` (the nbar=1 oscillator
equilibrium, the large-n steady states) stay in the acceptance tests.
"""

from __future__ import annotations

import functools
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lindblad import (annihilation_operator, evolve, oscillator_liouvillian,
                       oscillator_oracle, spin_liouvillian, steady_state)
from .moments import (SqueezingParams, SpinMoments, collective_cov_rhs,
                      collective_mean_rhs, decay_rates, gardiner_rhs, gardiner_solution,
                      input_field_variances, rate_decomposition, spin_moments_from_state)
from .spin_algebra import (BlochAngles, DickeSpace, QuantumState,
                           build_collective_ops, expectation, product_expectation,
                           spin_coherent_state, sym_covariance, third_moment)

__all__ = ["Check", "CHECKS", "SCOPES", "run_check", "verify", "random_pure",
           "fit_decay_rate", "dark_state"]

THETA_REFERENCE = (0.55 * math.pi, 0.75 * math.pi, 0.87 * math.pi)


def random_pure(rng, dim: int) -> QuantumState:
    """Random pure state: a normalized complex Gaussian vector."""
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.from_vector(psi / np.linalg.norm(psi))


def fit_decay_rate(times, values) -> float:
    """Exponential decay rate of an oracle trajectory.

    Weighted log-linear fit; the weights ~ value^2 favour early times.
    """
    vals = np.abs(np.asarray(values))
    return -np.polyfit(times, np.log(vals), 1, w=vals ** 2)[0]


def _dark_amplitudes(s: np.ndarray, nbar: float) -> np.ndarray:
    """The normalized psi with c|psi> = 0, c = sqrt(nbar + 1) d - sqrt(nbar) d+, in O(len(s)).

    d lowers level k to k - 1 with the real amplitude s[k] (s[0] is not
    read). Row j of c|psi> = 0 reads
    sqrt(nbar + 1) s_{j+1} psi_{j+1} = sqrt(nbar) s_j psi_{j-1}, so from
    psi_0 = 1 the even levels follow by one running product and the odd
    levels stay empty.
    """
    amps = np.zeros(len(s))
    amps[0] = 1.0
    amps[2::2] = np.cumprod(math.sqrt(nbar / (nbar + 1.0)) * s[1:-1:2] / s[2::2])
    return amps / np.linalg.norm(amps)


def dark_state(n: int, nbar: float) -> np.ndarray:
    """Pure steady state of n spins (n even) in the minimum-uncertainty bath.

    With M = sqrt(nbar (nbar + 1)) the generator has the single jump
    operator c = sqrt(nbar + 1) S- - sqrt(nbar) S+, and the steady state is
    the dark state c|psi> = 0 (Agarwal & Puri, PRA 41, 3782 (1990)): the
    recursion of ``_dark_amplitudes`` on the Dicke ladder
    s_k = sqrt(k (n - k + 1)), which ends consistently (c's top row,
    s_n psi_{n-1} = 0) only for even n.
    """
    if n < 2 or n % 2:
        raise ValueError(f"the dark state needs an even spin count >= 2, got {n}")
    k = np.arange(n + 1, dtype=float)
    return _dark_amplitudes(np.sqrt(k * (n - k + 1)), nbar)


def _d_cov(a: np.ndarray, b: np.ndarray, rho: np.ndarray, drho: np.ndarray) -> float:
    """d/dt of the symmetrized covariance of a and b, by the product rule."""
    ma, mb = np.trace(a @ rho).real, np.trace(b @ rho).real
    return (np.trace(0.5 * (a @ b + b @ a) @ drho).real
            - ma * np.trace(b @ drho).real - mb * np.trace(a @ drho).real)


def _commutators(rng) -> float:
    residual = 0.0
    for n in range(1, 65):
        ops = build_collective_ops(DickeSpace(n))
        residual = max(residual,
                       np.max(np.abs(ops.sm @ ops.sp - ops.sp @ ops.sm + ops.sz)),
                       np.max(np.abs(ops.sz @ ops.sp - ops.sp @ ops.sz - 2 * ops.sp)),
                       np.max(np.abs(ops.sz @ ops.sm - ops.sm @ ops.sz + 2 * ops.sm)))
    return residual


def _coherent_expectations(rng) -> float:
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
        for op, value in zip((ops.sx, ops.sy, ops.sz), expected):
            residual = max(residual, abs(expectation(op, state).real - value))
    return residual


def _variance_nonnegative(rng) -> float:
    dim = 16
    residual = 0.0
    for _ in range(20):
        state = random_pure(rng, dim)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        residual = max(residual, -sym_covariance(h, h, state))
    return residual


def _dense_cases(rng):
    """(ops, state, tr, cov, third) for a random pure and a rank-3 mixed state at n = 1, 2, 7, 16.

    tr(a, b, ...) is tr(a @ b @ ... @ rho); cov and third are the
    symmetrized covariance and third moment written out in such traces.
    """
    for n in (1, 2, 7, 16):
        ops = build_collective_ops(DickeSpace(n))
        g = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
        mixed = QuantumState.from_matrix(g @ g.conj().T / np.linalg.norm(g) ** 2)
        for state in (random_pure(rng, n + 1), mixed):
            rho = state.density()

            def tr(*factors, rho=rho):
                return np.trace(functools.reduce(np.matmul, factors + (rho,)))

            def cov(a, b, tr=tr):
                return (0.5 * tr(a @ b + b @ a) - tr(a) * tr(b)).real

            def third(a, b, c, tr=tr):
                return (0.5 * (tr(a @ b @ c + c @ b @ a) - tr(a) * tr(b @ c + c @ b))).real

            yield ops, state, tr, cov, third


def _functionals_vs_products(rng) -> float:
    """Moment functionals against traces of dense products, relative to max(1, |trace|).

    Random pure and rank-3 mixed states; the chains include the
    non-Hermitian S- and S+ products of the collective mean equations.
    """
    residual = 0.0
    for ops, state, tr, cov, third in _dense_cases(rng):
        sm, sp, sx, sy, sz = ops.sm, ops.sp, ops.sx, ops.sy, ops.sz
        pairs = [(product_expectation(chain, state), tr(*chain)) for chain in (
            (sm, sz), (sz, sp), (sm, sp), (sp, sm, sz), (sx, sy, sz), (sm, sz, sp, sx))]
        pairs += [(expectation(a, state), tr(a)) for a in (sx, sy, sz, sm)]
        pairs += [(sym_covariance(a, b, state), cov(a, b))
                  for a, b in ((sx, sx), (sy, sy), (sx, sy), (sy, sz))]
        pairs += [(third_moment(a, b, c, state), third(a, b, c))
                  for a, b, c in ((sx, sx, sz), (sy, sy, sz), (sx, sy, sz), (sy, sx, sz))]
        residual = max(residual, *(abs(got - ref) / max(1.0, abs(ref)) for got, ref in pairs))
    return residual


def _collective_functionals_vs_products(rng) -> float:
    """The collective moment functions against traces of dense products, relative to max(1, |ref|).

    Every output of ``collective_cov_rhs``, ``collective_mean_rhs`` (a mixed
    and a minimal bath each) and ``spin_moments_from_state`` on random pure
    and rank-3 mixed states, against the same expressions with each moment
    a trace tr(a @ b @ rho) and the symmetrized moments written out.
    """
    residual = 0.0
    for ops, state, tr, cov, third in _dense_cases(rng):
        sm, sp, sx, sy, sz = ops.sm, ops.sp, ops.sx, ops.sy, ops.sz
        mx, my, mz = (tr(a).real for a in (sx, sy, sz))
        vx, vy, cxy, sz2 = cov(sx, sx), cov(sy, sy), cov(sx, sy), tr(sz, sz).real
        m = spin_moments_from_state(state, ops)
        pairs = list(zip((m.mean_x, m.mean_y, m.mean_z, m.var_x, m.var_y, m.cov_xy),
                         (mx, my, mz, vx, vy, cxy)))
        for p in (SqueezingParams(0.5, 0.2), SqueezingParams.minimal(0.4, gamma_p=1.3)):
            gp, nb, mc = p.gamma_p, p.nbar, p.m_corr
            sm_sz = tr(sm, sz)
            pairs += zip(collective_mean_rhs(state, ops, p), (
                gp * sm_sz.real - gp * (nb + mc + 1) * mx,
                -gp * sm_sz.imag - gp * (nb - mc + 1) * my,
                -2 * gp * tr(sm, sp).real - 2 * gp * (nb + 1) * mz))
            pairs += zip(collective_cov_rhs(state, ops, p), (
                -gp * ((2 * nb + 2 * mc + 1) * (vx - sz2) + mz - third(sx, sx, sz)),
                -gp * ((2 * nb - 2 * mc + 1) * (vy - sz2) + mz - third(sy, sy, sz)),
                -gp * ((2 * nb + 1) * cxy - 0.5 * (third(sx, sy, sz) + third(sy, sx, sz)))))
        residual = max(residual, *(abs(got - ref) / max(1.0, abs(ref)) for got, ref in pairs))
    return residual


def _gardiner_equivalence(rng) -> float:
    ops = build_collective_ops(DickeSpace(1))
    residual = 0.0
    for params in (SqueezingParams.minimal(0.4), SqueezingParams.minimal(0.4, gamma_p=1.3)):
        for _ in range(50):
            v = rng.normal(size=3)
            v = 0.95 * v / max(1.0, np.linalg.norm(v))
            rho = 0.5 * (np.eye(2, dtype=complex)
                         + v[0] * ops.sx + v[1] * ops.sy + v[2] * ops.sz)
            ref = gardiner_rhs(SpinMoments(*v), params)
            got = collective_mean_rhs(QuantumState.from_matrix(rho), ops, params)
            residual = max(residual, abs(got[0] - ref.mean_x), abs(got[1] - ref.mean_y),
                           abs(got[2] - ref.mean_z))
    return residual


def _decay_rates_vs_mean_rhs(rng) -> float:
    """Angle-dependent rates against -d<S>/dt / <S> from the moment RHS and the generator."""
    params = SqueezingParams.minimal(0.05)
    residual = 0.0
    for n in range(1, 21):
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        liouv = spin_liouvillian(ops, params)
        for theta in THETA_REFERENCE:
            state = spin_coherent_state(space, BlochAngles(theta, 0.3))
            drho = liouv.apply(state.density())
            from_rhs = collective_mean_rhs(state, ops, params)
            for op, d_rhs, rate in zip((ops.sx, ops.sy), from_rhs, decay_rates(n, theta, params)):
                mean = expectation(op, state).real
                d_generator = np.trace(op @ drho).real
                residual = max(residual, abs(-d_rhs / mean / rate - 1.0),
                               abs(-d_generator / mean / rate - 1.0))
    return residual


def _rate_decomposition_total(rng) -> float:
    params = SqueezingParams.minimal(0.05)
    residual = 0.0
    for n in (1, 5, 20):
        for theta in THETA_REFERENCE:
            for comp, rate in zip(("x", "y"), decay_rates(n, theta, params)):
                dec = rate_decomposition(n, theta, params, comp)
                residual = max(residual, abs(dec.total - rate),
                               abs(dec.ff_part + dec.sr_part - dec.total))
    return residual


def _rate_difference_2m(rng) -> float:
    residual = 0.0
    for params, spins, thetas in (
            (SqueezingParams.minimal(0.05), (1, 3, 10), THETA_REFERENCE),
            (SqueezingParams.minimal(0.4, gamma_p=2.0), (1, 7, 30), (0.6, 2.0, 3.1))):
        for n in spins:
            for theta in thetas:
                gx, gy = decay_rates(n, theta, params)
                residual = max(residual, abs(gx - gy - 2 * params.gamma_p * params.m_corr))
    return residual


def _minimal_uncertainty_product(rng) -> float:
    vx, vy = input_field_variances(SqueezingParams.minimal(1.0))
    return abs(vx * vy - 1.0)


def _mean_rhs_equivalence(rng) -> float:
    params = SqueezingParams.minimal(0.4)
    residual = 0.0
    for n in range(1, 11):
        ops = build_collective_ops(DickeSpace(n))
        liouv = spin_liouvillian(ops, params)
        for _ in range(20):
            state = random_pure(rng, n + 1)
            drho = liouv.apply(state.density())
            got = collective_mean_rhs(state, ops, params)
            for op, value in zip((ops.sx, ops.sy, ops.sz), got):
                residual = max(residual, abs(np.trace(op @ drho).real - value))
    return residual


def _cov_rhs_equivalence(rng) -> float:
    residual = 0.0
    for params in (SqueezingParams.minimal(0.4), SqueezingParams.minimal(0.05)):
        for n in range(1, 11):
            ops = build_collective_ops(DickeSpace(n))
            liouv = spin_liouvillian(ops, params)
            pairs = ((ops.sx, ops.sx), (ops.sy, ops.sy), (ops.sx, ops.sy))
            for _ in range(20):
                state = random_pure(rng, n + 1)
                rho = state.density()
                drho = liouv.apply(rho)
                got = collective_cov_rhs(state, ops, params)
                residual = max(residual, *(abs(g - _d_cov(a, b, rho, drho))
                                           for g, (a, b) in zip(got, pairs)))
    return residual


def _cov_rhs_finite_difference(rng) -> float:
    """Exact covariances differenced over dt against the covariance RHS at mid-step."""
    params = SqueezingParams.minimal(0.05)
    dt = 1e-5
    starts = [(n, spin_coherent_state(DickeSpace(n), BlochAngles(0.75 * math.pi, 0.4)))
              for n in (4, 8)]
    starts += [(n, random_pure(rng, n + 1)) for n in (3, 10)]
    residual = 0.0
    for n, state in starts:
        ops = build_collective_ops(DickeSpace(n))
        liouv = spin_liouvillian(ops, params)
        full, half = (evolve(liouv, state, t, rtol=1e-12, atol=1e-14) for t in (dt, 0.5 * dt))
        rhs_mid = collective_cov_rhs(QuantumState.from_matrix(half.final_state), ops, params)
        for (a, b), d_mid in zip(((ops.sx, ops.sx), (ops.sy, ops.sy), (ops.sx, ops.sy)),
                                 rhs_mid):
            cov = full.sym_covariances(a, b)
            residual = max(residual, abs((cov[-1] - cov[0]) / dt - d_mid))
    return residual


def _trajectory_witnesses(rng) -> dict[str, float]:
    """Trace, hermiticity and eigenvalue witnesses over spin and oscillator runs, on grids."""
    params = SqueezingParams.minimal(0.5)
    runs = ((6, 0.3, 2.0, 21), (1, 0.6, 3.0, 301), (4, 0.6, 3.0, 301), (8, 0.6, 3.0, 301))
    diags = []
    for n, phi, t_final, points in runs:
        space = DickeSpace(n)
        state = spin_coherent_state(space, BlochAngles(0.75 * math.pi, phi))
        liouv = spin_liouvillian(build_collective_ops(space), params)
        diags.append(evolve(liouv, state, np.linspace(0.0, t_final, points)).diagnostics)
    diags.append(oscillator_oracle(params, np.linspace(0.0, 5.0, 51)).diagnostics)
    return {
        "lindblad/trace-preservation": max(d["max_trace_drift"] for d in diags),
        "lindblad/hermiticity": max(d["max_hermiticity_residual"] for d in diags),
        "lindblad/positivity": max(0.0, -min(d["min_eigenvalue"] for d in diags)),
    }


def _azimuthal_symmetry(rng) -> float:
    """rho(phi + pi) = P rho(phi) P, rho(-phi) = conj rho(phi), rho(pi - phi) = P conj rho(phi) P.

    P = diag((-1)^k). A rotation by pi about z maps S- to -S-, which leaves
    every dissipator term as it was, and every coefficient of the generator
    is real (M is real), so the evolution commutes with complex conjugation;
    fig3b's fold relies on both. Coherent states at the four azimuths,
    evolved as one batch for t = 0.05 at n = 5 and 15, in the minimal bath
    (nbar = 5) and a mixed one (nbar = 0.5, M = 0.2); the residual is the
    largest entry of the three differences.
    """
    residual = 0.0
    for n in (5, 15):
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        parity = (-1.0) ** np.arange(space.dim)
        flip = np.outer(parity, parity)
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2 * math.pi)
        starts = np.stack([spin_coherent_state(space, BlochAngles(theta, a)).density()
                           for a in (phi, phi + math.pi, -phi, math.pi - phi)])
        for params in (SqueezingParams.minimal(5.0), SqueezingParams(0.5, 0.2)):
            rho, shifted, mirrored, both = evolve(spin_liouvillian(ops, params), starts,
                                                  0.05).final_state
            residual = max(residual, float(np.max(np.abs(shifted - flip * rho))),
                           float(np.max(np.abs(mirrored - rho.conj()))),
                           float(np.max(np.abs(both - flip * rho.conj()))))
    return residual


def _single_spin_steady_state(rng) -> float:
    """<sz> = -1/(2 nbar + 1) and unit transverse variances (Gardiner)."""
    ops = build_collective_ops(DickeSpace(1))
    residual = 0.0
    for nbar in (0.0, 0.5, 5.0):
        rho = steady_state(spin_liouvillian(ops, SqueezingParams.minimal(nbar)))
        state = QuantumState.from_matrix(rho)
        residual = max(residual, abs(np.trace(ops.sz @ rho).real + 1.0 / (2 * nbar + 1)),
                       abs(sym_covariance(ops.sx, ops.sx, state) - 1.0),
                       abs(sym_covariance(ops.sy, ops.sy, state) - 1.0))
    return residual


def _single_spin_closed_form_means(rng) -> float:
    """Two Bloch vectors in four baths against ``gardiner_solution``, the means the CLI prints.

    With gamma_p = 1: <sx> = x0 exp(-(nbar + m + 1/2) t), <sy> = y0 exp(-(nbar - m + 1/2) t)
    and <sz> = z_inf + (z0 - z_inf) exp(-(2 nbar + 1) t), z_inf = -1/(2 nbar + 1)
    (Gardiner, PRL 56, 1917 (1986)).
    """
    ops = build_collective_ops(DickeSpace(1))
    bloch = np.array([(0.6, 0.0), (0.3, 0.8), (0.5, -0.4)])
    rho0 = 0.5 * (np.eye(2) + np.einsum("kb,kij->bij", bloch, np.stack([ops.sx, ops.sy, ops.sz])))
    t = np.linspace(0.0, 3.0, 61)
    residual = 0.0
    for nbar, m in ((0.5, math.sqrt(0.75)), (0.5, 0.2), (2.0, 1.0), (0.0, 0.0)):
        params = SqueezingParams(nbar, m)
        traj = evolve(spin_liouvillian(ops, params), rho0, t, rtol=1e-12, atol=1e-14)
        want = gardiner_solution(SpinMoments(*bloch), params, t[:, None])
        for k, op in enumerate((ops.sx, ops.sy, ops.sz)):
            residual = max(residual, float(np.max(np.abs(traj.expectations(op) - want[..., k]))))
    return residual


def _dark_state_steady_state(rng) -> float:
    """1 - <psi|rho|psi> of the dark state against the solved steady state, even n to 20."""
    residual = 0.0
    for nbar in (0.5, 2.0):
        for n in range(2, 21, 2):
            ops = build_collective_ops(DickeSpace(n))
            rho = steady_state(spin_liouvillian(ops, SqueezingParams.minimal(nbar)))
            psi = dark_state(n, nbar)
            residual = max(residual, abs(1.0 - np.vdot(psi, rho @ psi).real))
    return residual


def _dark_state_moments(n: int, nbar: float) -> tuple[float, float, float]:
    """<Sz>, Var(Sx) and Var(Sy) of ``dark_state(n, nbar)``, in O(n) from its amplitudes.

    The odd levels are empty, so <Sx> = <Sy> = 0. With s_k = <k-1|S-|k>,
    <S+ S- + S- S+> = sum_k psi_k^2 (s_k^2 + s_{k+1}^2) and
    <S-^2> = <S+^2> = sum_k psi_{k-2} psi_k s_{k-1} s_k, so
    Var(Sx) = <S+ S- + S- S+> + 2 <S-^2> and Var(Sy) = <S+ S- + S- S+> - 2 <S-^2>.
    """
    psi = dark_state(n, nbar)
    k = np.arange(n + 2, dtype=float)
    s = np.sqrt(k * (n - k + 1.0))  # s_0 .. s_{n+1}; s_0 = s_{n+1} = 0
    pops = psi ** 2
    number_part = float(pops @ (s[:-1] ** 2 + s[1:] ** 2))
    lowering = float(np.sum(psi[:-2] * psi[2:] * s[1:-2] * s[2:-1]))
    return (float(pops @ (2.0 * k[:-1] - n)), number_part + 2.0 * lowering,
            number_part - 2.0 * lowering)


def _steady_moments(n: int, params: SqueezingParams) -> tuple[float, float, float]:
    """<Sz>, Var(Sx) and Var(Sy) of the steady state of n spins."""
    ops = build_collective_ops(DickeSpace(n))
    state = QuantumState(steady_state(spin_liouvillian(ops, params)), "matrix")
    return (expectation(ops.sz, state).real, sym_covariance(ops.sx, ops.sx, state),
            sym_covariance(ops.sy, ops.sy, state))


def _identity_residuals(params: SqueezingParams, mean_z: float, var_x: float,
                        var_y: float) -> tuple[float, float]:
    """Var(Sx) / (-<Sz>(2 nbar + 2 M + 1)) - 1 and Var(Sy) / (-<Sz>(2 nbar - 2 M + 1)) - 1."""
    nbar, m = params.nbar, params.m_corr
    return (var_x / (-mean_z * (2 * nbar + 2 * m + 1)) - 1.0,
            var_y / (-mean_z * (2 * nbar - 2 * m + 1)) - 1.0)


def _intelligent_spin_identity(rng) -> float:
    """Var(Sx) = -<Sz>(2 nbar + 2 M + 1) and Var(Sy) = -<Sz>(2 nbar - 2 M + 1), relative.

    In the minimum-uncertainty bath the steady state of an even number of
    spins saturates Var(Sx) Var(Sy) >= <Sz>^2: it is an intelligent spin
    state (Aragone et al., J. Phys. A 7, L149 (1974); Agarwal & Puri,
    PRA 41, 3782 (1990)). Checked on ``steady_state`` for even n to 160,
    and on ``dark_state`` to n = 1280 from the amplitudes alone.
    """
    worst = 0.0
    params = SqueezingParams.minimal(0.5)
    for n in (2, 4, 10, 20, 40, 80, 160):
        worst = max(worst, *map(abs, _identity_residuals(params, *_steady_moments(n, params))))
    for nbar in (0.05, 0.5, 2.0):
        params = SqueezingParams.minimal(nbar)
        for n in (2, 4, 10, 20, 40, 80, 160, 320, 640, 1280):
            worst = max(worst, *map(abs, _identity_residuals(params,
                                                             *_dark_state_moments(n, nbar))))
    return worst


def _odd_spin_count_identity_decay(rng) -> dict[str, float]:
    """The identity's residuals for odd n in the minimum-uncertainty bath, times e^(n/2).

    Odd n has no dark state, and the steady state is mixed (purity 0.625 at
    n = 1, 0.9999 at n = 19, nbar = 0.5). Both residuals fall about as
    e^(-n/2): over n = 1 .. 59 at nbar = 0.5, |residual| e^(n/2) peaks at
    n = 19, at 0.943 for Var(Sx) and 13.13 for Var(Sy). Past n = 60 the
    residuals reach round-off.
    """
    params = SqueezingParams.minimal(0.5)
    worst = [0.0, 0.0]
    for n in (1, 3, 5, 9, 19, 29, 39, 59):
        residuals = _identity_residuals(params, *_steady_moments(n, params))
        worst = [max(w, abs(r) * math.exp(n / 2)) for w, r in zip(worst, residuals)]
    return {"lindblad/odd-n-sx-identity-decay": worst[0],
            "lindblad/odd-n-sy-identity-decay": worst[1]}


def _mixed_bath_large_n_laws(rng) -> dict[str, float]:
    """Inversion and Var(Sx) of n spins in a mixed bath (nbar = 0.5, M = 0.2) against n.

    With dev = -<Sz>/n - 1, n dev tends to -2 nbar as in the
    minimum-uncertainty bath, and n (n dev + 2 nbar) reads -0.094, -0.087,
    -0.083 and -0.082 at n = 20, 40, 80 and 160; the Var(Sx) residual of
    ``_identity_residuals`` falls as 1/n^2, with n^2 residual -0.35, -0.28,
    -0.26 and -0.25. Both coefficients are measured, not derived. The rows
    report the largest |n (n dev + 2 nbar)| and |n^2 residual|.
    """
    params = SqueezingParams(0.5, 0.2)
    inversion = variance = 0.0
    for n in (20, 40, 80, 160):
        mean_z, var_x, var_y = _steady_moments(n, params)
        dev = -mean_z / n - 1.0
        inversion = max(inversion, abs(n * (n * dev + 2 * params.nbar)))
        variance = max(variance, abs(n * n * _identity_residuals(params, mean_z, var_x, var_y)[0]))
    return {"lindblad/mixed-bath-inversion-law": inversion,
            "lindblad/mixed-bath-variance-law": variance}


def _oscillator_squeezed_vacuum(rng) -> float:
    """1 - <psi|rho|psi> of the squeezed vacuum against the oscillator's steady state.

    In the minimum-uncertainty bath the generator has the single jump
    operator c = sqrt(nbar + 1) a - sqrt(nbar) a+ = cosh(r) a - sinh(r) a+
    with sinh^2 r = nbar, and c|psi> = 0 gives
    sqrt(nbar + 1) sqrt(k + 1) psi_{k+1} = sqrt(nbar) sqrt(k) psi_{k-1}:
    the squeezed vacuum, psi_2k proportional to tanh(r)^k sqrt((2k)!) / (2^k k!),
    with every amplitude positive for M >= 0: the recursion of
    ``_dark_amplitudes`` on the Fock ladder s_k = sqrt(k). Checked at Fock
    cutoffs 120 (nbar = 0.05, 0.5) and 200 (nbar = 2), where the tail beyond
    the cutoff is below 1e-17.
    """
    residual = 0.0
    for nbar, cutoff in ((0.05, 120), (0.5, 120), (2.0, 200)):
        rho = steady_state(oscillator_liouvillian(cutoff, SqueezingParams.minimal(nbar)))
        psi = _dark_amplitudes(np.sqrt(np.arange(cutoff, dtype=float)), nbar)
        residual = max(residual, abs(1.0 - np.vdot(psi, rho @ psi).real))
    return residual


def _oscillator_equilibrium(rng) -> float:
    """Oscillator quadratures equilibrate with the squeezed input."""
    params = SqueezingParams.minimal(0.5)
    traj = oscillator_oracle(params, 20.0)
    a = annihilation_operator(traj.states.shape[1])
    x = a + a.conj().T
    y = 1j * (a.conj().T - a)
    vx_in, vy_in = input_field_variances(params)
    return max(abs(traj.sym_covariances(x, x)[-1] - vx_in),
               abs(traj.sym_covariances(y, y)[-1] - vy_in))


@dataclass(frozen=True)
class Check:
    """One table row: ``measure(rng)`` gives the residual held to ``tolerance``."""

    name: str
    tolerance: float
    measure: Callable[[np.random.Generator], float | dict[str, float]]


CHECKS = (
    Check("spin-algebra/commutators", 1e-12, _commutators),
    Check("spin-algebra/coherent-expectations", 1e-10 * 15, _coherent_expectations),
    Check("spin-algebra/variance-nonnegative", 1e-10, _variance_nonnegative),
    Check("spin-algebra/functionals-vs-products", 1e-12, _functionals_vs_products),
    Check("moments/collective-functionals-vs-products", 1e-12,
          _collective_functionals_vs_products),
    Check("moments/gardiner-equivalence", 1e-12, _gardiner_equivalence),
    Check("moments/decay-rates-vs-mean-rhs", 1e-9, _decay_rates_vs_mean_rhs),
    Check("moments/rate-decomposition-total", 1e-12, _rate_decomposition_total),
    Check("moments/rate-difference-2M", 1e-12, _rate_difference_2m),
    Check("moments/minimal-uncertainty-product", 1e-12, _minimal_uncertainty_product),
    Check("lindblad/mean-rhs-equivalence", 1e-10, _mean_rhs_equivalence),
    Check("lindblad/cov-rhs-equivalence", 1e-9, _cov_rhs_equivalence),
    Check("lindblad/cov-rhs-finite-difference", 1e-3, _cov_rhs_finite_difference),
    Check("lindblad/trace-preservation", 1e-8, _trajectory_witnesses),
    Check("lindblad/hermiticity", 1e-8, _trajectory_witnesses),
    Check("lindblad/positivity", 1e-7, _trajectory_witnesses),
    Check("lindblad/azimuthal-symmetry", 1e-12, _azimuthal_symmetry),
    Check("lindblad/single-spin-steady-state", 1e-9, _single_spin_steady_state),
    Check("lindblad/single-spin-closed-form-means", 1e-10, _single_spin_closed_form_means),
    Check("lindblad/dark-state-steady-state", 1e-10, _dark_state_steady_state),
    Check("lindblad/intelligent-spin-identity", 1e-12, _intelligent_spin_identity),
    Check("lindblad/odd-n-sx-identity-decay", 1.0, _odd_spin_count_identity_decay),
    Check("lindblad/odd-n-sy-identity-decay", 14.0, _odd_spin_count_identity_decay),
    Check("lindblad/mixed-bath-inversion-law", 0.1, _mixed_bath_large_n_laws),
    Check("lindblad/mixed-bath-variance-law", 0.4, _mixed_bath_large_n_laws),
    Check("lindblad/oscillator-squeezed-vacuum", 1e-12, _oscillator_squeezed_vacuum),
    Check("lindblad/oscillator-equilibrium", 1e-6, _oscillator_equilibrium),
)

SCOPES = ("all",) + tuple(dict.fromkeys(check.name.split("/")[0] for check in CHECKS))


def run_check(check: Check, seed: int = 0, shared: dict | None = None) -> dict:
    """Measure one row; returns its report entry.

    ``shared`` holds the results of measurements already made, so rows that
    share one are measured once; ``wall_s`` counts a shared measurement
    against the first row that needs it.
    """
    shared = {} if shared is None else shared
    start = time.perf_counter()
    if check.measure not in shared:
        rng = np.random.default_rng([seed, zlib.crc32(check.measure.__name__.encode())])
        shared[check.measure] = check.measure(rng)
    value = shared[check.measure]
    residual = float(value[check.name] if isinstance(value, dict) else value)
    return {
        "name": check.name,
        "residual": residual,
        "tolerance": check.tolerance,
        "passed": residual <= check.tolerance,
        "wall_s": time.perf_counter() - start,
    }


def verify(scope: str = "all", seed: int = 0) -> dict:
    """Run the table rows of one scope; returns a machine-readable report."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    shared: dict = {}
    checks = [run_check(check, seed, shared) for check in CHECKS
              if scope == "all" or check.name.startswith(scope + "/")]
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
