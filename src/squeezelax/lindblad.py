"""Exact master-equation dynamics in a broadband squeezed bath.

The generator is

    drho/dt = gamma_p { (nbar+1) D[d+, d] + nbar D[d, d+]
                        - m D[d+, d+] - m D[d, d] } rho,

with D[u, v] rho = v rho u - (1/2)(u v rho + rho u v) and d the collective
lowering operator (S- for spins, a truncated annihilation operator for the
oscillator check). This overall prefactor reproduces the single-spin
transverse decay rates gamma_p (nbar +- m + 1/2) and the oscillator
covariance relaxation at rate gamma_p.

The four channels are the jump term sum_ab G_ab L_a rho L_b+ with
L = (d, d+) and bath matrix G = [[nbar+1, -m], [-m, nbar]] (Gardiner,
PRL 56, 1917 (1986)). Collecting the right-hand factors gives the normal
form that ``Liouvillian`` evaluates,

    drho/dt = gamma_p [ d rho P + d+ rho Q - (1/2)(K rho + rho K) ],
    P = (nbar+1) d+ - m d,    Q = nbar d - m d+,
    K = (nbar+1) d+ d + nbar d d+ - m (d+ d+ + d d).

``dissipator`` keeps the four-channel form as an independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .moments import SqueezingParams
from .ode import IntegrationResult, IntegratorConfig, integrate
from .spin_algebra import CollectiveOps, QuantumState

__all__ = [
    "Liouvillian",
    "Trajectory",
    "DegenerateSteadyStateError",
    "CutoffError",
    "dissipator",
    "spin_liouvillian",
    "oscillator_liouvillian",
    "annihilation_operator",
    "evolve",
    "steady_state",
    "oscillator_oracle",
    "default_oscillator_cutoff",
]


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one (numerical) null vector."""


class CutoffError(RuntimeError):
    """Fock-space truncation too small: population reached the top level."""


def dissipator(u: np.ndarray, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[u, v] rho = v rho u - (1/2)(u v rho + rho u v)."""
    if u.shape != v.shape or u.shape != rho.shape:
        raise ValueError("dissipator operands must share one square shape")
    uv = u @ v
    return v @ rho @ u - 0.5 * (uv @ rho + rho @ uv)


@dataclass
class Liouvillian:
    """Squeezed-bath Lindblad generator for a lowering operator ``op``."""

    op: np.ndarray
    params: SqueezingParams
    _super: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.op = np.asarray(self.op, dtype=complex)
        if self.op.ndim != 2 or self.op.shape[0] != self.op.shape[1]:
            raise ValueError("system operator must be a square matrix")
        p = self.params
        d, dag = self.op, self.op.conj().T
        self._dag = dag
        self._p = (p.nbar + 1.0) * dag - p.m_corr * d
        self._q = p.nbar * d - p.m_corr * dag
        self._k = ((p.nbar + 1.0) * (dag @ d) + p.nbar * (d @ dag)
                   - p.m_corr * (dag @ dag + d @ d))

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate drho/dt for a density matrix rho."""
        rho = np.asarray(rho)
        if rho.shape != self.op.shape:
            raise ValueError("density matrix shape does not match the generator")
        k = self._k
        return self.params.gamma_p * (self.op @ rho @ self._p + self._dag @ rho @ self._q
                                      - 0.5 * (k @ rho + rho @ k))

    def superoperator(self) -> np.ndarray:
        """Dense dim^2 x dim^2 matrix acting on row-major vectorized rho."""
        if self._super is None:
            eye = np.eye(self.dim)
            k = self._k
            self._super = self.params.gamma_p * (
                np.kron(self.op, self._p.T) + np.kron(self._dag, self._q.T)
                - 0.5 * (np.kron(k, eye) + np.kron(eye, k.T)))
        return self._super


def spin_liouvillian(ops: CollectiveOps, params: SqueezingParams) -> Liouvillian:
    return Liouvillian(op=ops.sm, params=params)


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Truncated bosonic annihilation operator on ``cutoff`` Fock levels."""
    if cutoff < 2:
        raise ValueError("Fock cutoff must be >= 2")
    a = np.zeros((cutoff, cutoff), dtype=complex)
    for k in range(1, cutoff):
        a[k - 1, k] = math.sqrt(k)
    return a


def oscillator_liouvillian(cutoff: int, params: SqueezingParams) -> Liouvillian:
    return Liouvillian(op=annihilation_operator(cutoff), params=params)


@dataclass
class Trajectory:
    """Integrated master-equation trajectory with sanity diagnostics."""

    times: np.ndarray
    states: np.ndarray  # shape (T, dim, dim)
    diagnostics: dict

    def expectations(self, op: np.ndarray) -> np.ndarray:
        """Tr(op rho) at every recorded time (real part)."""
        return np.einsum("ij,tji->t", op, self.states).real

    def sym_covariances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Symmetrized covariance of a and b at every recorded time."""
        anti = 0.5 * np.einsum("ij,tji->t", a @ b + b @ a, self.states).real
        return anti - self.expectations(a) * self.expectations(b)

    @property
    def final_state(self) -> np.ndarray:
        """A copy of the last state, so holding it does not keep ``states`` alive."""
        return self.states[-1].copy()


def _state_diagnostics(states: np.ndarray) -> dict:
    traces = np.einsum("tii->t", states).real
    herm = max(float(np.max(np.abs(s - s.conj().T))) for s in states)
    min_eig = min(float(np.min(np.linalg.eigvalsh(0.5 * (s + s.conj().T))))
                  for s in states)
    return {
        "max_trace_drift": float(np.max(np.abs(traces - 1.0))),
        "max_hermiticity_residual": herm,
        "min_eigenvalue": min_eig,
    }


def evolve(liouv: Liouvillian, rho0: np.ndarray | QuantumState, t_final: float,
           rtol: float = 1e-10, atol: float = 1e-12,
           record_every: int = 1) -> Trajectory:
    """Integrate the master equation from rho0 to t_final.

    The density matrix is vectorized and stepped with the adaptive RK45
    engine; no trace renormalization is applied, so trace drift stays a
    genuine global-error witness in the diagnostics. The trace, hermiticity
    and eigenvalue witnesses are taken on the recorded states only: the
    initial state, every record_every-th accepted step and the endpoint
    (with a huge record_every, just t = 0 and t_final).
    """
    if isinstance(rho0, QuantumState):
        rho0 = rho0.density()
    rho0 = np.asarray(rho0, dtype=complex)
    dim = liouv.dim
    if rho0.shape != (dim, dim):
        raise ValueError("initial state shape does not match the generator")
    if t_final <= 0:
        raise ValueError("t_final must be positive")

    def rhs(y, _t):
        return liouv.apply(y.reshape(dim, dim)).ravel()

    cfg = IntegratorConfig(dt=min(1e-2 / liouv.params.gamma_p, t_final),
                           rtol=rtol, atol=atol, record_every=record_every)
    result: IntegrationResult = integrate(rhs, rho0.ravel(), (0.0, t_final), cfg)
    states = result.states.reshape(-1, dim, dim)
    diagnostics = dict(result.diagnostics)
    diagnostics.update(_state_diagnostics(states))
    return Trajectory(times=result.times, states=states, diagnostics=diagnostics)


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix via the superoperator null space.

    Both thresholds come from the superoperator, with s0 its largest
    singular value and eps the float64 machine epsilon: a singular value
    is null at or below numpy's rank tolerance s0 * dim^2 * eps, and the
    steady state must satisfy max |L rho| <= max(1e-10, dim * eps * s0).
    Raises DegenerateSteadyStateError unless exactly one singular value is
    null; degeneracy is reported, never silently resolved.
    """
    sup = liouv.superoperator()
    _u, s, vh = np.linalg.svd(sup)
    eps = np.finfo(float).eps
    null_count = int(np.sum(s <= s[0] * sup.shape[0] * eps))
    if null_count == 0:
        raise DegenerateSteadyStateError(
            f"no null vector found (smallest singular value {s[-1]:.3e})")
    if null_count > 1:
        raise DegenerateSteadyStateError(
            f"steady state is degenerate: {null_count} null vectors")
    dim = liouv.dim
    rho = vh[-1].conj().reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < 1e-14:
        raise DegenerateSteadyStateError("null vector is traceless, not a state")
    rho = rho / trace
    residual = float(np.max(np.abs(liouv.apply(rho))))
    residual_tol = max(1e-10, dim * eps * s[0])
    if residual > residual_tol:
        raise DegenerateSteadyStateError(
            f"steady-state residual {residual:.3e} exceeds {residual_tol:.1e}")
    return rho


def default_oscillator_cutoff(params: SqueezingParams) -> int:
    """Variance-based truncation heuristic: ten times the anti-squeezed variance."""
    return max(8, int(math.ceil(10.0 * (2 * params.nbar + 2 * params.m_corr + 1.0))))


def coherent_state_vector(cutoff: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state |alpha> on ``cutoff`` Fock levels."""
    ks = np.arange(cutoff)
    with np.errstate(divide="ignore"):
        log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
    amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** ks / np.exp(0.5 * log_fact)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-10:
        raise CutoffError(f"coherent state |alpha|={abs(alpha):.3g} does not fit "
                          f"in {cutoff} Fock levels")
    return amps / norm


def oscillator_oracle(params: SqueezingParams, t_final: float,
                      cutoff: int | None = None, alpha: complex = 0.0,
                      rtol: float = 1e-10, atol: float = 1e-12,
                      record_every: int = 1, top_pop_tol: float = 1e-8,
                      max_cutoff: int = 512) -> Trajectory:
    """Master-equation trajectory for the oscillator limit (d = a).

    Starts from a (possibly displaced) vacuum and doubles the Fock cutoff
    until the top-level population stays below top_pop_tol on every
    recorded state. Like ``evolve``'s witnesses, that population is read
    only at the recorded times, so with a huge record_every it is checked
    at t = 0 and t_final alone.
    """
    cut = cutoff if cutoff is not None else default_oscillator_cutoff(params)
    while True:
        if cut > max_cutoff:
            raise CutoffError(f"required Fock cutoff exceeds the limit {max_cutoff}")
        liouv = oscillator_liouvillian(cut, params)
        psi0 = coherent_state_vector(cut, alpha)
        rho0 = np.outer(psi0, psi0.conj())
        traj = evolve(liouv, rho0, t_final, rtol=rtol, atol=atol,
                      record_every=record_every)
        top_pop = float(np.max(traj.states[:, -1, -1].real))
        traj.diagnostics["cutoff"] = cut
        traj.diagnostics["max_top_population"] = top_pop
        if top_pop < top_pop_tol:
            return traj
        if cutoff is not None:
            raise CutoffError(
                f"top-level population {top_pop:.3e} exceeds {top_pop_tol:.1e} "
                f"at the requested cutoff {cutoff}")
        cut *= 2
