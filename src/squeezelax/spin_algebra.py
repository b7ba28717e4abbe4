"""Collective spin operators and states in the symmetric Dicke subspace.

Basis convention: index k = 0..n counts excited spins, so the collective
inversion operator is diagonal with eigenvalues 2k - n. Pauli operators are
unhalved (sigma_z eigenvalues +-1, sigma_- = |g><e|), which makes the
lowering/raising commutator [S-, S+] = -Sz exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ode import _check_memory

__all__ = [
    "DickeSpace",
    "BlochAngles",
    "CollectiveOps",
    "QuantumState",
    "build_collective_ops",
    "spin_coherent_state",
    "product_expectation",
    "expectation",
    "sym_covariance",
    "third_moment",
    "hpa_residual",
]


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric subspace of n spin-1/2 particles (dimension n + 1)."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"spin count must be an integer >= 1, got {self.n!r}")

    @property
    def dim(self) -> int:
        return self.n + 1


@dataclass(frozen=True)
class BlochAngles:
    """Polar and azimuthal angles (radians) on the collective Bloch sphere."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not np.isfinite(self.phi):
            raise ValueError("phi must be finite")


@dataclass(frozen=True)
class CollectiveOps:
    """Dense collective spin matrices over a Dicke space."""

    space: DickeSpace
    sm: np.ndarray
    sp: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def _check_hermitian(rho: np.ndarray, what: str = "density matrix"):
    """Raise ValueError naming ``what`` when max |rho - rho+| over the square rho exceeds 1e-12.

    The one rule every density matrix is held to: ``QuantumState.from_matrix``
    and ``lindblad.evolve`` (for each member of its start) read it here.
    """
    residual = float(np.max(np.abs(rho - rho.conj().T)))
    if residual > 1e-12:
        raise ValueError(f"{what} is not Hermitian: max |rho - rho+| = {residual:.3g} "
                         "exceeds 1e-12")


class QuantumState:
    """Pure state vector or density matrix over a Dicke (or Fock) basis."""

    __slots__ = ("data", "kind")

    def __init__(self, data: np.ndarray, kind: str):
        if kind not in ("vector", "matrix"):
            raise ValueError(f"kind must be 'vector' or 'matrix', got {kind!r}")
        self.data = np.asarray(data, dtype=complex)
        self.kind = kind

    @classmethod
    def from_vector(cls, amplitudes) -> "QuantumState":
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        norm = np.linalg.norm(amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state vector norm deviates from 1 by {abs(norm - 1.0):.3g}")
        return cls(amplitudes, "vector")

    @classmethod
    def from_matrix(cls, rho) -> "QuantumState":
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("density matrix must be square")
        _check_hermitian(rho)
        if abs(np.trace(rho).real - 1.0) > 1e-12:
            raise ValueError("density matrix trace deviates from 1")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        return cls(rho, "matrix")

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def density(self) -> np.ndarray:
        """Return the state as a density matrix; a vector gives an exactly Hermitian one."""
        if self.kind == "vector":
            # np.outer may round v_i v_j* and v_j v_i* differently, so the
            # outer product is averaged with its conjugate transpose
            rho = np.outer(self.data, self.data.conj())
            return 0.5 * (rho + rho.conj().T)
        return self.data


def build_collective_ops(space: DickeSpace) -> CollectiveOps:
    """Construct S-, S+, Sx, Sy, Sz as dense complex matrices.

    S- lowers the excitation number: S-|k> = sqrt(k (n-k+1)) |k-1>.
    The five matrices hold 80 bytes per entry, and the build peaks at 88
    while Sz is cast from its float diagonal; with 32 bytes per level for
    the diagonals, a build whose 88 dim^2 + 32 dim bytes exceed physical
    memory raises ValueError before anything is allocated.
    """
    n, dim = space.n, space.dim
    _check_memory(88 * dim ** 2 + 32 * dim, f"building the collective operators at dim {dim}")
    k = np.arange(dim, dtype=float)
    sm = np.diag(np.sqrt(k[1:] * (n - k[1:] + 1)), 1).astype(complex)
    sp = sm.conj().T
    sx = sm + sp
    sy = 1j * (sm - sp)
    sz = np.diag(2.0 * k - n).astype(complex)
    return CollectiveOps(space=space, sm=sm, sp=sp, sx=sx, sy=sy, sz=sz)


def spin_coherent_state(space: DickeSpace, angles: BlochAngles) -> QuantumState:
    """Product state of n spins pointing along (theta, phi).

    Amplitude at k excited spins: sqrt(C(n,k)) cos(theta/2)^k sin(theta/2)^(n-k)
    exp(i (n-k) phi). Expectation values are (n sin t cos p, n sin t sin p, n cos t).
    """
    n = space.n
    c = math.cos(angles.theta / 2.0)
    s = math.sin(angles.theta / 2.0)
    amps = np.zeros(space.dim, dtype=complex)
    if c == 0.0:
        amps[0] = 1.0  # south pole: all spins in the ground state
    elif s == 0.0:
        amps[n] = 1.0  # north pole: all spins excited
    else:
        # log-space magnitudes avoid under/overflow of binomials at large n;
        # log C(n, k) = sum over j <= k of log((n - j + 1) / j)
        k = np.arange(n + 1)
        log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - k[1:] + 1) / k[1:]))))
        log_mag = 0.5 * log_binom + k * math.log(c) + (n - k) * math.log(s)
        amps = np.exp(log_mag) * np.exp(1j * (n - k) * angles.phi)
        amps /= np.linalg.norm(amps)
    return QuantumState.from_vector(amps)


def product_expectation(ops, state: QuantumState) -> complex:
    """<A_0 A_1 ... A_m> of the operators ``ops`` on a vector or density-matrix state.

    The factors act on the state right to left: a vector state costs one
    matrix-vector product per factor, a density matrix one matrix product
    per factor and a trace. No operator product is formed.
    """
    ket = state.data
    for op in reversed(ops):
        op = np.asarray(op)
        if op.shape != (state.dim, state.dim):
            raise ValueError(f"operator of shape {op.shape} does not act on dimension {state.dim}")
        ket = op @ ket
    if state.kind == "vector":
        return complex(np.vdot(state.data, ket))
    return complex(np.trace(ket))


_ADJOINT = {"-": "+", "+": "-", "x": "x", "y": "y", "z": "z"}


def _collective_moments(state: QuantumState, ops: CollectiveOps, words) -> list[complex]:
    """<w> for each word w of collective operators, applying each operator to the state once.

    A word names an operator product left to right by the letters "-", "+",
    "x", "y" and "z" for S-, S+, Sx, Sy and Sz: "-z" asks for <S- Sz>.
    Every suffix the words read is made once, right to left, as a ket: the
    vector w psi, or on a density matrix the product w rho (the empty
    suffix being the state itself). A word A w is then one inner product of
    that ket with the bra of A, whose adjoint is A': on a vector,
    <A w> = vdot(A' psi, w psi), so S+ psi is the bra of S-, S- psi that of
    S+, and Sx psi, Sy psi and Sz psi are their own; on a matrix,
    Tr(A w rho) = vdot(A', w rho), an O(dim^2) sum with no product formed.
    So one operator is applied per distinct nonempty suffix, plus on a
    vector each ket a bra needs. ValueError if an operator read does not act
    on the state's dimension.
    """
    named = {"-": ops.sm, "+": ops.sp, "x": ops.sx, "y": ops.sy, "z": ops.sz}
    kets = {"": state.data}
    vector = state.kind == "vector"

    def op(letter):
        a = named[letter]
        if a.shape != (state.dim, state.dim):
            raise ValueError(f"operator of shape {a.shape} does not act on dimension {state.dim}")
        return a

    def ket(word):
        # right to left, each suffix once; not recursive, since a closure that
        # calls itself is a reference cycle that would keep ops alive until
        # the next garbage collection
        if word not in kets:
            for i in reversed(range(len(word))):
                if word[i:] not in kets:
                    kets[word[i:]] = op(word[i]) @ kets[word[i + 1:]]
        return kets[word]

    def bra(letter):
        adjoint = _ADJOINT[letter]
        return ket(adjoint) if vector else op(adjoint)

    return [complex(np.vdot(bra(word[0]), ket(word[1:]))) for word in words]


def expectation(op: np.ndarray, state: QuantumState) -> complex:
    """<psi|A|psi> for a vector state, Tr(A rho) for a density matrix."""
    return product_expectation((op,), state)


def sym_covariance(a: np.ndarray, b: np.ndarray, state: QuantumState) -> float:
    """Symmetrized covariance (1/2)<AB + BA> - <A><B> of Hermitian A, B.

    On a Hermitian state <BA> = <AB>*, so this is Re<AB> - <A><B>.
    """
    return (product_expectation((a, b), state)
            - expectation(a, state) * expectation(b, state)).real


def third_moment(a: np.ndarray, b: np.ndarray, c: np.ndarray, state: QuantumState) -> float:
    """Symmetrized third moment of Hermitian A against the product of Hermitian B, C.

    (1/2) ( <ABC + CBA> - <A> <BC + CB> ). On a Hermitian state
    <CBA> = <ABC>* and <CB> = <BC>*, so this is Re<ABC> - <A> Re<BC>.
    """
    return (product_expectation((a, b, c), state)
            - expectation(a, state) * product_expectation((b, c), state).real).real


def hpa_residual(space: DickeSpace, k_max: int) -> float:
    """Deviation of S-/sqrt(n) from a truncated bosonic annihilation operator.

    max over k <= k_max of |sqrt(k (n-k+1) / n) - sqrt(k)|; tends to zero as
    n grows at fixed k_max.
    """
    n = space.n
    if k_max > n:
        raise ValueError(f"k_max={k_max} exceeds spin count n={n}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return max(abs(math.sqrt(k * (n - k + 1) / n) - math.sqrt(k))
               for k in range(1, k_max + 1))
