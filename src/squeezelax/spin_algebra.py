"""Collective spin operators and states in the symmetric Dicke subspace.

Basis convention: index k = 0..n counts excited spins, so the collective
inversion operator is diagonal with eigenvalues 2k - n. Pauli operators are
unhalved (sigma_z eigenvalues +-1, sigma_- = |g><e|), which makes the
lowering/raising commutator [S-, S+] = -Sz exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
    """Collective spin operators over a Dicke space, held by their diagonals.

    ``s`` is S-'s one real superdiagonal, s_k = <k|S-|k+1> = sqrt((k+1)(n-k))
    for k < n, and ``sz`` the dense complex Sz, whose diagonal is 2k - n.
    S-, S+, Sx and Sy are dense complex matrices built from ``s`` together,
    on the first read of any of them, and kept; ``lindblad.spin_liouvillian``
    builds its generator from ``s``, and the vector-state moments of
    ``_collective_moments`` apply the operators from ``s`` and Sz's
    diagonal, so neither reads them.
    """

    space: DickeSpace
    s: np.ndarray
    sz: np.ndarray

    @cached_property
    def _transverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(S-, S+, Sx, Sy) as dense complex matrices.

        They hold 64 bytes per matrix entry, and the build peaks there (Sy
        is scaled by i in place), plus the 128 KiB buffer, 8192 complex
        values, that numpy's ufuncs take to add the C-ordered S- to the
        transposed S+. A build whose 64 dim^2 + 32 dim + 2^17 bytes exceed
        physical memory raises ValueError before anything is allocated.
        """
        dim = self.space.dim
        _check_memory(64 * dim ** 2 + 32 * dim + 2 ** 17,
                      f"building the transverse collective operators at dim {dim}")
        sm = np.diag(self.s, 1).astype(complex)
        sp = sm.conj().T
        sy = sm - sp
        sy *= 1j
        return sm, sp, sm + sp, sy

    @property
    def sm(self) -> np.ndarray:
        return self._transverse[0]

    @property
    def sp(self) -> np.ndarray:
        return self._transverse[1]

    @property
    def sx(self) -> np.ndarray:
        return self._transverse[2]

    @property
    def sy(self) -> np.ndarray:
        return self._transverse[3]


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
            return _pure_densities(self.data)
        return self.data


def _pure_densities(vectors: np.ndarray) -> np.ndarray:
    """The exactly Hermitian density matrices |v><v| of a vector or a stack of them, (..., dim).

    The outer product may round v_i v_j* and v_j v_i* differently, so it is
    averaged with its conjugate transpose.
    """
    rho = vectors[..., :, None] * vectors.conj()[..., None, :]
    return 0.5 * (rho + rho.conj().swapaxes(-1, -2))


def build_collective_ops(space: DickeSpace) -> CollectiveOps:
    """S-'s superdiagonal and the dense complex Sz; the transverse matrices wait for a read.

    S- lowers the excitation number: S-|k> = sqrt(k (n-k+1)) |k-1>, so its
    superdiagonal is s_k = sqrt((k+1)(n-k)), k < n. Sz holds 16 bytes per
    matrix entry; with 32 bytes per level for the diagonals, a build whose
    16 dim^2 + 32 dim bytes exceed physical memory raises ValueError before
    anything is allocated.
    """
    n, dim = space.n, space.dim
    _check_memory(16 * dim ** 2 + 32 * dim, f"building the collective operators at dim {dim}")
    s = np.sqrt(np.arange(1, dim) * np.arange(n, 0, -1), dtype=float)
    sz = np.zeros((dim, dim), dtype=complex)
    sz.ravel()[::dim + 1] = np.arange(-n, n + 1, 2)  # the diagonal 2k - n, in place
    return CollectiveOps(space=space, s=s, sz=sz)


def spin_coherent_state(space: DickeSpace, angles: BlochAngles) -> QuantumState:
    """Product state of n spins pointing along (theta, phi).

    Amplitude at k excited spins: sqrt(C(n,k)) cos(theta/2)^k sin(theta/2)^(n-k)
    exp(i (n-k) phi). Expectation values are (n sin t cos p, n sin t sin p, n cos t).
    """
    return QuantumState.from_vector(_coherent_amplitudes(space, angles.theta, [angles.phi])[0])


def _coherent_amplitudes(space: DickeSpace, theta: float, phis) -> np.ndarray:
    """The amplitudes of ``spin_coherent_state`` at polar angle theta, one row per azimuth in phis.

    Each row is normalized on its own, as one state alone is, so a row of a
    stack is that state's amplitudes bit for bit.
    """
    n = space.n
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    if c == 0.0 or s == 0.0:
        # a pole: all spins in the ground state (c = 0) or all excited (s = 0)
        amps = np.zeros((len(phis), space.dim), dtype=complex)
        amps[:, 0 if c == 0.0 else n] = 1.0
        return amps
    # log-space magnitudes avoid under/overflow of binomials at large n;
    # log C(n, k) = sum over j <= k of log((n - j + 1) / j), and k reversed
    # is n - k. The phase (n - k) phi rides as the imaginary part of the
    # same exponent, so one complex exp gives the amplitudes
    k = np.arange(n + 1)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log(k[:0:-1] / k[1:]))))
    exponents = np.array([complex(math.log(s), phi) for phi in phis])
    amps = np.exp(0.5 * log_binom + k * math.log(c) + k[::-1] * exponents[:, None])
    for row in amps:
        row /= np.linalg.norm(row)
    return amps


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
# a vector state's kets, by the word each applies to psi, as rows of one
# array; the first four, psi, Sx psi, Sy psi and Sz psi, are also the bras,
# Sx psi, Sy psi and Sz psi those of "x", "y" and "z" at the same rows
_KET_ROWS = {"": 0, "x": 1, "y": 2, "z": 3, "xz": 4, "yz": 5}


def _banded_apply(ops: CollectiveOps, rows: np.ndarray, out: np.ndarray):
    """Write Sx v and Sy v into out[i, 0] and out[i, 1] for each row v = rows[i], in O(dim).

    With s = ``ops.s``, (S- v)_k = s_k v_{k+1} and (S+ v)_{k+1} = s_k v_k
    for k < n; Sx = S- + S+ and Sy = i (S- - S+). ``out`` must hold zeros
    in its last column. No dense matrix is read.
    """
    np.multiply(ops.s, rows[:, None, 1:], out=out[:, :, :-1])
    raised = ops.s * rows[:, :-1]
    out[:, 0, 1:] += raised
    out[:, 1, 1:] -= raised
    out[:, 1] *= 1j


def _vector_moments(psi: np.ndarray, ops: CollectiveOps, words) -> list[complex]:
    """``_collective_moments`` on a state vector, from ``ops.s`` and Sz's diagonal.

    The kets psi, Sx psi, Sy psi, Sz psi, Sx Sz psi and Sy Sz psi are the
    rows of one array: Sz psi is psi scaled by Sz's diagonal, and one
    ``_banded_apply`` makes the Sx and Sy kets of psi and of Sz psi. Every
    inner product is an entry of one Gram product of the first four rows,
    the bras, with all six. A word
    A w is <bra of A | w psi>: Sx, Sy and Sz are their own bras, and
    S- = (Sx - i Sy) / 2 has the bra S+ psi = (Sx psi + i Sy psi) / 2, so
    <S- w> = (<Sx w> - i <Sy w>) / 2 (and S+ the conjugate weights).
    <S- S+> is |S+ psi|^2, read from s.
    """
    kets = np.zeros((2, 3, psi.size), dtype=complex)
    kets[0, 0] = psi
    np.multiply(ops.sz.diagonal().real, psi, out=kets[1, 0])
    _banded_apply(ops, kets[:, 0], kets[:, 1:])
    kets = kets.reshape(6, psi.size)
    gram = (kets[:4].conj() @ kets.T).tolist()
    moments = []
    for word in words:
        head, rest = word[0], word[1:]
        if word == "-+":
            raised = ops.s * psi[:-1]
            moments.append(complex(np.vdot(raised, raised)))
        elif rest not in _KET_ROWS or head not in "xyz-+":
            raise ValueError(f"no vector-state moment for the word {word!r}")
        elif head in "xyz":
            moments.append(gram[_KET_ROWS[head]][_KET_ROWS[rest]])
        else:
            ax, ay = gram[1][_KET_ROWS[rest]], gram[2][_KET_ROWS[rest]]
            moments.append(0.5 * (ax - 1j * ay) if head == "-" else 0.5 * (ax + 1j * ay))
    return moments


def _matrix_moments(rho: np.ndarray, ops: CollectiveOps, words) -> np.ndarray:
    """<w> for each word w on a density matrix, or on each member of a stack of them.

    rho is one (dim, dim) matrix or a (B, dim, dim) stack; the result has
    shape (len(words),) + rho.shape[:-2], one value per word per member.
    Every suffix the words read is made once, right to left, as the product
    w rho of the whole stack (the empty suffix being rho itself), and a
    word A w is then Tr(A w rho) = vdot(A', w rho), one batched inner
    product of the flattened members with the adjoint letter's conjugate:
    O(dim^2) per member, with no product formed. So one dense operator is
    applied per distinct nonempty suffix, whatever the batch size.
    """
    named = {"-": ops.sm, "+": ops.sp, "x": ops.sx, "y": ops.sy, "z": ops.sz}
    kets = {"": rho}

    def ket(word):
        # right to left, each suffix once; not recursive, since a closure that
        # calls itself is a reference cycle that would keep ops alive until
        # the next garbage collection
        if word not in kets:
            for i in reversed(range(len(word))):
                if word[i:] not in kets:
                    kets[word[i:]] = named[word[i]] @ kets[word[i + 1:]]
        return kets[word]

    flat = rho.shape[:-2] + (-1,)
    return np.array([ket(word[1:]).reshape(flat) @ named[_ADJOINT[word[0]]].conj().ravel()
                     for word in words])


def _collective_moments(state: QuantumState, ops: CollectiveOps, words) -> list[complex]:
    """<w> for each word w of collective operators, applying each operator to the state once.

    A word names an operator product left to right by the letters "-", "+",
    "x", "y" and "z" for S-, S+, Sx, Sy and Sz: "-z" asks for <S- Sz>.
    ValueError if ``ops`` does not act on the state's dimension.

    A vector state is read by ``_vector_moments`` in O(dim) per operator,
    from S-'s superdiagonal and Sz's diagonal: five banded applications
    and one small Gram product, for the words A, AB and ABz with A, B
    among Sx, Sy, Sz (or A = S+-), and "-+". The dense transverse matrices
    are not read.

    A density matrix is read by ``_matrix_moments``, which keeps the dense
    products: at fig3b's dim <= 16 they are faster than banded ones.
    """
    if ops.space.dim != state.dim:
        raise ValueError(f"operators of dimension {ops.space.dim} do not act on "
                         f"dimension {state.dim}")
    if state.kind == "vector":
        return _vector_moments(state.data, ops, words)
    return _matrix_moments(state.data, ops, words).tolist()


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
