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
form

    drho/dt = gamma_p [ d rho P + d+ rho Q - (1/2)(K rho + rho K) ],
    P = (nbar+1) d+ - m d,    Q = nbar d - m d+,
    K = (nbar+1) d+ d + nbar d d+ - m (d+ d+ + d d).

Stencil. S- in the Dicke basis and the truncated ``a`` have only a real
superdiagonal, s_k = d[k, k+1], so the generator is fixed by s alone and
``Liouvillian`` takes s, not d. With s_k = 0 outside 0 <= k <= dim - 2,
the normal form is then a sum of nine shifted, elementwise-scaled copies
of rho, (L rho)[i, j] = gamma_p sum c[i, j] rho[i + di, j + dj]:

    (0, 0)              -(1/2)(kappa_i + kappa_j),
                        kappa_k = (nbar+1) s_{k-1}^2 + nbar s_k^2
    (+1, +1), (-1, -1)  (nbar+1) s_i s_j,  nbar s_{i-1} s_{j-1}
    (+1, -1), (-1, +1)  -m s_i s_{j-1},   -m s_{i-1} s_j
    (+2, 0), (-2, 0)    (m/2) s_i s_{i+1}, (m/2) s_{i-2} s_{i-1}
    (0, +2), (0, -2)    (m/2) s_j s_{j+1}, (m/2) s_{j-2} s_{j-1}

The coefficients are fixed once per generator and vanish wherever a shift
would leave rho, so ``apply`` reads each shifted copy as one slice of rho
bordered by two zeros on each side: O(dim^2) against the six O(dim^3)
products of the normal form. They are stored once, as one aligned float64
array of dim^2 values per shift, one value per entry of rho in row-major
order; ``apply``, the steady-state blocks and the row sums read the same
arrays. Every coefficient is real, so a complex rho is multiplied as it
is, and ``apply`` sums the shifts pair by transposed pair, so a Hermitian
rho gives an exactly Hermitian result. ``evolve`` reads a scaled copy of
them packed by parity sector (below), in which the nine shifts (di, dj)
are the 3 x 3 box (u, v) = ((di + dj) / 2, (di - dj) / 2): one
``np.einsum`` of that box with a strided window of the state per
Chebyshev term. The dense d = diag(s, 1) and the P, Q and K of the normal
form build only ``superoperator``, the dense reference.

Parity sectors. d, with only a superdiagonal, is parity-odd (d[i, k] = 0
whenever i - k is even), so d, d+, P and Q flip the parity of a basis
index and K keeps it. Each term of the generator then moves the coherence
rho[i, j] only to coherences of the same parity of i - j, so the dim^2 x dim^2
superoperator splits exactly into an even-(i - j) and an odd-(i - j)
block with nothing between them.

Coherence order. Every stencil term changes the coherence order k = i - j
by di - dj, which is 0 or +-2, so ordered by k each sector is block
tridiagonal: a level of order k holds the dim - |k| coherences
rho[i, i - k], one diagonal of rho, and couples only to the levels k +- 2.
``steady_state`` reads each real block straight from the stencil: the
block from order k to order k + di - dj is the sum of at most three
shifted diagonals, one per shift, each np.diagonal(c, -k) of the real
half c of that shift's coefficients. It eliminates the levels from both
ends toward the one holding the diagonal: about dim dense solves of size
up to dim per sector, O(dim^4) time and O(dim^3) memory, and the full
superoperator is never built. From the CLI, ``steady-state --spins 40``,
``80`` and ``160`` take 0.22, 0.23 and 0.44 s with peak RSS 37, 40 and
59 MB (2-core machine).

Time evolution. ``evolve`` sums a Chebyshev series of exp(h L) in the
rescaled generator A~ = (2/a) L + 1 (``ode.propagate``), over windows of
degree up to 88. It propagates each Hermitian state as one real matrix,
X = Re rho + Im rho, from which the symmetric Re rho and the antisymmetric
Im rho are read back exactly Hermitian. No term links the two parity
sectors, so it propagates only the sectors in which the start has a
nonzero entry, each packed into a plane of about dim^2 / 2 values
(``_sector_layout``): what it leaves out stays exactly zero. On a plane of
row width W, shift (u, v) of the box is the offset u (W + 1) + v (W - 1),
so the nine shifted copies of a term are one strided (3, 3, n) window of
it. Its only operation is one ``np.einsum`` per term of that window with
the box, scaled by 4/a with 2 added to the centre and broadcast over the
batch's members, which with T_{k-1} subtracted gives
T_{k+1} = 2 A~ T_k - T_{k-1} in the rows that hold it. The
bound a is ``norm_bound()``, the largest absolute row sum of the
superoperator, read from the stencil's coefficients in O(dim^2); every
eigenvalue of L lies in |z| <= a. At Fock cutoff 59 (a = 658.6) the
oscillator oracle reaches t = 20 in 48 windows and 4222 terms on the
vacuum's one sector, a plane of 1799 values against 3481 entries of rho;
an explicit stepper, held by stability to steps of about 3.3 / a, would
need about 4000 steps.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import SqueezingParams
from .ode import _BLOCK, _FALLBACKS, _check_memory, _check_positive, _output_times, propagate
from .spin_algebra import CollectiveOps, QuantumState, _check_hermitian

__all__ = [
    "Liouvillian",
    "Trajectory",
    "DegenerateSteadyStateError",
    "CutoffError",
    "spin_liouvillian",
    "oscillator_liouvillian",
    "annihilation_operator",
    "evolve",
    "steady_state",
    "oscillator_oracle",
    "default_oscillator_cutoff",
]

logger = logging.getLogger(__name__)


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one (numerical) null vector."""


class CutoffError(RuntimeError):
    """Fock-space truncation too small: population reached the top level."""


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte (cache-line) boundary.

    The stencil's coefficient arrays and ``evolve``'s box of them are read
    through SIMD loads on every pass. Where the allocator places an array
    depends on the heap's history, and a flat stencil pass at dim 59 took
    about 1.5 times as long over arrays 16 bytes off a cache line as over
    aligned ones.
    """
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


# the stencil's shifts (di, dj): the unshifted term, then four pairs of a
# shift and the one ``apply`` sums it with
_SHIFTS = ((0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1), (2, 0), (0, 2), (-2, 0), (0, -2))
# the shifts by the change di - dj they make to the coherence order i - j
_SHIFTS_BY_CHANGE = {change: [(di, dj) for di, dj in _SHIFTS if di - dj == change]
                     for change in (-2, 0, 2)}


def _stencil(s: np.ndarray, params: SqueezingParams) -> dict:
    """Coefficients of the nine-term stencil for the real superdiagonal s of d.

    Returns one array per shift of ``_SHIFTS``, in that order: dim^2
    float64 entries starting on a 64-byte boundary, one per entry of rho in
    row-major order.
    coef[(di, dj)].reshape(dim, dim)[i, j] is the coefficient of
    rho[i + di, j + dj] in (L rho)[i, j], gamma_p included, and it is zero
    wherever the shift would leave rho. Adding 0.0 makes every -0.0 a 0.0
    and keeps every other value, so a coefficient written into a block of
    zeros leaves it as the zero it replaces would. See the module docstring
    for the terms.
    """
    dim = len(s) + 1
    # s[k + 2] = s_k for k = -2 .. dim, zero outside 0 .. dim - 2, so that no
    # term reaches past the edge of rho or wraps into the next row
    s = np.concatenate(([0.0, 0.0], s, [0.0, 0.0]))
    s0, s1, sm1, sm2 = (s[2 + shift:2 + shift + dim] for shift in (0, 1, -1, -2))
    nbar, m = params.nbar, params.m_corr
    kappa = (nbar + 1.0) * sm1 ** 2 + nbar * s0 ** 2  # the diagonal of K
    ones = np.ones(dim)
    cross = -m * np.outer(s0, sm1)                   # -m d rho d; its transpose, -m d+ rho d+
    dd = 0.5 * m * np.outer(s0 * s1, ones)           # the d d part of -(1/2) K rho
    uu = 0.5 * m * np.outer(sm2 * sm1, ones)         # the d+ d+ part of -(1/2) K rho
    coefs = (-0.5 * (kappa[:, None] + kappa), (nbar + 1.0) * np.outer(s0, s0),
             nbar * np.outer(sm1, sm1), cross, cross.T, dd, dd.T, uu, uu.T)
    out = {}
    for shift, coef in zip(_SHIFTS, coefs):
        flat = out[shift] = _aligned_empty((dim * dim,))
        np.multiply(params.gamma_p, coef.ravel(), out=flat)
        flat += 0.0
    return out


def _plane_size(dim: int) -> tuple[int, int]:
    """(W, L): the row width W = 2 ceil(dim / 4) and the length L = W (dim - 1) + dim of a plane.

    Entry (i, j) of rho sits at position W i + j of its parity sector's
    packed plane (``_sector_layout``), so a plane takes L positions, about
    dim^2 / 2 (1799 against 3481 at dim 59).
    """
    width = 2 * -(-dim // 4)
    return width, width * (dim - 1) + dim


def _sector_layout(dim: int) -> tuple[int, int, tuple]:
    """(W, L, sectors): where each entry of rho sits in its parity sector's packed plane.

    Sector s holds the entries rho[i, j] with (i - j) mod 2 = s. Entry
    (i, j) sits at position W i + j of its sector's plane, with W and L
    from ``_plane_size``, so each stencil shift (di, dj) is the one offset
    W di + dj. Two entries of one sector at the same position would differ
    by an even number of rows (W is even) and so by at least 2W >= dim
    columns, so no two collide. The positions of a plane that no entry
    takes are holes. sectors holds, per sector, the row-major indices of
    its entries and their positions in its plane.
    """
    width, length = _plane_size(dim)
    i, j = np.divmod(np.arange(dim * dim), dim)
    sectors = tuple((index, width * i[index] + j[index])
                    for index in (np.flatnonzero((i - j) % 2 == s) for s in (0, 1)))
    return width, length, sectors


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Squeezed-bath Lindblad generator for the lowering operator d with real superdiagonal ``s``.

    d = diag(s, 1) has dim = len(s) + 1 levels and no other nonzero entry,
    as S- in the Dicke basis (``CollectiveOps.s``) and the truncated ``a``
    have; an ``s`` that is not one-dimensional, is complex or holds a NaN
    or an infinity raises ValueError here. The generator is fixed at
    construction: ``s`` is kept as a read-only float64 copy of the argument,
    and assigning to ``s`` or ``params`` raises AttributeError. Generators compare equal only to
    themselves. The stencil is built on the first ``apply``,
    ``norm_bound`` or ``steady_state``, its scaled and packed copy on the
    first ``evolve``, and the dense d, d+, P, Q and K only when
    ``superoperator`` reads them.
    """

    s: np.ndarray
    params: SqueezingParams

    def __post_init__(self):
        if np.iscomplexobj(self.s) or np.ndim(self.s) != 1:
            raise ValueError("the superdiagonal s must be a one-dimensional real array "
                             "(S-'s or a's, not the matrix)")
        s = np.array(self.s, dtype=np.float64)  # a copy, never a view of the caller's array
        if not np.all(np.isfinite(s)):
            raise ValueError("the superdiagonal s must be finite")
        s.flags.writeable = False
        object.__setattr__(self, "s", s)

    @property
    def dim(self) -> int:
        return len(self.s) + 1

    @cached_property
    def _normal_form(self) -> tuple[np.ndarray, ...]:
        """The dense (d, d+, P, Q, K) of the normal form, d = diag(s, 1) as a complex matrix."""
        p = self.params
        d = np.diag(self.s, 1).astype(complex)
        dag = d.conj().T
        return (d, dag, (p.nbar + 1.0) * dag - p.m_corr * d, p.nbar * d - p.m_corr * dag,
                (p.nbar + 1.0) * (dag @ d) + p.nbar * (d @ dag)
                - p.m_corr * (dag @ dag + d @ d))

    @cached_property
    def _coefficients(self) -> dict:
        """The stencil's coefficients by shift, from ``_stencil``: the copy every reader uses.

        ``_packed`` scales its own copy from it.
        """
        return _stencil(self.s, self.params)

    @cached_property
    def _packed(self) -> tuple[int, int, tuple, np.ndarray]:
        """(W, L, sectors, box): the Chebyshev term's stencil on packed sector planes.

        Each shift's coefficients, scaled by 4/a with a = ``norm_bound()``,
        are written from ``_coefficients`` into one row of 2L values, the
        plane of sector 0 then that of sector 1 (``_sector_layout``), and
        the centre gains 2 at every entry: one stencil pass less T_{k-1}
        then gives T_{k+1} = 2 A~ T_k - T_{k-1}, A~ = (2/a) L + 1. The nine
        rows form one aligned (3, 3, 2L) box: shift (di, dj) is the cell
        [u + 1, v + 1] with (u, v) = ((di + dj) / 2, (di - dj) / 2), and
        within a plane it is the offset W di + dj = u (W + 1) + v (W - 1),
        so the nine shifted copies of a term are one strided (3, 3, n)
        window of it. A hole keeps zero coefficients,
        so it stays zero; a shift that leaves rho has a zero coefficient, so
        what it reads across a plane's edge adds nothing. Built on the first
        ``evolve`` and kept: about 72 dim^2 bytes, and 16 dim^2 of indices.
        W, L and sectors are ``_sector_layout``'s.
        """
        dim, bound = self.dim, self.norm_bound()
        width, length, sectors = _sector_layout(dim)
        box = _aligned_empty((3, 3, 2 * length))
        box.fill(0.0)
        for (di, dj), coef in self._coefficients.items():
            scaled = coef * (4.0 / bound) + (2.0 if (di, dj) == (0, 0) else 0.0)
            cell = box[(di + dj) // 2 + 1, (di - dj) // 2 + 1]
            for s, (index, position) in enumerate(sectors):
                cell[s * length + position] = scaled[index]
        return width, length, sectors, box

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate drho/dt for a density matrix or a stack of them, as a new array.

        rho has shape (..., dim, dim); every matrix of the stack is mapped
        on its own, with the same arithmetic as when it is passed alone:
        the nine-term stencil, O(dim^2) per matrix. rho is copied into a
        zero-bordered (..., dim + 4, dim + 4) array of its own type (float64
        at least), and each shift's coefficients, as a dim x dim view, are
        multiplied by one slice of that copy, so each pass reads 2 zeros
        past every edge of rho, as far as the largest shift reaches. Every
        coefficient is real, so a real rho gives a float64 result and a
        complex one a complex result whose real and imaginary parts are
        those of its two planes applied alone. Each shift is summed with
        its transposed partner before it is added, so a Hermitian rho gives
        an exactly Hermitian result. Nothing is kept between calls.
        """
        rho = np.asarray(rho)
        dim = self.dim
        if rho.ndim < 2 or rho.shape[-2:] != (dim, dim):
            raise ValueError("density matrix shape does not match the generator")
        padded = np.zeros(rho.shape[:-2] + (dim + 4, dim + 4), np.result_type(rho, float))
        padded[..., 2:-2, 2:-2] = rho
        coefs = self._coefficients

        def term(di, dj, out=None):
            shifted = padded[..., 2 + di:2 + di + dim, 2 + dj:2 + dj + dim]
            return np.multiply(coefs[di, dj].reshape(dim, dim), shifted, out=out)

        out = term(0, 0)
        ta, tb = np.empty_like(out), np.empty_like(out)
        for a, b in zip(_SHIFTS[1::2], _SHIFTS[2::2]):
            term(*a, out=ta)
            term(*b, out=tb)
            ta += tb
            out += ta
        return out

    def superoperator(self) -> np.ndarray:
        """Dense dim^2 x dim^2 matrix acting on row-major vectorized rho.

        Built anew on every call and not cached, so the caller decides how
        long its 16 dim^4 bytes stay alive. Building it holds three such
        arrays; raises ValueError before allocating when their 48 dim^4
        bytes exceed physical memory.
        """
        dim = self.dim
        _check_memory(48 * dim ** 4, f"the dense superoperator at dim {dim}")
        eye = np.eye(dim, dtype=complex)  # the cast np.kron makes of a real one
        d, dag, p, q, k = self._normal_form
        out, half, term = (np.empty((dim,) * 4, dtype=complex) for _ in range(3))

        def kron(a, b, into):
            # np.kron's products block by block: np.kron may copy them on its
            # final reshape, and one broadcast product takes ufunc buffers
            for i, j in np.ndindex(dim, dim):
                np.multiply(a[i][:, None], b[j][None, :], out=into[i, j])
            return into

        # gamma_p (A + B - 0.5 (C + D)), summed in place in the order of that expression
        kron(d, p.T, out)
        out += kron(dag, q.T, term)
        kron(k, eye, half)
        half += kron(eye, k.T, term)
        half *= 0.5
        out -= half
        out *= self.params.gamma_p
        return out.reshape(dim * dim, dim * dim)

    def _row_sums(self) -> np.ndarray:
        """The absolute row sums of ``superoperator()``, one per coherence, as a (dim, dim) array.

        Each row holds one coefficient per term of the stencil, read from
        ``_coefficients``; they are summed in the order of ``_SHIFTS``.
        """
        terms = (np.abs(coef) for coef in self._coefficients.values())
        sums = next(terms)
        for magnitude in terms:
            sums += magnitude
        return sums.reshape(self.dim, self.dim)

    def norm_bound(self) -> float:
        """The largest absolute row sum of ``superoperator()``, >= |lambda| for every eigenvalue.

        Read from the stencil's coefficients in O(dim^2).
        """
        return float(np.max(self._row_sums()))


def spin_liouvillian(ops: CollectiveOps, params: SqueezingParams) -> Liouvillian:
    """The generator for S-, from its superdiagonal ``ops.s``: no dense operator is read."""
    return Liouvillian(ops.s, params)


def _fock_ladder(cutoff: int) -> np.ndarray:
    """The superdiagonal of ``a`` on ``cutoff`` Fock levels: sqrt(k) for k = 1 .. cutoff - 1."""
    if cutoff < 2:
        raise ValueError("Fock cutoff must be >= 2")
    return np.sqrt(np.arange(1, cutoff))


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Truncated bosonic annihilation operator on ``cutoff`` Fock levels."""
    return np.diag(_fock_ladder(cutoff), 1).astype(complex)


def oscillator_liouvillian(cutoff: int, params: SqueezingParams) -> Liouvillian:
    return Liouvillian(_fock_ladder(cutoff), params)


@dataclass
class Trajectory:
    """Integrated master-equation trajectory with sanity diagnostics."""

    times: np.ndarray
    states: np.ndarray  # shape (T, dim, dim), or (T, B, dim, dim) for a batch
    diagnostics: dict

    def expectations(self, op: np.ndarray) -> np.ndarray:
        """Tr(op rho) at every recorded time (real part), shape states.shape[:-2]."""
        return np.einsum("ij,...ji->...", op, self.states).real

    def sym_covariances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Symmetrized covariance of a and b at every recorded time, shape states.shape[:-2]."""
        anti = 0.5 * np.einsum("ij,...ji->...", a @ b + b @ a, self.states).real
        return anti - self.expectations(a) * self.expectations(b)

    @property
    def final_state(self) -> np.ndarray:
        """A copy of the last state, so holding it does not keep ``states`` alive."""
        return self.states[-1].copy()


def _state_diagnostics(states: np.ndarray) -> dict:
    """Witnesses over every member of every record, one record at a time."""
    traces = np.einsum("...ii->...", states).real
    herm = max(float(np.max(np.abs(s - s.conj().swapaxes(-1, -2)))) for s in states)
    # every record is exactly Hermitian (``evolve`` reads it back from one
    # real plane), so eigvalsh, which reads one triangle, needs no symmetrizing
    min_eig = min(float(np.min(np.linalg.eigvalsh(s))) for s in states)
    return {
        "max_trace_drift": float(np.max(np.abs(traces - 1.0))),
        "max_hermiticity_residual": herm,
        "min_eigenvalue": min_eig,
    }


def _check_evolve_memory(members: int, dim: int, records: int, sectors: int, images: int = 0):
    """Refuse, with ValueError, an ``evolve`` whose arrays would not fit in physical memory.

    The call propagates ``members`` dim x dim states, recorded at
    ``records`` output times, as one real row per member that holds
    ``sectors`` live parity sectors (one or two): n = sectors L values of
    packed planes (``_plane_size``), with 4W border zeros. With
    E = members dim^2 and N = members rows of R = n + 4W values, the
    estimate counts each array at its largest, as if all were alive at
    once: the complex input and states, 16 E (1 + records) bytes; 8 N R
    bytes for each of the packed start, the records, the 18 rows of
    ``ode.propagate``'s ring (a block of 16 terms and the two before it;
    the growth check reads the block's max and min, with no |.|
    temporary), and a window's outputs and the product added to them (up
    to one row per output time and one per fallback width each, 3
    fallbacks); the kernel writes each term straight into its ring row,
    from a strided window of the row before and the box of coefficients
    broadcast over the members, through views of the ring built once, so
    it holds no array of its own; the read-back's real dim x dim records and
    the values of one sector's entries moved into them, 12 E records, more
    than the 12 E of packing the start; the stencil's 72 dim^2, the scaled packed copy of it, 144 L,
    with its 32 dim^2 of indices and their build, and the 32 dim^2 of
    checking one member's Hermiticity. Python objects and the cached
    Chebyshev series are not counted. A caller that holds ``images``
    complex dim x dim matrices next to the call's arrays adds their
    16 images dim^2 bytes: ``fig3b_ellipses`` calls it for every n before
    it stacks its densities, with the members of its largest batch (one
    per orbit of its phi grid for each theta of the batch) and four images
    per grid member and theta of that batch, its pre and post stacks and
    the products Sx rho and Sy rho of one of them that
    ``_matrix_moments`` makes.
    """
    width, length = _plane_size(dim)
    entries = members * dim * dim
    row_bytes = 8 * members * (sectors * length + 4 * width)
    _check_memory(16 * entries * (1 + records)
                  + row_bytes * (1 + 3 * records + 2 * _FALLBACKS + _BLOCK + 2)
                  + 12 * entries * records + (136 + 16 * images) * dim * dim + 144 * length,
                  f"evolving {members} states of dim {dim} to {records} records")


def evolve(liouv: Liouvillian, rho0: np.ndarray | QuantumState, times,
           rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Propagate the master equation from rho0 and record rho at ``times``.

    times are output times as for ``ode.propagate``, with rho0 the state at
    times[0]; a number t means (0, t). rho0 is one density matrix
    (dim, dim) or a batch (B, dim, dim), propagated as one stack with each
    member held to rtol and atol on its own; ``states`` has shape
    (len(times),) + rho0.shape. Every member must be Hermitian, by the
    rule of ``QuantumState.from_matrix`` (max |rho0 - rho0+| <= 1e-12), or
    ValueError is raised before the stencil is built.

    One real plane. The generator's coefficients are real, so it maps
    Re rho and Im rho on their own, and their sum X = Re rho + Im rho as
    it maps each. For a Hermitian rho, Re rho is symmetric and Im rho
    antisymmetric, so X holds both: Re rho = (X + X^T) / 2 and
    Im rho = (X - X^T) / 2. ``evolve`` propagates X and reads each record
    back that way, halving X first, so every recorded state is exactly
    Hermitian; a real start has X = Re rho and reads back bit for bit.
    Read back, an entry carries the rounding of Re rho +- Im rho, at most
    about eps max(|Re rho|, |Im rho|). A real generator keeps a real state
    real, but the kernel's order of summation leaves X_ij and X_ji of a
    real start apart by a rounding, so every member whose start has
    Im rho = 0 exactly has Im rho set to +0.0 in every record: a
    projection onto what the generator keeps, not a renormalization. No
    term links the parity sectors of rho (i - j even and i - j odd), and
    (i, j) and (j, i) share one, so X
    is handed to ``ode.propagate`` as S live sectors: S = 1 holds the one
    sector in which some member has a nonzero entry (the even one for the
    vacuum), and S = 2 both. A member's row is its live sectors' packed
    planes (``_sector_layout``) end to end with 2W zeros on each side, and
    the stack is (B, row), or (row,) for one state. What is not propagated
    stays exactly +0.0 in ``states``. Each member's peak is taken over X,
    and max(|X_ij|, |X_ji|) = |Re rho_ij| + |Im rho_ij| lies between
    |rho_ij| and sqrt(2) |rho_ij|, so rtol and atol keep their meaning.
    Before anything of their size is allocated, ``_check_evolve_memory``
    refuses with ValueError a call whose input, rows, records, states and
    the arrays ``ode.propagate`` holds during a window would not fit in
    physical memory; the kernel holds no array of its own.

    Every generator takes the same path: ``ode.propagate`` sums a Chebyshev
    series of exp(h L) over windows of length h, with the bound
    a = ``liouv.norm_bound()``, the largest absolute row sum of the
    superoperator, read after ``_check_evolve_memory``, so a refused call
    builds no stencil. Each term T_{k+1} = 2 A~ T_k - T_{k-1} is one
    ``np.einsum`` of the stencil scaled by 4/a with 2 added to its centre
    (``Liouvillian._packed``'s (3, 3, 2L) box) against one strided
    (3, 3, B, n) window of T_k, whose cell (u, v) is the shift
    u (W + 1) + v (W - 1) of every member's interior of n values, written
    straight into the interiors of the ring row that holds T_{k+1}; T_{k-1}
    is then subtracted there. The kernel builds the window of every row of
    ``ode.propagate``'s ring, and the views of its interiors, once, when
    the ring is handed to it, so a term makes no array. The live sectors'
    slice of the box broadcasts over the members, so nothing is copied per
    member. Only interiors are
    written, so the 2W border zeros on each side of a member stay zero,
    and since a shift that leaves rho has a zero coefficient, no member
    reads another. A series is cut where
    its tail of coefficients falls to 0.1 min(rtol, atol), at degree 88 at
    most (64 after a refusal); a window is refused when a term grows past
    1e3 times the state or the extrapolated tail exceeds the tolerance, and
    then ends at the widest narrower width whose own series passes over
    the terms already made (see ``ode.propagate``). At Fock cutoff 59
    (a = 658.6) the oscillator oracle reaches t = 20 in 48 windows of
    degree 86 to 88, none refused, on one sector of 1799 values.

    No trace renormalization is applied, so trace drift stays a genuine
    global-error witness (the truncated series loses about its tail per
    window). The trace, hermiticity and eigenvalue witnesses read every
    member of every record, and only the records, and report the worst;
    the hermiticity residual is zero by construction of the read-back, not
    by renormalization. The diagnostics add ``sectors``, S. One DEBUG line
    per call logs the batch size, dim, S, the bound, the windows, the
    refused windows and those of them salvaged at a narrower width, the
    terms (``rhs_evals``), the degree and window ranges, and the number of
    records and their bytes.
    """
    if isinstance(rho0, QuantumState):
        rho0 = rho0.density()
    rho0 = np.asarray(rho0, dtype=complex)
    dim = liouv.dim
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (dim, dim) or rho0.size == 0:
        raise ValueError("initial state shape does not match the generator: expected "
                         f"({dim}, {dim}) or (B, {dim}, {dim}), got {rho0.shape}")
    stack = rho0 if rho0.ndim == 3 else rho0[None]
    members = len(stack)
    times = _output_times(times)
    # sector s holds the entries with i + j = s (mod 2): the even rows' columns of parity s
    # and the odd rows' columns of the other parity
    live = [s for s in (0, 1)
            if np.any(stack[:, 0::2, s::2]) or np.any(stack[:, 1::2, 1 - s::2])] or [0]
    _check_evolve_memory(members, dim, len(times), len(live))
    for number, member in enumerate(stack):
        _check_hermitian(member, f"initial state {number}" if rho0.ndim == 3 else "initial state")
    bound = liouv.norm_bound()
    _check_positive(bound=bound)
    width, length, sectors, box = liouv._packed
    # the live sectors' planes end to end, with 2W zeros on each side
    first, interior = (0, 2 * length) if len(live) == 2 else (live[0] * length, length)
    box = box[..., first:first + interior]
    pad = 2 * width
    row = interior + 2 * pad
    y0 = np.zeros((members, row))
    real, imag = (part.reshape(members, dim * dim) for part in (stack.real, stack.imag))
    for slot, s in enumerate(live):
        index, position = sectors[s]
        y0[:, pad + slot * length + position] = real[:, index] + imag[:, index]
    y0 = y0.reshape((members, row) if members > 1 else (row,))
    # the nine shifted copies of every member's interior, as one window of the term: cell
    # [u + 1, v + 1] starts u (W + 1) + v (W - 1) >= -2W values from the interior, so the
    # window starts at the row's first value and ends at the batch's last
    batch = y0.shape[:-1]
    window = (3, 3) + batch + (interior,)
    strides = (8 * (width + 1), 8 * (width - 1)) + (8 * row,) * len(batch) + (8,)
    inner = (..., slice(pad, pad + interior))

    def kernel(ring):
        # propagate's ring is contiguous, so each row's window is a view of it at the row's
        # offset; every view is built here once, and each step writes only an interior
        rows = [(np.ndarray(window, np.float64, ring, r * ring[0].nbytes, strides), ring[r][inner])
                for r in range(len(ring))]

        def step(i):
            into = rows[i][1]
            np.einsum("uv...,uv...->...", box, rows[i - 1][0], out=into)
            np.subtract(into, rows[i - 2][1], out=into)

        return step

    result = propagate(kernel, bound, y0, times, rtol, atol)
    records, diagnostics = result.states, dict(result.diagnostics, sectors=len(live))
    del result, y0
    records = records.reshape(len(times), members, row)
    x = np.zeros((len(times), members, dim * dim))
    for slot, s in enumerate(live):
        index, position = sectors[s]
        x[..., index] = records[..., pad + slot * length + position]
    del records
    x *= 0.5
    x = x.reshape(len(times), members, dim, dim)
    states = np.empty((len(times),) + rho0.shape, dtype=complex)
    by_member = states.reshape(x.shape)  # a view
    np.add(x, x.swapaxes(-1, -2), out=by_member.real)
    np.subtract(x, x.swapaxes(-1, -2), out=by_member.imag)
    del x
    # a real generator keeps a real start real; the sum's order leaves X's transposed
    # entries apart by a rounding, which Im rho would show, so a real start's is set to +0.0
    by_member.imag[:, ~np.any(stack.imag, axis=(1, 2))] = 0.0
    diagnostics.update(_state_diagnostics(states))
    logger.debug("evolve batch=%d dim=%d sectors=%d bound=%.6g windows=%d refused=%d "
                 "salvaged=%d rhs_evals=%d degree=[%d, %d] window=[%.3e, %.3e] records=%d "
                 "bytes=%d", members, dim, len(live), diagnostics["bound"],
                 diagnostics["accepted"], diagnostics["rejected"], diagnostics["salvaged"],
                 diagnostics["rhs_evals"], diagnostics["degree_min"],
                 diagnostics["degree_max"], diagnostics["dt_min"], diagnostics["dt_max"],
                 len(states), states.nbytes)
    return Trajectory(times=times, states=states, diagnostics=diagnostics)


def _orders(dim: int, parity: int) -> range:
    """The coherence orders k = i - j of one parity sector, in increasing order."""
    return range(1 - dim + (dim - 1 + parity) % 2, dim, 2)


def _order_slice(dim: int, k: int) -> slice:
    """The row-major positions of the coherences rho[i, i - k], in increasing i, as a slice.

    It reads the level of order k from any flattened dim x dim array, as
    ``np.diagonal(a, -k)`` reads it from the unflattened one.
    """
    start = k * dim if k >= 0 else -k
    return slice(start, start + (dim - abs(k)) * (dim + 1), dim + 1)


def _block(coefs: dict, dim: int, k: int, k_next: int) -> np.ndarray:
    """The block coupling the coherences of order k to those of order k_next, k or k +- 2.

    coefs are the generator's ``_coefficients``, whose entry q holds the
    coefficient for the coherence at row-major position q. Slot p of the
    level of order k holds rho[i, i - k], i = p + max(k, 0), at row-major
    position start + p (dim + 1) as in ``_order_slice``. The shift
    (di, dj), one of the at most three with di - dj = k_next - k, couples
    it to rho[i + di, i - k + dj], slot p + max(k, 0) + di - max(k_next, 0)
    of the level of order k_next, with the coefficient at the position of
    rho[i, i - k] in coefs[(di, dj)]. So each shift fills one diagonal of
    the block: a strided slice of the flattened block, written from a
    slice of its coefficients with the stride dim + 1 of ``_order_slice``.
    No two shifts fill the same diagonal. The order-0 level holds the
    diagonal of rho, and its first row, that of rho[0, 0], is replaced by
    Tr rho = 1: ones toward its own level, zeros toward any other.
    """
    rows, cols = dim - abs(k), dim - abs(k_next)
    out = np.zeros(rows * cols)
    start, base = (k * dim if k >= 0 else -k), max(k, 0) - max(k_next, 0)
    for di, dj in _SHIFTS_BY_CHANGE[k_next - k]:
        offset = base + di
        first, last = max(0, -offset), min(rows, cols - offset)
        if first < last:
            out[first * (cols + 1) + offset:last * (cols + 1) + offset:cols + 1] = \
                coefs[di, dj][start + first * (dim + 1):start + last * (dim + 1):dim + 1]
    out = out.reshape(rows, cols)
    if k == 0:
        out[0] = 1.0 if k_next == 0 else 0.0
    return out


def _trace_row_sums(liouv: Liouvillian) -> tuple[np.ndarray, np.ndarray]:
    """Absolute row and column sums of the superoperator with the row of rho[0, 0] replaced by Tr rho = 1.

    Both are flattened over the coherences and read from the generator's
    ``_coefficients``. A row holds one coefficient per term, and the term
    on shift (di, dj) puts the coefficient for rho[i, j] in the column of
    rho[i + di, j + dj]; the magnitudes are added shifted
    into an array with a border of 2, the largest shift, which takes only
    zeros, since the coefficients vanish wherever a shift would leave rho.
    Each sum is taken term by term in the order of ``_SHIFTS``. The row of
    rho[0, 0] sums to its dim ones; its old entries leave their columns,
    and each diagonal column gains 1.
    """
    dim = liouv.dim
    rows = liouv._row_sums()
    rows[0, 0] = dim
    cols = np.zeros((dim + 4, dim + 4))
    for (di, dj), coef in liouv._coefficients.items():
        magnitude = np.abs(coef).reshape(dim, dim)
        magnitude[0, 0] = 0.0
        cols[2 + di:2 + di + dim, 2 + dj:2 + dj + dim] += magnitude
    cols = cols[2:-2, 2:-2].ravel()
    cols[::dim + 1] += 1.0
    return rows.ravel(), cols


def _solve_sector(rho: np.ndarray, orders: range, coefs: dict, sums: tuple,
                  rng) -> tuple[float, float, float, float]:
    """Stationary coherences of one sector, written into the flattened rho, with a degeneracy test.

    orders are the sector's coherence orders (``_orders``), coefs the
    generator's ``_coefficients``, and sums the row and column sums of
    ``_trace_row_sums``. No term links two sectors, and a term changes the
    order by 0 or +-2, so ordered by k the sector's block is block
    tridiagonal, and ``_block`` reads each of its blocks from the stencil
    when the sweep first needs it. In the sector holding the diagonal the
    row of rho[0, 0] is replaced by Tr rho = 1 (the generator preserves the
    trace, so that row is a combination of the others); it lies in the
    level of the diagonal and couples to no other level.

    The sweep eliminates levels from both ends toward the center (the level
    holding the diagonal, or the middle one): each level's Schur block is
    solved for its coupling toward the center and its right-hand sides,
    the solve is kept, and its product with the coupling back out is
    subtracted from the next level in. The center is solved last, and the
    kept solves give the other levels outward. One random right-hand side
    b, drawn in the sector's row-major order, is solved with the Tr rho = 1
    system, as its real and imaginary parts so that every solve stays real;
    since |x_b| <= |b| / sigma_min, sigma = |b| / |x_b| estimates sigma_min
    from above. Returns sigma, s0 = sqrt(|B|_1 |B|_inf) from the sums, a
    bound on the largest singular value, and the seconds spent building
    the blocks and solving them. Raises DegenerateSteadyStateError when an
    LU pivot of a Schur block is zero or sigma is at or below numpy's rank
    tolerance s0 * N * eps for a sector of N coherences.

    Its own O(dim^2) arrays are the sector's mask and its draw of b,
    scattered into a flattened dim x dim complex array (about 40 bytes per
    entry of rho at peak); each block is written from slices of coefs.
    """
    start = time.perf_counter()
    dim = math.isqrt(len(rho))
    sizes = [dim - abs(k) for k in orders]
    in_sector = (np.add.outer(np.arange(dim), np.arange(dim)) % 2 == orders[0] % 2).ravel()
    b = rng.normal(size=sum(sizes)) + 1j * rng.normal(size=sum(sizes))
    drawn = np.zeros(dim * dim, dtype=complex)
    drawn[in_sector] = b
    rows, cols = sums
    s0 = math.sqrt(cols[in_sector].max() * rows[in_sector].max())
    del in_sector
    center = len(orders) // 2  # the order-0 level in the sector holding the diagonal
    scattering = [0.0]  # seconds spent in block, within the sweep

    def block(number, step):
        """The block coupling level ``number`` to level ``number + step``."""
        began = time.perf_counter()
        out = _block(coefs, dim, orders[number], orders[number + step])
        scattering[0] += time.perf_counter() - began
        return out

    def rhs(number):
        """Level ``number``'s right-hand sides: Tr rho = 1, then Re b and Im b."""
        out = np.zeros((sizes[number], 3))
        level = drawn[_order_slice(dim, orders[number])]
        out[:, 1], out[:, 2] = level.real, level.imag
        if orders[number] == 0:
            out[0, 0] = 1.0
        return out

    sweep = time.perf_counter()
    kept = {}  # level -> its Schur block solved for [coupling toward the center | rhs]
    try:
        center_block, center_rhs = block(center, 0), rhs(center)
        for step, outer in ((-1, len(orders) - 1), (1, 0)):
            if outer == center:
                continue
            schur, y = block(outer, 0), rhs(outer)
            for number in range(outer, center, step):
                solved = kept[number] = np.linalg.solve(
                    schur, np.hstack((block(number, step), y)))
                inner = number + step
                schur, y = ((center_block, center_rhs) if inner == center
                            else (block(inner, 0), rhs(inner)))
                outward = block(inner, -step)
                schur -= outward @ solved[:, :-3]
                y -= outward @ solved[:, -3:]
        x = {center: np.linalg.solve(center_block, center_rhs)}
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(f"steady state is degenerate: {exc}") from exc
    for number in [*range(center + 1, len(orders)), *range(center - 1, -1, -1)]:
        inner = number - 1 if number > center else number + 1
        solved = kept.pop(number)
        x[number] = solved[:, -3:] - solved[:, :-3] @ x[inner]
    x_b = []
    for number, k in enumerate(orders):
        rho[_order_slice(dim, k)] = x[number][:, 0]
        x_b.append(x[number][:, 1] + 1j * x[number][:, 2])
    swept = time.perf_counter() - sweep
    sigma = float(np.linalg.norm(b) / np.linalg.norm(np.concatenate(x_b)))
    tol = s0 * len(b) * np.finfo(float).eps
    if not sigma > tol:
        raise DegenerateSteadyStateError(
            f"steady state is degenerate: a sector of {len(b)} coherences has smallest "
            f"singular value about {sigma:.3e}, at or below {tol:.3e}")
    return sigma, s0, sweep - start + scattering[0], swept - scattering[0]


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix from one block-tridiagonal solve per coherence sector.

    The sector holding the diagonal is solved with Tr rho = 1 in place of
    one population row; every other sector must be nonsingular, so the
    stationary state has none of its coherences. Each sector's blocks are
    read from the stencil's coefficients, so the full superoperator is
    never built. Each parity sector is block tridiagonal in the coherence
    order k = i - j, with about dim levels of size dim - |k|; solving one
    costs about dim dense solves of size up to dim, O(dim^4) time and
    O(dim^3) memory in all (0.44 s and 59 MB peak RSS for ``steady-state
    --spins 160`` on a 2-core machine).

    Thresholds, for each solved sector B of N coherences, with s0 =
    sqrt(|B|_1 |B|_inf) >= its largest singular value and eps the float64
    machine epsilon: the smallest singular value, estimated from one extra
    solve with a fixed-seed random right-hand side, must exceed numpy's
    rank tolerance s0 * N * eps, and the state must satisfy
    max |L rho| <= max(1e-10, dim * eps * s0) with s0 the largest over the
    sectors. Raises DegenerateSteadyStateError otherwise, or when an LU
    pivot of a Schur block is exactly zero; degeneracy is reported, never
    silently resolved.

    Raises ValueError when the memory estimate exceeds physical memory,
    before the stencil or anything else larger than O(1) is allocated.
    The estimate is O(dim^3): the kept solves hold at most n + 3 entries
    for each coherence of the largest sector, where n is the largest level,
    and the diagonal, coupling and Schur blocks in flight and the solver's
    copies hold at most 8 n^2 more, at 8 bytes an entry (the blocks are
    real), so at least 4 dim^3 bytes. 184 bytes per entry of rho cover the
    O(dim^2) arrays at the residual, where they peak: the stencil's
    coefficients (72, the one copy that ``apply``, the blocks and the sums
    all read), the state (16), ``apply``'s complex zero-bordered copy, the
    two products of a pair and the result (64), and the two buffers in
    which numpy casts the real coefficients to complex for the products
    (32, up to 8192 complex values each). During the sweep the
    coefficients, the row and column sums, the state and a sector's draw
    of b and its scatter hold about 128. A fixed 16 KiB covers the sweep's
    Python objects, the random generator and numpy's small buffers, which
    the traced peak at dim 2 (about 8.6 KB) is nearly all of. Traced at
    n = 160 and 320 (nbar = 0.5, m = 0.2), the peak is about 0.7 of the
    estimate, and from n = 1 to 80 between 0.5 and 0.7; the first dim
    refused on a 7.84 GiB machine is 1261.

    One DEBUG line gives each sector's size, level count, largest level and
    sigma / s0, the residual, the wall time, and within it the seconds
    spent building the blocks (the stencil, the row and column sums, a
    sector's draw of b, and the blocks) and solving them, each summed over
    the sectors.
    """
    start = time.perf_counter()
    dim = liouv.dim
    sectors = [orders for orders in (_orders(dim, 0), _orders(dim, 1)) if orders]
    largest = dim  # the order-0 level, in the even sector, which is the larger
    _check_memory(8 * ((dim * dim + 1) // 2 * (largest + 3) + 8 * largest ** 2)
                  + 184 * dim ** 2 + 16384, f"the steady-state solve at dim {dim}")
    sums = _trace_row_sums(liouv)  # builds the stencil, if no call before did
    seconds = np.array([time.perf_counter() - start, 0.0])  # building, solving
    rng = np.random.default_rng(0)
    rho = np.zeros(dim * dim, dtype=complex)
    s0_max, conditioning = 0.0, []
    for orders in sectors:
        sigma, s0, *sector_seconds = _solve_sector(rho, orders, liouv._coefficients, sums, rng)
        seconds += sector_seconds
        s0_max = max(s0_max, s0)
        sizes = [dim - abs(k) for k in orders]
        conditioning.append(f"{sum(sizes)}:{len(orders)}:{max(sizes)}:{sigma / s0:.3e}")
    del sums  # freed before the residual's apply allocates its arrays
    rho = rho.reshape(dim, dim)
    rho = 0.5 * (rho + rho.conj().T)
    residual = float(np.max(np.abs(liouv.apply(rho))))
    residual_tol = max(1e-10, dim * np.finfo(float).eps * s0_max)
    logger.debug("steady_state dim=%d sectors (size:levels:largest:sigma_min/s0) %s "
                 "residual=%.3e (tol %.1e) build=%.3e s solve=%.3e s wall=%.3e s", dim,
                 " ".join(conditioning), residual, residual_tol, *seconds,
                 time.perf_counter() - start)
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
    log_fact = np.cumsum(np.log(np.maximum(ks, 1)))
    amps = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** ks / np.exp(0.5 * log_fact)
    norm = np.linalg.norm(amps)
    if abs(norm - 1.0) > 1e-10:
        raise CutoffError(f"coherent state |alpha|={abs(alpha):.3g} does not fit "
                          f"in {cutoff} Fock levels")
    return amps / norm


_TOP_POP_TOL = 1e-8
_MAX_CUTOFF = 512


def oscillator_oracle(params: SqueezingParams, times,
                      cutoff: int | None = None, alpha: complex = 0.0,
                      rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Master-equation trajectory for the oscillator limit (d = a), recorded at ``times``.

    Starts from a (possibly displaced) vacuum and doubles the Fock cutoff,
    up to 512 levels, until the coherent start fits and the top-level
    population stays below 1e-8 on every record, which for a number t means
    t = 0 and t alone, as for ``evolve``'s witnesses. An explicit
    ``cutoff`` is never doubled: CutoffError is raised when either fails
    there.
    """
    cut = cutoff if cutoff is not None else default_oscillator_cutoff(params)
    while True:
        if cut > _MAX_CUTOFF:
            raise CutoffError(f"required Fock cutoff exceeds the limit {_MAX_CUTOFF}")
        try:
            psi0 = QuantumState(coherent_state_vector(cut, alpha), "vector")
        except CutoffError:
            if cutoff is not None:
                raise
            cut *= 2
            continue
        traj = evolve(oscillator_liouvillian(cut, params), psi0, times, rtol=rtol, atol=atol)
        top_pop = float(np.max(traj.states[:, -1, -1].real))
        traj.diagnostics["cutoff"] = cut
        traj.diagnostics["max_top_population"] = top_pop
        if top_pop < _TOP_POP_TOL:
            return traj
        if cutoff is not None:
            raise CutoffError(
                f"top-level population {top_pop:.3e} exceeds {_TOP_POP_TOL:.1e} "
                f"at the requested cutoff {cutoff}")
        cut *= 2
