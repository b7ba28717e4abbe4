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

``dissipator`` keeps the four-channel form as an independent reference.

Banded stencil. S- in the Dicke basis and the truncated ``a`` have only a
superdiagonal, s_k = op[k, k+1]. With s_k = 0 outside 0 <= k <= dim - 2,
the normal form is then a sum of nine shifted, elementwise-scaled copies
of rho, (L rho)[i, j] = gamma_p sum c[i, j] rho[i + di, j + dj]:

    (0, 0)              -(1/2)(kappa_i + kappa_j),
                        kappa_k = (nbar+1) s_{k-1}^2 + nbar s_k^2
    (+1, +1), (-1, -1)  (nbar+1) s_i s_j,  nbar s_{i-1} s_{j-1}
    (+1, -1), (-1, +1)  -m s_i s_{j-1},   -m s_{i-1} s_j
    (+2, 0), (-2, 0)    (m/2) s_i s_{i+1}, (m/2) s_{i-2} s_{i-1}
    (0, +2), (0, -2)    (m/2) s_j s_{j+1}, (m/2) s_{j-2} s_{j-1}

The coefficients are fixed once per generator and vanish wherever a shift
would leave rho, so ``apply`` reads each shifted copy as one slice of the
zero-padded, row-major flattened rho: O(dim^2) against the six O(dim^3)
products of the normal form. ``Liouvillian`` refuses every other op; the
dense P, Q and K of the normal form build only ``superoperator``, the dense
reference.

Parity sectors. A superdiagonal op is parity-odd (op[i, k] = 0 whenever
i - k is even), so d, d+, P and Q flip the parity of a basis index and K
keeps it. Each term of the generator then moves the coherence rho[i, j]
only to coherences of the same parity of i - j, so the dim^2 x dim^2
superoperator splits exactly into an even-(i - j) and an odd-(i - j)
block with nothing between them. ``sectors`` lists the row-major positions
of each.

Coherence order. Every stencil term changes the coherence order k = i - j
by 0 or +-2, so ordered by k each sector is block tridiagonal: a level of
order k holds dim - |k| coherences and couples only to the levels k +- 2.
``steady_state`` scatters the nonzero entries of the superoperator, from
``entries`` (the stencil's coefficients, at most nine per coherence), into
these real blocks and eliminates the levels from both ends toward the one
holding the diagonal: about dim dense solves of size up to dim per sector,
O(dim^4) time and O(dim^3) memory, and the full superoperator is never
built. From the CLI, ``steady-state --spins 40``, ``80`` and ``160`` take
0.23, 0.26 and 0.48 s with peak RSS 38, 44 and 70 MB (2-core machine).

Time evolution. ``evolve`` sums a Chebyshev series of exp(h L) in the
rescaled generator (2/a) L + 1 (``ode.propagate``), over windows of degree
up to 64, with ``apply`` as its only operation. The bound a is
``norm_bound()``, the largest absolute row sum of the superoperator, read
from the stencil's coefficients in O(dim^2); every eigenvalue of L lies in
|z| <= a. At Fock cutoff 59 (a = 658.6) the oscillator oracle reaches
t = 20 in 93 windows and 5935 ``apply`` calls, where the explicit RK45
stepper it replaced, held by stability to steps of about 3.3 / a, took
3530 steps and 21733 calls.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import SqueezingParams
from .ode import _check_memory, propagate
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

logger = logging.getLogger(__name__)


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


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte (cache-line) boundary.

    The stencil streams its coefficient, work and result arrays through SIMD
    loads. Where the allocator happens to place them depends on the heap's
    history, and at dim 59 ``apply`` took about 1.5 times as long with them
    16 bytes off a cache line as with them aligned.
    """
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def _stencil(s: np.ndarray, params: SqueezingParams):
    """Coefficients of the nine-term stencil for the real superdiagonal s of op.

    Returns (pad, center, pairs) for ``Liouvillian.apply``: the number of
    zeros put on both sides of the flattened float64 view of rho, the coefficient
    of the unshifted term, and the shifted terms as pairs of (start,
    coefficient), where start locates the shifted copy of rho in the padded
    array. Each coefficient is repeated for the real and imaginary halves of
    an entry, and a pair whose coefficients are zero everywhere is left
    out. See the module docstring for the terms.
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
    # a term and the transpose of its coefficient on the transposed shift
    # are summed first, so a Hermitian rho gives an exactly Hermitian result
    terms = (((1, 1), (nbar + 1.0) * np.outer(s0, s0), (-1, -1), nbar * np.outer(sm1, sm1)),
             ((1, -1), cross, (-1, 1), cross.T),
             ((2, 0), dd, (0, 2), dd.T),
             ((-2, 0), uu, (0, -2), uu.T))
    pad = 2 * 2 * dim  # the largest shift, (2, 0), in float64 entries

    def start(shift):
        return pad + 2 * (shift[0] * dim + shift[1])

    def interleaved(coef):
        out = _aligned_empty((2 * coef.size,))
        out[0::2] = out[1::2] = params.gamma_p * coef.ravel()
        return out

    center = interleaved(-0.5 * (kappa[:, None] + kappa))
    pairs = [((start(a), interleaved(ca)), (start(b), interleaved(cb)))
             for a, ca, b, cb in terms if np.any(ca) or np.any(cb)]
    return pad, center, pairs


@dataclass
class Liouvillian:
    """Squeezed-bath Lindblad generator for a lowering operator ``op``.

    ``op`` must be a nonempty square matrix whose only nonzero entries are
    real and on the superdiagonal, as S- in the Dicke basis and the
    truncated ``a`` are; an op with a diagonal entry, a complex or rotated
    superdiagonal or dense entries raises ValueError here. Only the
    superdiagonal s_k = op[k, k + 1] is kept up front: the stencil is built
    on the first ``apply``, ``entries`` or ``norm_bound``, and the dense
    d+, P, Q and K only when ``superoperator`` reads them.
    """

    op: np.ndarray
    params: SqueezingParams

    def __post_init__(self):
        self.op = np.asarray(self.op, dtype=complex)
        self._work = None
        if self.op.ndim != 2 or self.op.shape[0] != self.op.shape[1] or self.op.size == 0:
            raise ValueError("system operator must be a nonempty square matrix")
        s = np.diag(self.op, 1)
        if np.count_nonzero(self.op) != np.count_nonzero(s) or np.any(s.imag):
            raise ValueError("system operator must have only a real superdiagonal "
                             "(a lowering operator such as S- or a)")
        self._s = s.real

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @cached_property
    def _normal_form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The dense (d+, P, Q, K) of the normal form."""
        p = self.params
        d, dag = self.op, self.op.conj().T
        return (dag, (p.nbar + 1.0) * dag - p.m_corr * d, p.nbar * d - p.m_corr * dag,
                (p.nbar + 1.0) * (dag @ d) + p.nbar * (d @ dag)
                - p.m_corr * (dag @ dag + d @ d))

    @cached_property
    def _banded(self):
        """The stencil of ``_stencil``."""
        return _stencil(self._s, self.params)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate drho/dt for a density matrix or a stack of them, as a new array.

        rho has shape (..., dim, dim); every matrix of the stack is mapped
        on its own, with the same arithmetic as when it is passed alone:
        the nine-term stencil, O(dim^2) per matrix, on the (2 dim^2,)
        float64 view of one matrix (or a stack of one) or the (B, 2 dim^2)
        view of a stack. The stencil keeps its work arrays for the last
        shape it was given, so one generator must not be applied from two
        threads at once.
        """
        rho = np.asarray(rho)
        if rho.ndim < 2 or rho.shape[-2:] != self.op.shape:
            raise ValueError("density matrix shape does not match the generator")
        # interleaved (re, im) float64 view of one matrix, or one row per
        # matrix of a stack, so every coefficient is real; a stack of one
        # takes the 1-d slices, about 8 us less per call at dim 59
        flat = (-1,) if rho.size == self.dim ** 2 else (-1, self.dim ** 2)
        x = np.ascontiguousarray(rho, dtype=complex).reshape(flat).view(np.float64)
        pad, center, pairs = self._banded
        n = x.shape[-1]
        # the zero-bordered copy of x and the two product arrays are kept for
        # the last shape applied: a stack's arrays can pass the size above which
        # glibc's allocator maps memory from the OS (128 KiB), and allocated on
        # every call they would be mapped and unmapped each time
        if self._work is None or self._work[1].shape != x.shape:
            self._work = (_aligned_empty(x.shape[:-1] + (n + 2 * pad,)),
                          _aligned_empty(x.shape), _aligned_empty(x.shape))
            self._work[0].fill(0.0)
        padded, ta, tb = self._work
        padded[..., pad:pad + n] = x
        out = np.multiply(center, x, out=_aligned_empty(x.shape))
        for (a, ca), (b, cb) in pairs:
            np.multiply(ca, padded[..., a:a + n], out=ta)
            np.multiply(cb, padded[..., b:b + n], out=tb)
            ta += tb
            out += ta
        return out.view(complex).reshape(rho.shape)

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
        dag, p, q, k = self._normal_form
        out, half, term = (np.empty((dim,) * 4, dtype=complex) for _ in range(3))

        def kron(a, b, into):
            # np.kron's products block by block: np.kron may copy them on its
            # final reshape, and one broadcast product takes ufunc buffers
            for i, j in np.ndindex(dim, dim):
                np.multiply(a[i][:, None], b[j][None, :], out=into[i, j])
            return into

        # gamma_p (A + B - 0.5 (C + D)), summed in place in the order of that expression
        kron(self.op, p.T, out)
        out += kron(dag, q.T, term)
        kron(k, eye, half)
        half += kron(eye, k.T, term)
        half *= 0.5
        out -= half
        out *= self.params.gamma_p
        return out.reshape(dim * dim, dim * dim)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the nonzero entries of ``superoperator()``.

        Each (row, col) pair appears once, and every value is real. They are
        read from the stencil in O(dim^2), without the dense matrix: the
        term on shift (di, dj) puts its coefficient for rho[i, j] at row
        i dim + j and column (i + di) dim + (j + dj), and since the
        coefficients vanish wherever a shift would leave rho, no entry
        wraps into another row of rho.
        """
        pad = self._banded[0]
        starts, coef = self._stencil_terms()
        # np.nonzero's (nnz, 2) buffer would stay alive behind strided views
        term, rows = np.divmod(np.flatnonzero(coef), coef.shape[1])
        return rows, rows + (starts[term] - pad) // 2, coef[term, rows]

    def _stencil_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The stencil's term offsets, in padded float64 entries, and its coefficients."""
        pad, center, pairs = self._banded
        starts, coefs = zip((pad, center), *(term for pair in pairs for term in pair))
        return np.array(starts), np.stack(coefs)[:, ::2]  # one of each (re, im) repeat

    def norm_bound(self) -> float:
        """The largest absolute row sum of ``superoperator()``, >= |lambda| for every eigenvalue.

        Read from the stencil's coefficients in O(dim^2): each row holds one
        coefficient per term.
        """
        return float(np.max(np.sum(np.abs(self._stencil_terms()[1]), axis=0)))

    def sectors(self) -> list[np.ndarray]:
        """The invariant coherence sectors, as row-major positions in rho.

        Two or more levels give the even and the odd sector of i - j, each
        in increasing order; one level gives one sector, its one coherence.
        """
        if self.dim < 2:
            return [np.arange(1)]
        parity = np.indices(self.op.shape).sum(axis=0) % 2  # of i + j, so of i - j
        return [np.flatnonzero(parity == 0), np.flatnonzero(parity)]


def spin_liouvillian(ops: CollectiveOps, params: SqueezingParams) -> Liouvillian:
    return Liouvillian(op=ops.sm, params=params)


def annihilation_operator(cutoff: int) -> np.ndarray:
    """Truncated bosonic annihilation operator on ``cutoff`` Fock levels."""
    if cutoff < 2:
        raise ValueError("Fock cutoff must be >= 2")
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


def oscillator_liouvillian(cutoff: int, params: SqueezingParams) -> Liouvillian:
    return Liouvillian(op=annihilation_operator(cutoff), params=params)


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
    min_eig = min(float(np.min(np.linalg.eigvalsh(0.5 * (s + s.conj().swapaxes(-1, -2)))))
                  for s in states)
    return {
        "max_trace_drift": float(np.max(np.abs(traces - 1.0))),
        "max_hermiticity_residual": herm,
        "min_eigenvalue": min_eig,
    }


def evolve(liouv: Liouvillian, rho0: np.ndarray | QuantumState, times,
           rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Propagate the master equation from rho0 and record rho at ``times``.

    times are output times as for ``ode.propagate``, with rho0 the state at
    times[0]; a number t means (0, t). rho0 is one density matrix
    (dim, dim) or a batch (B, dim, dim), propagated as one stack with each
    member held to rtol and atol on its own; ``states`` has shape
    (len(times),) + rho0.shape.

    Every generator takes the same path: ``ode.propagate`` sums a Chebyshev
    series of exp(h L) over windows of length h, one ``liouv.apply`` per
    term, with the bound a = ``liouv.norm_bound()``, the largest absolute
    row sum of the superoperator, read after the record guard. A series is
    cut where its tail of coefficients falls to 0.1 min(rtol, atol), at
    degree 64 at most; a window is refused and halved when a term grows
    past 1e3 times the state or the extrapolated tail exceeds the
    tolerance (see ``ode.propagate``). At Fock cutoff 59 (a = 658.6) the
    oscillator oracle reaches t = 20 in 93 windows of degree 47 to 64.

    No trace renormalization is applied, so trace drift stays a genuine
    global-error witness (the truncated series loses about its tail per
    window). The trace, hermiticity and eigenvalue witnesses read every
    member of every record, and only the records, and report the worst.
    One DEBUG line per call logs the batch size, dim, the bound, the
    windows and refused windows, the ``apply`` calls, the degree and window
    ranges, and the number of records and their bytes.
    """
    if isinstance(rho0, QuantumState):
        rho0 = rho0.density()
    rho0 = np.asarray(rho0, dtype=complex)
    dim = liouv.dim
    if rho0.ndim not in (2, 3) or rho0.shape[-2:] != (dim, dim) or rho0.size == 0:
        raise ValueError("initial state shape does not match the generator: expected "
                         f"({dim}, {dim}) or (B, {dim}, {dim}), got {rho0.shape}")
    stack = rho0 if rho0.ndim == 3 else rho0[None]
    result = propagate(liouv.apply, liouv.norm_bound, stack, times, rtol, atol)
    states = result.states.reshape((-1,) + rho0.shape)
    diagnostics = dict(result.diagnostics)
    diagnostics.update(_state_diagnostics(states))
    logger.debug("evolve batch=%d dim=%d bound=%.6g windows=%d refused=%d rhs_evals=%d "
                 "degree=[%d, %d] window=[%.3e, %.3e] records=%d bytes=%d", len(stack), dim,
                 diagnostics["bound"], diagnostics["accepted"], diagnostics["rejected"],
                 diagnostics["rhs_evals"], diagnostics["degree_min"], diagnostics["degree_max"],
                 diagnostics["dt_min"], diagnostics["dt_max"], len(states), states.nbytes)
    return Trajectory(times=result.times, states=states, diagnostics=diagnostics)


def _levels(liouv: Liouvillian, index: np.ndarray) -> list[np.ndarray]:
    """A sector's coherences grouped into the levels of its block-tridiagonal form.

    A level holds one coherence order k = i - j, the levels run in
    increasing k and each holds its positions in increasing order.
    """
    order = index // liouv.dim - index % liouv.dim
    by_order = np.argsort(order, kind="stable")
    return np.split(index[by_order], np.flatnonzero(np.diff(order[by_order])) + 1)


def _solve_sector(rho: np.ndarray, index: np.ndarray, levels: list[np.ndarray],
                  entries: tuple, rng) -> tuple[float, float, float, float]:
    """Stationary coherences of one sector, written into the flattened rho, with a degeneracy test.

    index holds the sector's positions in the flattened rho in increasing
    order, levels the same positions as ``_levels`` groups them, and
    entries are ``liouv.entries()``. No entry links two sectors, and an
    entry links only equal or adjacent levels, so the sector's block is
    block tridiagonal. In the sector holding the diagonal the row of
    rho[0, 0] is replaced by Tr rho = 1 (the generator preserves the trace,
    so that row is a combination of the others); it lies in the level of
    the diagonal and couples to no other level. The entries are sorted once
    by block, and each block is scattered from its slice when the sweep
    first needs it.

    The sweep eliminates levels from both ends toward the center (the level
    holding the diagonal, or the middle one): each level's Schur block is
    solved for its coupling toward the center and its right-hand sides,
    the solve is kept, and its product with the coupling back out is
    subtracted from the next level in. The center is solved last, and the
    kept solves give the other levels outward. One random right-hand side
    b, drawn in the order of index, is solved with the Tr rho = 1 system,
    as its real and imaginary parts so that every solve stays real; since
    |x_b| <= |b| / sigma_min, sigma = |b| / |x_b| estimates sigma_min from
    above. Returns sigma, s0 = sqrt(|B|_1 |B|_inf) from the column and row
    sums of the entries, a bound on the largest singular value, and the
    seconds spent building the blocks and solving them. Raises
    DegenerateSteadyStateError when an LU pivot of a Schur block is zero or
    sigma is at or below numpy's rank tolerance s0 * N * eps for a sector
    of N coherences.
    """
    start = time.perf_counter()
    dim = math.isqrt(len(rho))
    sizes = [len(level) for level in levels]
    level_of = np.full(len(rho), -1)
    slot = np.zeros(len(rho), dtype=np.intp)
    for number, level in enumerate(levels):
        level_of[level] = number
        slot[level] = np.arange(len(level))
    rows, cols, values = entries
    inside = level_of[rows] >= 0
    rows, cols, values = rows[inside], cols[inside], values[inside]
    b = rng.normal(size=len(index)) + 1j * rng.normal(size=len(index))
    rhs = np.zeros((len(rho), 3))  # Tr rho = 1, then Re b and Im b
    rhs[index, 1:] = np.column_stack((b.real, b.imag))
    center = len(levels) // 2
    if level_of[0] >= 0:
        center = level_of[0]
        keep = rows != 0
        rows = np.concatenate((rows[keep], np.zeros(dim, dtype=rows.dtype)))
        cols = np.concatenate((cols[keep], np.arange(dim) * (dim + 1)))
        values = np.concatenate((values[keep], np.ones(dim)))
        rhs[0, 0] = 1.0
    magnitude = np.abs(values)
    s0 = math.sqrt(np.bincount(cols, magnitude).max() * np.bincount(rows, magnitude).max())
    del magnitude
    # 2 l + l' + 1 = 3 l + 1 + step for the block coupling level l to level l' = l + step
    key = 2 * level_of[rows] + level_of[cols] + 1
    by_block = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key, np.arange(3 * len(levels) + 1), sorter=by_block)
    del key
    row_slot, col_slot, values = slot[rows[by_block]], slot[cols[by_block]], values[by_block]
    del level_of, slot, rows, cols, by_block  # freed before the kept solves pile up
    scattering = [0.0]  # seconds spent in block, within the sweep

    def block(number, step):
        """The block coupling level ``number`` to level ``number + step``."""
        began = time.perf_counter()
        lo, hi = bounds[3 * number + 1 + step], bounds[3 * number + 2 + step]
        out = np.zeros((sizes[number], sizes[number + step]))
        out[row_slot[lo:hi], col_slot[lo:hi]] = values[lo:hi]
        scattering[0] += time.perf_counter() - began
        return out

    sweep = time.perf_counter()
    kept = {}  # level -> its Schur block solved for [coupling toward the center | rhs]
    try:
        center_block, center_rhs = block(center, 0), rhs[levels[center]]
        for step, outer in ((-1, len(levels) - 1), (1, 0)):
            if outer == center:
                continue
            schur, y = block(outer, 0), rhs[levels[outer]]
            for number in range(outer, center, step):
                solved = kept[number] = np.linalg.solve(
                    schur, np.hstack((block(number, step), y)))
                inner = number + step
                schur, y = ((center_block, center_rhs) if inner == center
                            else (block(inner, 0), rhs[levels[inner]]))
                outward = block(inner, -step)
                schur -= outward @ solved[:, :-3]
                y -= outward @ solved[:, -3:]
        x = {center: np.linalg.solve(center_block, center_rhs)}
    except np.linalg.LinAlgError as exc:
        raise DegenerateSteadyStateError(f"steady state is degenerate: {exc}") from exc
    for number in [*range(center + 1, len(levels)), *range(center - 1, -1, -1)]:
        inner = number - 1 if number > center else number + 1
        solved = kept.pop(number)
        x[number] = solved[:, -3:] - solved[:, :-3] @ x[inner]
    x_b = []
    for number, level in enumerate(levels):
        rho[level] = x[number][:, 0]
        x_b.append(x[number][:, 1] + 1j * x[number][:, 2])
    swept = time.perf_counter() - sweep
    sigma = float(np.linalg.norm(b) / np.linalg.norm(np.concatenate(x_b)))
    tol = s0 * len(index) * np.finfo(float).eps
    if not sigma > tol:
        raise DegenerateSteadyStateError(
            f"steady state is degenerate: a sector of {len(index)} coherences has smallest "
            f"singular value about {sigma:.3e}, at or below {tol:.3e}")
    return sigma, s0, sweep - start + scattering[0], swept - scattering[0]


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Unique stationary density matrix from one block-tridiagonal solve per coherence sector.

    The sector holding the diagonal is solved with Tr rho = 1 in place of
    one population row; every other sector must be nonsingular, so the
    stationary state has none of its coherences. Each sector's blocks are
    scattered from ``liouv.entries()``, so the full superoperator is never
    built. Each parity sector is block tridiagonal in the coherence order
    k = i - j, with about dim levels of size dim - |k|; solving one costs
    about dim dense solves of size up to dim, O(dim^4) time and O(dim^3)
    memory in all (0.48 s and 70 MB peak RSS for ``steady-state --spins
    160`` on a 2-core machine).

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
    before ``entries`` or anything else larger than O(dim^2) is allocated.
    The estimate is O(dim^3): the kept solves hold at most n + 3 entries
    for each coherence of the largest sector, where n is the largest level,
    and the diagonal, coupling and Schur blocks in flight and the solver's
    copies hold at most 8 n^2 more, at 8 bytes an entry (the blocks are
    real), so at least 4 dim^3 bytes. 1 KiB per entry of rho covers the
    O(dim^2) arrays: the stencil and the entries (about 450 bytes), and a
    sector's sorted copies of them and its right-hand sides.

    One DEBUG line gives each sector's size, level count, largest level and
    sigma / s0, the residual, the wall time, and within it the seconds
    spent building the blocks (the sectors, the stencil, ``entries``, the
    sort and the scatters) and solving them, each summed over the sectors.
    """
    start = time.perf_counter()
    dim = liouv.dim
    sectors = liouv.sectors()
    levels = [_levels(liouv, index) for index in sectors]
    largest = max(len(level) for sector in levels for level in sector)
    _check_memory(8 * (max(map(len, sectors)) * (largest + 3) + 8 * largest ** 2)
                  + 1024 * dim ** 2, f"the steady-state solve at dim {dim}")
    entries = liouv.entries()
    seconds = np.array([time.perf_counter() - start, 0.0])  # building, solving
    rng = np.random.default_rng(0)
    rho = np.zeros(dim * dim, dtype=complex)
    s0_max, conditioning = 0.0, []
    for index, sector in zip(sectors, levels):
        sigma, s0, *sector_seconds = _solve_sector(rho, index, sector, entries, rng)
        seconds += sector_seconds
        s0_max = max(s0_max, s0)
        conditioning.append(f"{len(index)}:{len(sector)}:{max(map(len, sector))}:"
                            f"{sigma / s0:.3e}")
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
    up to 512 levels, until the top-level population stays below 1e-8 on
    every record, which for a number t means t = 0 and t alone, as for ``evolve``'s witnesses.
    """
    cut = cutoff if cutoff is not None else default_oscillator_cutoff(params)
    while True:
        if cut > _MAX_CUTOFF:
            raise CutoffError(f"required Fock cutoff exceeds the limit {_MAX_CUTOFF}")
        liouv = oscillator_liouvillian(cut, params)
        psi0 = QuantumState(coherent_state_vector(cut, alpha), "vector")
        traj = evolve(liouv, psi0, times, rtol=rtol, atol=atol)
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
