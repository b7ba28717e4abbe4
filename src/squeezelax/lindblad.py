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

Stencil. S- in the Dicke basis and the truncated ``a`` have only a
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
products of the normal form. Each coefficient is stored once, in the layout
``apply`` streams: one aligned float64 array of dim^2 values per shift, one
value per entry of rho. Every coefficient is real, so L maps Re rho and
Im rho on their own, and ``apply`` works on real planes: a complex rho is
the stack of its real and imaginary parts. The steady-state blocks and the
row sums read the same arrays as strided views. ``Liouvillian`` refuses
every other op; the dense P, Q and K of the normal form build only
``superoperator``, the dense reference.

Parity sectors. A superdiagonal op is parity-odd (op[i, k] = 0 whenever
i - k is even), so d, d+, P and Q flip the parity of a basis index and K
keeps it. Each term of the generator then moves the coherence rho[i, j]
only to coherences of the same parity of i - j, so the dim^2 x dim^2
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
rescaled generator (2/a) L + 1 (``ode.propagate``), over windows of degree
up to 64, with ``apply`` as its only operation, on the real planes of rho:
the real part alone when the start has no imaginary part, as the vacuum
and every real density matrix have, and the imaginary part stays exactly
zero. The bound a is
``norm_bound()``, the largest absolute row sum of the superoperator, read
from the stencil's coefficients in O(dim^2); every eigenvalue of L lies in
|z| <= a. At Fock cutoff 59 (a = 658.6) the oscillator oracle reaches
t = 20 in 93 windows and 5935 ``apply`` calls; an explicit stepper, held
by stability to steps of about 3.3 / a, would need about 4000 steps.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import SqueezingParams
from .ode import _BLOCK, _check_memory, _output_times, propagate
from .spin_algebra import CollectiveOps, QuantumState

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


# the stencil's shifts (di, dj): the unshifted term, then four pairs of a
# shift and the one ``apply`` sums it with
_SHIFTS = ((0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1), (2, 0), (0, 2), (-2, 0), (0, -2))
# the shifts by the change di - dj they make to the coherence order i - j
_SHIFTS_BY_CHANGE = {change: [(di, dj) for di, dj in _SHIFTS if di - dj == change]
                     for change in (-2, 0, 2)}


def _stencil(s: np.ndarray, params: SqueezingParams) -> dict:
    """Coefficients of the nine-term stencil for the real superdiagonal s of op.

    Returns one array per shift of ``_SHIFTS``, in that order, laid out as
    ``apply`` streams it: dim^2 float64 entries starting on a 64-byte
    boundary, one per entry of rho in row-major order.
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


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Squeezed-bath Lindblad generator for a lowering operator ``op``.

    ``op`` must be a nonempty square matrix whose only nonzero entries are
    real and on the superdiagonal, as S- in the Dicke basis and the
    truncated ``a`` are; an op with a diagonal entry, a complex or rotated
    superdiagonal or dense entries raises ValueError here. The generator is
    fixed at construction: ``op`` is kept as a read-only complex copy of
    the argument, the superdiagonal s_k = op[k, k + 1] as a copy of its
    own, and assigning to ``op`` or ``params`` raises AttributeError.
    Generators compare equal only to themselves. The stencil is built on
    the first ``apply``, ``norm_bound`` or ``steady_state``, and the dense
    d+, P, Q and K only when ``superoperator`` reads them.
    """

    op: np.ndarray
    params: SqueezingParams

    def __post_init__(self):
        op = np.array(self.op, dtype=complex)  # a copy, never a view of the caller's array
        if op.ndim != 2 or op.shape[0] != op.shape[1] or op.size == 0:
            raise ValueError("system operator must be a nonempty square matrix")
        s = np.diag(op, 1)
        if np.count_nonzero(op) != np.count_nonzero(s) or np.any(s.imag):
            raise ValueError("system operator must have only a real superdiagonal "
                             "(a lowering operator such as S- or a)")
        op.flags.writeable = False
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "_s", s.real.copy())
        object.__setattr__(self, "_work", None)

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
    def _coefficients(self) -> dict:
        """The stencil's coefficients by shift, from ``_stencil``: the one copy every reader uses."""
        return _stencil(self._s, self.params)

    @cached_property
    def _banded(self):
        """The stencil as ``apply`` reads it: (pad, center, pairs).

        pad is the number of zeros put on both sides of the flattened rho,
        center the coefficient array of the unshifted term, and pairs hold
        the shifted terms as pairs of (start, coefficient array), where
        start locates the shifted copy of rho in the padded array. The arrays are those of ``_coefficients``, not
        copies, and a pair whose coefficients are zero everywhere is left
        out. A term and the transpose of its coefficient on the transposed
        shift are summed first, so a Hermitian rho gives an exactly
        Hermitian result.
        """
        dim, coefs = self.dim, self._coefficients
        pad = 2 * dim  # the largest shift, (2, 0), in entries of the flattened rho

        def term(shift):
            return pad + shift[0] * dim + shift[1], coefs[shift]

        pairs = [(term(a), term(b)) for a, b in zip(_SHIFTS[1::2], _SHIFTS[2::2])
                 if np.any(coefs[a]) or np.any(coefs[b])]
        return pad, coefs[0, 0], pairs

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evaluate drho/dt for a density matrix or a stack of them, as a new array.

        rho has shape (..., dim, dim); every matrix of the stack is mapped
        on its own, with the same arithmetic as when it is passed alone:
        the nine-term stencil, O(dim^2) per matrix, on the (dim^2,) float64
        flattening of one matrix (or a stack of one) or the (B, dim^2) one
        of a stack. Every coefficient is real, so L maps Re rho and Im rho
        on their own: a real rho gives a float64 result, and a complex one
        is applied as the stack of its real and imaginary planes, which are
        written into the real and imaginary parts of a complex result. The
        stencil keeps its work arrays for the last shape it was given, so
        one generator must not be applied from two threads at once.
        """
        rho = np.asarray(rho)
        if rho.ndim < 2 or rho.shape[-2:] != self.op.shape:
            raise ValueError("density matrix shape does not match the generator")
        if np.iscomplexobj(rho):
            planes = self.apply(np.stack((rho.real, rho.imag), axis=-3))
            out = np.empty(rho.shape, dtype=complex)
            out.real, out.imag = planes[..., 0, :, :], planes[..., 1, :, :]
            return out
        # one matrix, or one row per matrix of a stack; a stack of one takes
        # the 1-d slices, about 8 us less per call at dim 59
        flat = (-1,) if rho.size == self.dim ** 2 else (-1, self.dim ** 2)
        x = np.ascontiguousarray(rho, dtype=np.float64).reshape(flat)
        pad, center, pairs = self._banded
        n = x.shape[-1]
        # the zero-bordered copy of x and the two product arrays are kept for
        # the last shape applied: a stack's arrays can pass the size above which
        # glibc's allocator maps memory from the OS (128 KiB), and allocated on
        # every call they would be mapped and unmapped each time; they are a
        # cache, not part of the frozen generator
        if self._work is None or self._work[1].shape != x.shape:
            object.__setattr__(self, "_work", (_aligned_empty(x.shape[:-1] + (n + 2 * pad,)),
                                               _aligned_empty(x.shape), _aligned_empty(x.shape)))
            self._work[0].fill(0.0)
        padded, ta, tb = self._work
        padded[..., pad:pad + n] = x
        out = np.multiply(center, x, out=_aligned_empty(x.shape))
        for (a, ca), (b, cb) in pairs:
            np.multiply(ca, padded[..., a:a + n], out=ta)
            np.multiply(cb, padded[..., b:b + n], out=tb)
            ta += tb
            out += ta
        return out.reshape(rho.shape)

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


def _check_evolve_memory(members: int, dim: int, records: int, planes: int):
    """Refuse, with ValueError, an ``evolve`` whose arrays would not fit in physical memory.

    The call propagates ``members`` dim x dim states, recorded at
    ``records`` output times, as ``planes`` real planes each (``evolve``
    takes one or two). With E = members dim^2, the estimate counts each
    array at its largest, as if all were alive at once: the complex input
    and states, 16 E (1 + records) bytes; 8 planes E bytes for each of the
    real start, the records, the 8-term block of ``ode.propagate`` (whose
    growth check reads the block's max and min, with no |.| temporary), a
    window's outputs and the product added to them (up to one row per
    output time each), and ``apply``'s padded copy (with 4 dim more entries
    per plane), two products and result; and the stencil's 72 dim^2.
    Python objects and the cached Chebyshev series are not counted.
    ``fig3b_ellipses`` calls it before it stacks its densities.
    """
    entries = members * dim * dim
    planes_bytes = 8 * planes * entries
    _check_memory(16 * entries * (1 + records) + planes_bytes * (5 + 3 * records + _BLOCK)
                  + 32 * planes * members * dim + 72 * dim * dim,
                  f"evolving {members} states of dim {dim} to {records} records")


def evolve(liouv: Liouvillian, rho0: np.ndarray | QuantumState, times,
           rtol: float = 1e-10, atol: float = 1e-12) -> Trajectory:
    """Propagate the master equation from rho0 and record rho at ``times``.

    times are output times as for ``ode.propagate``, with rho0 the state at
    times[0]; a number t means (0, t). rho0 is one density matrix
    (dim, dim) or a batch (B, dim, dim), propagated as one stack with each
    member held to rtol and atol on its own; ``states`` has shape
    (len(times),) + rho0.shape.

    rho0 is handed to ``ode.propagate`` as a real (B, P, dim, dim) stack of
    planes, the generator's coefficients being real: P = 2 holds Re rho and
    Im rho, and P = 1 the real part alone when every member's imaginary
    part is exactly zero, which then stays zero. Each member's peak is
    taken over its planes, as it would be over the complex entries, and
    the planes are put back together into the complex ``states``. Before
    anything of their size is allocated, ``_check_evolve_memory`` refuses
    with ValueError a call whose input, planes, records, states and the
    arrays ``ode.propagate`` and ``apply`` hold during a window would not
    fit in physical memory.

    Every generator takes the same path: ``ode.propagate`` sums a Chebyshev
    series of exp(h L) over windows of length h, one ``liouv.apply`` per
    term, with the bound a = ``liouv.norm_bound()``, the largest absolute
    row sum of the superoperator, read after ``_check_evolve_memory``, so a
    refused call builds no stencil. A series is cut where its tail of
    coefficients falls to 0.1 min(rtol, atol), at degree 64 at most; a
    window is refused and halved when a term grows past 1e3 times the state
    or the extrapolated tail exceeds the tolerance (see ``ode.propagate``).
    At Fock cutoff 59 (a = 658.6) the oscillator oracle reaches t = 20 in
    93 windows of degree 47 to 64.

    No trace renormalization is applied, so trace drift stays a genuine
    global-error witness (the truncated series loses about its tail per
    window). The trace, hermiticity and eigenvalue witnesses read every
    member of every record, and only the records, and report the worst.
    One DEBUG line per call logs the batch size, dim, P, the bound, the
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
    times = _output_times(times)
    planes = 2 if np.any(stack.imag) else 1
    _check_evolve_memory(len(stack), dim, len(times), planes)
    y0 = np.stack((stack.real, stack.imag), axis=1) if planes == 2 else stack.real[:, None].copy()
    result = propagate(liouv.apply, liouv.norm_bound(), y0, times, rtol, atol)
    states = np.empty((len(times),) + rho0.shape, dtype=complex)
    by_member = states.reshape((len(times),) + stack.shape)  # a view
    by_member.real = result.states[:, :, 0]
    by_member.imag = result.states[:, :, 1] if planes == 2 else 0.0
    diagnostics = dict(result.diagnostics)
    diagnostics.update(_state_diagnostics(states))
    logger.debug("evolve batch=%d dim=%d planes=%d bound=%.6g windows=%d refused=%d "
                 "rhs_evals=%d degree=[%d, %d] window=[%.3e, %.3e] records=%d bytes=%d",
                 len(stack), dim, planes, diagnostics["bound"], diagnostics["accepted"],
                 diagnostics["rejected"], diagnostics["rhs_evals"], diagnostics["degree_min"],
                 diagnostics["degree_max"], diagnostics["dt_min"], diagnostics["dt_max"],
                 len(states), states.nbytes)
    return Trajectory(times=result.times, states=states, diagnostics=diagnostics)


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
    real), so at least 4 dim^3 bytes. 168 bytes per entry of rho cover the
    O(dim^2) arrays at the residual, where they peak: the stencil's
    coefficients (72, the one copy that ``apply``, the blocks and the sums
    all read), the state (16), its real and imaginary planes (16) and
    ``apply``'s padded copy, two products and result (64). During the
    sweep the coefficients, the row and column sums, the state and a
    sector's draw of b and its scatter hold about 128. Traced at n = 160
    and 320 (nbar = 0.5, m = 0.2), the peak is about 0.7 of the estimate;
    the first dim refused on a 7.84 GiB machine is 1262.

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
                  + 168 * dim ** 2, f"the steady-state solve at dim {dim}")
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
    del sums  # freed before the residual's apply allocates its work arrays
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
