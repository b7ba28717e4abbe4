"""Deterministic time stepping: Chebyshev series for exp(tA), and adaptive RK45 as its reference.

Two engines share the validation of output times, the memory guard and the
record array.

``integrate`` steps a real state with the Dormand-Prince 5(4) pair
(Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980); Hairer, Norsett &
Wanner, Solving ODEs I, II.5). Its last stage is the derivative at the
step's 5th-order endpoint, so on an accepted step it is reused as the next
step's first stage (first same as last) and every attempted step costs six
RHS evaluations. It is the reference ``propagate`` is tested against, and
runs on no production path.

``propagate`` computes exp(tA) y0 for a linear, time-independent A whose
spectrum lies in the half disc |z| <= a, Re z <= 0, as a Chebyshev series
in the rescaled operator A~ = (2/a) A + 1 (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967 (1984)). Over a window of length h, with beta = a h / 2,

    exp(hA) = sum_k c_k T_k(A~),  c_0 = e^-beta I_0(beta),  c_k = 2 e^-beta I_k(beta),

and T_k(A~) y follows from the three-term recurrence T_{k+1} = 2 A~ T_k -
T_{k-1}. The caller hands ``propagate`` that recurrence as one function,
``term``, so each term is one pass of the caller's kernel written straight
into the array that holds it (``lindblad.evolve`` folds the 4/a and the 2
into the stencil's coefficients, held as one 3 x 3 box of shifts, and
makes each term one ``np.einsum`` of that box with a strided window of the
last term, less the one before). The series converges faster than any
power of beta, so one window of degree up to 64 spans what an explicit
stepper, held to |h lambda| of order one by stability, needs hundreds of
steps for. It serves the master equation: at Fock cutoff 59 the oscillator
oracle reaches t = 20 in 93 windows and 5935 terms. The coefficients are
those of exp on the interval [-a, 0]: eigenvalues well off the real axis,
a bound below the spectral radius and strong non-normality all show as
growth of |T_k y|, which ``propagate`` checks. A stack of states is
propagated as one array, with the growth and error checks taken per
member.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np

# Smallest step size before the integrator gives up on a rejected step, and
# smallest window before the propagator gives up on a refused one.
_DT_MIN = 1e-13

# The highest degree of one Chebyshev window. With non-normal generators
# |T_k(A~) y| can stay bounded for a hundred terms and then grow
# geometrically (at Fock cutoff 59, about e^(0.35 k) beyond k = 100).
_DEGREE_MAX = 64
# A window is refused once max |T_k(A~) y| exceeds this multiple of max |y|.
_GROWTH_MAX = 1e3
# T_k vectors held at once: they are summed into the outputs a block at a time
_BLOCK = 8


def _check_memory(nbytes: int, what: str):
    """Refuse, before allocating, work that needs more bytes than physical memory."""
    total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > total:
        raise ValueError(f"{what} needs about {nbytes / 2 ** 30:.3g} GiB, more than "
                         f"the {total / 2 ** 30:.3g} GiB of physical memory")


class IntegrationError(RuntimeError):
    """Raised when stepping cannot continue (step underflow, bad RHS)."""

    def __init__(self, message: str, t: float | None = None, dt: float | None = None):
        if t is not None:
            message = f"{message} (t={t:.6g}, dt={dt:.3g})"
        super().__init__(message)
        self.t = t
        self.dt = dt


def _check_positive(**values: float):
    """Raise ValueError naming the first value that is not a positive finite number (NaN included)."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class IntegratorConfig:
    """Initial step size and error control."""

    dt: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        _check_positive(dt=self.dt, rtol=self.rtol, atol=self.atol)


@dataclass
class IntegrationResult:
    times: np.ndarray            # the requested output times
    states: np.ndarray           # one row per recorded time
    diagnostics: dict = field(default_factory=dict)


def _output_times(times) -> np.ndarray:
    """times as a float array: a strictly increasing, finite sequence of two or more, or a number t for (0, t)."""
    times = np.array([0.0, times] if np.ndim(times) == 0 else times, dtype=float)
    if (times.ndim != 1 or len(times) < 2 or not np.all(np.isfinite(times))
            or not np.all(np.diff(times) > 0)):
        raise ValueError("times must be two or more finite times in strictly increasing order")
    return times


def _records(y0: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """Validated output times (``_output_times``) and the record array, with y0 in its first row.

    The (len(times),) + y0.shape array is allocated after a memory guard.
    """
    if y0.size == 0 or not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be nonempty and finite")
    times = _output_times(times)
    _check_memory(len(times) * y0.nbytes, f"{len(times)} records of {y0.size} values")
    states = np.empty((len(times),) + y0.shape, dtype=y0.dtype)
    states[0] = y0
    return times, states


# Dormand-Prince 5(4) tableau. Row i of _DP_A weights the stages that enter
# stage i; the last row equals the 5th-order weights, which is what makes the
# last stage the derivative at the propagated solution. _DP_E holds the
# 5th-minus-4th-order weights, so h * (_DP_E @ k) is the local error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B5 = _DP_A[6]
_DP_E = np.append(_DP_B5, 0.0) - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                                           -92097 / 339200, 187 / 2100, 1 / 40])


def integrate(rhs, y0, times, cfg: IntegratorConfig) -> IntegrationResult:
    """Integrate dy/dt = rhs(y, t) from times[0] and record y at every time in ``times``.

    y0 is one real state of shape (size,), and rhs returns the derivative
    in that shape. times is a strictly increasing, finite sequence of two
    or more output times, or a number t for (0, t). The stepper lands
    exactly on each by cutting short the step that would pass it; the next
    step resumes at least at the size the controller proposed before the
    cut. The records fill one (len(times), size) array, allocated after a
    memory guard. The error norm is the RMS over the state's entries.

    It is the independent reference that ``propagate`` is tested against.
    Diagnostics: accepted and rejected steps, and RHS evaluations.
    """
    y0 = np.asarray(y0)
    if y0.ndim != 1 or np.iscomplexobj(y0):
        raise ValueError("y0 must be one real state of shape (size,)")
    y0 = y0.astype(np.float64)
    times, states = _records(y0, times)

    def f(y, t):
        return np.asarray(rhs(y, t), dtype=np.float64)

    grid = times.tolist()  # a numpy scalar times an array costs microseconds more per step
    t, y = grid[0], y0
    h = min(cfg.dt, grid[-1] - grid[0])
    accepted = rejected = 0
    k = np.empty((7, y0.size))
    k[0] = f(y, t)
    for row, t_out in enumerate(grid[1:], start=1):
        while t < t_out:
            last = h >= t_out - t
            step = min(h, t_out - t)
            t_end = t_out if last else t + step
            for i in range(1, 6):
                k[i] = f(y + step * (_DP_A[i, :i] @ k[:i]), t + _DP_C[i] * step)
            y5 = y + step * (_DP_B5 @ k[:6])
            k[6] = f(y5, t_end)
            if not np.all(np.isfinite(k[6])):
                raise IntegrationError("non-finite derivative returned by RHS", t=t, dt=step)

            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
            err = math.sqrt(float(np.mean((step * (_DP_E @ k) / scale) ** 2)))

            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            proposal = step * min(5.0, max(0.2, factor))
            if err <= 1.0:
                t, y = t_end, y5
                k[0] = k[6]
                accepted += 1
                if last:
                    proposal = max(proposal, h)
            else:
                rejected += 1
            h = proposal
            if h < _DT_MIN:
                if err > 1.0:
                    raise IntegrationError("step size underflow", t=t, dt=h)
                h = _DT_MIN
        states[row] = y

    diagnostics = {"accepted": accepted, "rejected": rejected,
                   "rhs_evals": 1 + 6 * (accepted + rejected)}
    return IntegrationResult(times, states, diagnostics)


@functools.lru_cache(maxsize=64)
def _chebyshev_series(beta: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(c, tails) for beta > 0: c_k = (2 - [k = 0]) e^-beta I_k(beta), tails_m = sum_{k > m} c_k.

    Miller's backward recurrence (Abramowitz & Stegun 9.12) on the ratios
    q_k = I_k / I_{k-1} = 1 / (2k / beta + q_{k+1}), started from q_{K+1} = 0
    at K = beta + 10 sqrt(beta) + 30. Their running products I_k / I_0 are
    normalized by I_0 + 2 sum_k I_k = e^beta, so the c_k sum to one; every
    c_k above 1e-30 matches e^-beta I_k(beta) to about 1e-13 relative for
    beta in [1e-9, 128]. Ratios keep every value within floating-point
    range. The tails are summed from the small end so they keep their
    digits. Plain floats: one beta of 70 takes about 55 us, and the cache
    serves the full-width windows of a run.
    """
    size = int(beta + 10.0 * math.sqrt(beta)) + 30
    two_over, q = 2.0 / beta, 0.0
    ratios = [0.0] * size
    for k in range(size, 0, -1):
        q = 1.0 / (k * two_over + q)
        ratios[k - 1] = q
    terms = [1.0, *(2.0 * p for p in itertools.accumulate(ratios, operator.mul))]
    total = math.fsum(terms)
    coefficients = tuple(term / total for term in terms)
    tails = (*itertools.accumulate(coefficients[:0:-1]),)[::-1] + (0.0,)
    return coefficients, tails


@functools.lru_cache(maxsize=32)
def _widest_beta(eps: float) -> float:
    """The largest beta, to 1e-3 from below, whose series of degree _DEGREE_MAX meets eps.

    Bisection on (0, 2 _DEGREE_MAX], about 1 ms; cached per tolerance and
    never computed at import. A series that ends at or before that degree
    (beta below about 7.5) has cut its own tail at the recurrence's start,
    so its tail there is unknown and is not taken to meet eps. Raises
    ValueError when no beta the bisection tries meets eps.
    """
    low, high = 0.0, 2.0 * _DEGREE_MAX
    while high - low > 1e-3:
        mid = 0.5 * (low + high)
        tails = _chebyshev_series.__wrapped__(mid)[1]
        if _DEGREE_MAX < len(tails) - 1 and tails[_DEGREE_MAX] <= eps:
            low = mid
        else:
            high = mid
    if low == 0.0:
        raise ValueError(f"the truncation tolerance 0.1 min(rtol, atol) = {eps:.3g} is met by "
                         f"no Chebyshev window of degree {_DEGREE_MAX}")
    return low


def propagate(term, bound, y0, times, rtol: float, atol: float) -> IntegrationResult:
    """exp((t - times[0]) A) y0 at every time in ``times``, by Chebyshev windows.

    term(cur, prev, out) writes the next Chebyshev term 2 A~ cur - prev into
    out, with A~ = (2 / bound) A + 1, and 2 A~ cur when prev is None; cur,
    prev and out have y0's shape, and out never shares memory with cur or
    prev. The first term, A~ y, is that pass halved, which is exact. A must
    be linear and time independent, with its spectrum in |z| <= bound and
    Re z <= 0; bound is that radius, a number. The arrays that receive the
    terms start as zeros, so an entry that term never writes, and that y0
    holds as zero, stays zero (``lindblad.evolve`` writes only the
    interior of zero-bordered rows). y0 is one state of shape (size,), or a
    stack of states along its first axis; the result has y0's dtype. times
    is a strictly increasing, finite sequence of two or more output times,
    or a number t for (0, t) (``_output_times``), and y0 must be nonempty and
    finite; rtol and atol must be positive and finite, and ValueError is
    raised, before anything is allocated, when no window can meet their
    truncation rule.

    Windows. Each window starts at the last state reached and is as wide
    as the degree cap allows (beta = bound h / 2 at most the largest beta
    whose series of degree 64 meets the truncation rule), or ends at the
    last output time. Every output time inside a window gets its own row of
    coefficients over the same T_k vectors, so output times cost no extra
    terms.

    Truncation rule. With eps = 0.1 min(rtol, atol), a row of the series
    is cut at the smallest degree m whose tail sum_{k > m} c_k is at most
    eps; the window's degree is that of its widest row, and at least one.
    While |T_k y| stays of order |y|, the truncation error is then about
    eps |y|.

    Refusal. A window is refused, and the window width halved for the rest
    of the run, when for some member max |T_k y| exceeds 1e3 max |y| at a
    degree k <= m (A is far from normal, or bound is too small), or when
    the tail extrapolated from the last two terms, max |T_m y| times
    sum_{k > m} c_k r^(k - m) with r = max(1, max |T_m y| / max |T_{m-1} y|),
    exceeds atol + rtol max |y|. Growth is checked once per block of up to
    8 terms, with one max and one min over the block that give every
    term's peak as max(max x, -min x), and the first term in the block past
    the bound decides as it would term by term; so the same windows are
    accepted, and a refused one may cost up to 7 more terms.

    Failure. The accepted estimates are summed per member over the run. A
    run whose windows keep their full width H cannot overspend, but halved
    windows can: IntegrationError is raised once the sum exceeds
    (atol + rtol max |y0|) (1 + (t - times[0]) / H), the tolerance of one
    full window per full width elapsed, as when the bound is well below the
    spectral radius. It is also raised when the width falls below 1e-13 or
    term writes non-finite values.

    Diagnostics: accepted windows, refused windows (``rejected``), calls to
    term (``rhs_evals``), the range of accepted window widths (``dt_min``,
    ``dt_max``), the range of their degrees (``degree_min``,
    ``degree_max``), ``bound``, and the largest member's summed truncation
    estimate (``truncation_estimate``).
    """
    y0 = np.asarray(y0)
    y0 = y0.astype(np.result_type(y0, np.float64), copy=False)
    _check_positive(rtol=rtol, atol=atol)
    eps = 0.1 * min(rtol, atol)
    beta_max = _widest_beta(eps)
    times, states = _records(y0, times)
    bound = float(bound)
    _check_positive(bound=bound)
    members = len(y0) if y0.ndim > 1 else 1

    def flat(a):
        # one float64 row per leading index: a T_k of a block, or a window's targets
        return a.reshape(len(a), -1).view(np.float64)

    def peak(y):
        # max |entry| of each member, over the real and imaginary parts
        return np.max(np.abs(y.reshape(members, -1).view(np.float64)), axis=1)

    widest = full = 2.0 * beta_max / bound
    budget = atol + rtol * peak(y0)
    spent = np.zeros(members)
    block = np.zeros((_BLOCK,) + y0.shape, dtype=y0.dtype)
    grid = times.tolist()
    t, y, row = grid[0], states[0], 1
    accepted = rejected = calls = 0
    widths, degrees = [], []
    while row < len(grid):
        # the full width is kept exact, so full windows share one cached series
        end, width = (t + widest, widest) if t + widest < grid[-1] else (grid[-1], grid[-1] - t)
        if widest < _DT_MIN or not width > 0.0:
            raise IntegrationError("window underflow", t=t, dt=widest)
        stop = bisect.bisect_right(grid, end, lo=row)
        offsets = [target - t for target in grid[row:stop]]
        if stop > row and grid[stop - 1] == end:
            offsets[-1] = width
        else:
            offsets.append(width)
        series = [_chebyshev_series(0.5 * bound * offset) for offset in offsets]
        widest_row, tails = series[-1]
        # the truncation rule on the widest row; at least one term, so growth is always checked
        degree = max(1, next(m for m, tail in enumerate(tails) if tail <= eps))
        coef = np.zeros((len(offsets), degree + 1))
        for r, (c, _) in enumerate(series):
            c = c[:degree + 1]
            coef[r, :len(c)] = c
        # out[r] = sum_k coef[r, k] T_k, with T_0 = y; the T_k fill the block's
        # rows in turn, and each full block is added as one matrix product
        out = np.empty((len(offsets),) + y.shape, dtype=y.dtype)
        np.outer(coef[:, 0], flat(y[None]), out=flat(out))
        y_peak = peak(y)
        ceiling = _GROWTH_MAX * y_peak
        norms = [y_peak]
        prev = cur = y
        filled = 0
        # growth is checked once per block, so up to _BLOCK - 1 terms are made
        # past one that grew beyond the ceiling, and they may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, degree + 1):
                t_k = block[filled]
                term(cur, prev if k > 1 else None, t_k)
                calls += 1
                if k == 1:
                    t_k *= 0.5
                prev, cur, filled = cur, t_k, filled + 1
                if filled < _BLOCK and k < degree:
                    continue
                # the peak of every member of every term in the block, as max(max x, -min x):
                # the max |.| without a temporary of the block's size, NaN and inf included
                rows = flat(block[:filled]).reshape(filled, members, -1)
                peaks = np.maximum(np.max(rows, axis=2), -np.min(rows, axis=2))
                grown = ~np.all(peaks <= ceiling, axis=1)
                if grown.any():
                    # the first term past the ceiling decides, as if each were checked in turn
                    if not np.isfinite(peaks[grown.argmax()]).all():
                        raise IntegrationError("non-finite value written by term", t=t, dt=width)
                    break
                norms.extend(peaks)
                flat(out)[...] += coef[:, k + 1 - filled:k + 1] @ flat(block[:filled])
                filled = 0
            else:
                with np.errstate(divide="ignore"):
                    growth = np.fmax(1.0, norms[-1] / norms[-2])
                    powers = growth[:, None] ** np.arange(1, len(widest_row) - degree)
                    estimate = norms[-1] * (powers @ widest_row[degree + 1:])
                if np.all(estimate <= atol + rtol * y_peak):
                    spent += estimate
                    if np.any(spent > budget * (1.0 + (end - grid[0]) / full)):
                        raise IntegrationError(
                            "the truncation error estimates add up past the tolerance (bound too "
                            "small, or A far from normal)", t=end, dt=width)
                    accepted += 1
                    widths.append(width)
                    degrees.append(degree)
                    states[row:stop] = out[:stop - row]
                    t, y, row = end, out[-1], stop
                    continue
        rejected += 1
        widest *= 0.5

    diagnostics = {"accepted": accepted, "rejected": rejected, "rhs_evals": calls,
                   "dt_min": min(widths), "dt_max": max(widths),
                   "degree_min": min(degrees), "degree_max": max(degrees), "bound": bound,
                   "truncation_estimate": float(np.max(spent))}
    return IntegrationResult(times, states, diagnostics)
