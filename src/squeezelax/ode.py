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
T_{k-1}. The caller hands ``propagate`` that recurrence as a kernel:
``propagate`` holds the terms in one ring of rows and hands it to the
kernel once, which builds its views of the rows there and returns
``step``, so each term is one pass of the caller's kernel written straight
into the row that holds it, with nothing made per term (``lindblad.evolve``
folds the 4/a and the 2 into the stencil's coefficients, held as one 3 x 3
box of shifts, and makes each term one ``np.einsum`` of that box with a
strided window of the last term, less the one before). The series
converges faster than any power of beta, so one window of degree up to 88
spans what an explicit stepper, held to |h lambda| of order one by
stability, needs hundreds of steps for. It serves the master equation: at
Fock cutoff 59 the oscillator oracle reaches t = 20 in 48 windows and
4222 terms. The coefficients are those of exp on the interval [-a, 0]:
eigenvalues well off the real axis, a bound below the spectral radius
and strong non-normality all show as growth of |T_k y|, which
``propagate`` checks. The T_k y do not depend
on the window's width, so a window that is refused for that growth ends
at a narrower width whose own series passes over the terms already made.
A stack of states is propagated as one array, with the growth and error
checks taken per member.
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

# The degree of the full width H, from which the rungs below a run's first
# are halved and the overspend allowance is measured. With non-normal
# generators |T_k(A~) y| can stay bounded for a hundred terms and then grow
# geometrically (at Fock cutoff 59, about e^(0.35 k) beyond k = 100).
_DEGREE_MAX = 64
# The degree of a run's first rung, the widest window of that degree. A
# cap of 88 alone, halved on every refusal, cost fig3b a third more terms.
_DEGREE_FIRST = 88
# The narrower rungs whose coefficient rows a window carries over its terms
_FALLBACKS = 3
# A window is refused once max |T_k(A~) y| exceeds this multiple of max |y|.
_GROWTH_MAX = 1e3
# T_k made between growth checks: they fill rows 2 on of propagate's ring, and are
# summed into the outputs a block at a time. 32 cost fig3b more terms than 16
_BLOCK = 16


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
    c_k above 1e-30 matches e^-beta I_k(beta) to 1e-13 relative for beta in
    [1e-9, 275], twice the first rung's beta at the default tolerances
    (tested against the trapezoid rule on the integral of I_k, and wider
    than the 2 * 88 that ``_widest_beta``'s bisection reaches). Ratios keep
    every value within floating-point range. The tails are summed from the
    small end so they keep their digits. Plain floats: one beta of 70 takes
    about 55 us, and the cache serves the windows of a run that take a
    rung's width.
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


def _degree(tails, eps: float) -> int:
    """The truncation rule: the smallest m with tails[m] <= eps, and at least one."""
    return max(1, bisect.bisect_left(tails, -eps, key=operator.neg))


@functools.lru_cache(maxsize=32)
def _widest_beta(eps: float, degree: int = _DEGREE_MAX) -> float:
    """The largest beta, to 1e-3 from below, whose series of the given degree meets eps.

    Bisection on (0, 2 degree], 1 to 2 ms; cached per tolerance and degree
    and never computed at import. A series that ends at or before that
    degree (beta below about 7.5 for degree 64) has cut its own tail at the
    recurrence's start, so its tail there is unknown and is not taken to
    meet eps. Raises ValueError when no beta the bisection tries meets eps.
    """
    low, high = 0.0, 2.0 * degree
    while high - low > 1e-3:
        mid = 0.5 * (low + high)
        tails = _chebyshev_series.__wrapped__(mid)[1]
        if degree < len(tails) - 1 and tails[degree] <= eps:
            low = mid
        else:
            high = mid
    if low == 0.0:
        raise ValueError(f"the truncation tolerance 0.1 min(rtol, atol) = {eps:.3g} is met by "
                         f"no Chebyshev window of degree {degree}")
    return low


def propagate(kernel, bound, y0, times, rtol: float, atol: float) -> IntegrationResult:
    """exp((t - times[0]) A) y0 at every time in ``times``, by Chebyshev windows.

    kernel(ring) is called once, with the ring of terms: a zeroed,
    contiguous array of 18 rows (_BLOCK + 2) of y0's shape and dtype. It
    returns step, and step(i) writes the next Chebyshev term
    ring[i] = 2 A~ ring[i - 1] - ring[i - 2] into row i alone, with
    A~ = (2 / bound) A + 1, for 2 <= i <= 17; rows are distinct, so the
    output never shares memory with what it reads. A window opens with
    rows 0 and 1 holding 0 and y, so the first term, A~ y, is that pass
    halved, which is exact; the terms of each block fill rows 2 on, and a
    full block's last two rows move to rows 0 and 1 before the next. A must
    be linear and time independent, with its spectrum in |z| <= bound and
    Re z <= 0; bound is that radius, a number. An entry that step never
    writes, and that y0 holds as zero, stays zero (``lindblad.evolve``
    writes only the interior of zero-bordered rows). y0 is one state of
    shape (size,), or a stack of states along its first axis; the result has y0's dtype. times
    is a strictly increasing, finite sequence of two or more output times,
    or a number t for (0, t) (``_output_times``), and y0 must be nonempty and
    finite; rtol and atol must be positive and finite, and ValueError is
    raised, before anything is allocated, when no window can meet their
    truncation rule.

    Windows. Each window starts at the last state reached and ends one
    rung of widths later, or at the last output time. The rungs are the
    widest window of degree 88 (beta = bound h / 2 at most the largest beta
    whose series of degree 88 meets the truncation rule), which opens the
    run, then the full width H of degree 64 halved again and again
    (H, H / 2, H / 4, ...). A run stays on a rung until a window is
    refused. Every output time inside a window gets its own row of
    coefficients over the same T_k vectors, so output times cost no extra
    terms; so do the next three rungs that end inside the window, the
    fallbacks, whose rows are each summed to their own degree.

    Truncation rule. With eps = 0.1 min(rtol, atol), a row of the series
    is cut at the smallest degree m whose tail sum_{k > m} c_k is at most
    eps; the window's degree is that of its widest row, and at least one.
    While |T_k y| stays of order |y|, the truncation error is then about
    eps |y|.

    Refusal. A window is refused when for some member max |T_k y| exceeds
    1e3 max |y| at a degree k <= m (A is far from normal, or bound is too
    small), or when the tail extrapolated from the last two terms,
    max |T_m y| times sum_{k > m} c_k r^(k - m) with
    r = max(1, max |T_m y| / max |T_{m-1} y|), exceeds atol + rtol max |y|.
    The T_k do not depend on the width, so a refused window is ended
    instead at its widest fallback whose degree m' lies within the terms
    made before the first that grew, and whose tail extrapolated from T_m'
    and T_{m'-1} passes the same test: the window a fresh start at that
    width would accept, with the output times inside it summed to at least
    their own degree. The run goes on at that rung. When no fallback
    passes, each width tried would be refused again from the same state,
    so the window is made again at the rung below its narrowest fallback.
    Growth is checked once per block of up to 16 terms, with one max and
    one min over the block that give every term's peak as
    max(max x, -min x), and the first term in the block past the bound
    decides as it would term by term; so the same windows are accepted,
    and a refused one may cost up to 15 more terms.

    Failure. The accepted estimates are summed per member over the run. A
    run whose windows are all at least H wide cannot overspend, but
    narrower windows can: IntegrationError is
    raised once the sum exceeds (atol + rtol max |y0|) (1 + (t - times[0]) / H),
    the tolerance of one window of degree 64 per width H elapsed, as when
    the bound is well below the spectral radius. It is also raised when the
    width falls below 1e-13 or step writes non-finite values.

    Diagnostics: accepted windows, salvaged among them (``salvaged``, the
    refused windows accepted at a fallback), refused windows (``rejected``,
    every refusal, salvaged or not), calls to step (``rhs_evals``, every
    term made, those of refused windows included), the range of accepted
    window widths (``dt_min``, ``dt_max``), the range of their degrees
    (``degree_min``, ``degree_max``; a salvaged window's is its
    fallback's), ``bound``, and the largest member's summed truncation
    estimate (``truncation_estimate``).
    """
    y0 = np.asarray(y0)
    y0 = y0.astype(np.result_type(y0, np.float64), copy=False)
    _check_positive(rtol=rtol, atol=atol)
    eps = 0.1 * min(rtol, atol)
    beta_max = _widest_beta(eps)
    beta_first = _widest_beta(eps, _DEGREE_FIRST)
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

    # the rungs, widest first: the first rung, then the full width H halved until
    # it falls below _DT_MIN, which no window takes. Each rung is exact, so
    # its windows share one cached series
    full = 2.0 * beta_max / bound
    ladder = [2.0 * beta_first / bound, full]
    while ladder[-1] >= _DT_MIN:
        ladder.append(0.5 * ladder[-1])
    budget = atol + rtol * peak(y0)
    spent = np.zeros(members)
    # rows 0 and 1 hold the two terms before the block's, rows 2 on the block's
    ring = np.zeros((_BLOCK + 2,) + y0.shape, dtype=y0.dtype)
    step = kernel(ring)
    terms = flat(ring)
    by_member = terms.reshape(len(ring), members, -1)
    grid = times.tolist()
    t, y, row, rung = grid[0], states[0], 1, 0
    accepted = rejected = salvaged = calls = 0
    widths, degrees = [], []

    def estimate(c, m):
        # the tail of series c cut at m, extrapolated from the window's last two terms
        growth = np.fmax(1.0, norms[m] / norms[m - 1])
        powers = growth[:, None] ** np.arange(1, len(c) - m)
        return norms[m] * (powers @ c[m + 1:])

    while row < len(grid):
        widest = ladder[rung]
        end, width = (t + widest, widest) if t + widest < grid[-1] else (grid[-1], grid[-1] - t)
        if widest < _DT_MIN or not width > 0.0:
            raise IntegrationError("window underflow", t=t, dt=widest)
        stop = bisect.bisect_right(grid, end, lo=row)
        offsets = [target - t for target in grid[row:stop]]
        if stop > row and grid[stop - 1] == end:
            offsets[-1] = width
        else:
            offsets.append(width)
        # the next _FALLBACKS rungs that end inside the window, one row each
        first = rung + 1
        while first < len(ladder) - 1 and not t + ladder[first] < end:
            first += 1
        fallbacks = range(first, min(first + _FALLBACKS, len(ladder) - 1))
        main = len(offsets)
        series = [_chebyshev_series(0.5 * bound * offset) for offset in offsets]
        series += [_chebyshev_series(0.5 * bound * ladder[f]) for f in fallbacks]
        # the last degree each row sums: the truncation rule on the widest row
        # gives the window's degree (at least one, so growth is always checked),
        # which every output row takes, and on each fallback row its own
        cuts = [_degree(tails, eps) for _, tails in series[main - 1:]]
        degree = cuts[0]
        cuts[:0] = [degree] * (main - 1)
        coef = np.zeros((len(series), degree + 1))
        for r, (c, _) in enumerate(series):
            c = c[:cuts[r] + 1]
            coef[r, :len(c)] = c
        # out[r] = sum_k coef[r, k] T_k, with T_0 = y; each block of T_k is added
        # as one matrix product to the rows whose coefficients reach it: the
        # fallbacks, narrowest last, drop out
        out = np.empty((len(series),) + y.shape, dtype=y.dtype)
        sums = flat(out)
        np.outer(coef[:, 0], flat(y[None]), out=sums)
        y_peak = peak(y)
        ceiling = _GROWTH_MAX * y_peak
        tolerance = atol + rtol * y_peak
        # norms[k] = max |T_k y| per member, known for k < known (NaN past it)
        norms = np.full((degree + 1, members), np.nan)
        norms[0], known = y_peak, 1
        live = len(series)
        ends = None  # the row that ends the window
        # T_1 = A~ y is the first pass halved, from rows 0 and 1 holding 0 and y
        ring[0] = 0.0
        ring[1] = y
        low, start = 1, 3  # the degree of the term in ring row 2, the first row step writes
        # growth is checked once per block, so up to _BLOCK - 1 terms are made
        # past one that grew beyond the ceiling, and they may overflow
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            step(2)
            ring[2] *= 0.5
            while True:
                filled = min(_BLOCK, degree + 1 - low)
                for i in range(start, filled + 2):
                    step(i)
                calls += filled
                # the peak of every member of every term in the block, as max(max x, -min x):
                # the max |.| without a temporary of the block's size, NaN and inf included
                rows = by_member[2:filled + 2]
                peaks = np.maximum(rows.max(axis=2), -rows.min(axis=2))
                grown = ~(peaks <= ceiling).all(axis=1)
                stopped = grown.any()
                if stopped:
                    # the first term past the ceiling decides, as if each were checked
                    # in turn; the terms before it are summed for the fallbacks
                    filled = int(grown.argmax())
                    if not np.isfinite(peaks[filled]).all():
                        raise IntegrationError("non-finite value written by step", t=t, dt=width)
                while cuts[live - 1] < low:
                    live -= 1
                if filled:
                    norms[low:low + filled] = peaks[:filled]
                    known = low + filled
                    sums[:live] += coef[:live, low:low + filled] @ terms[2:filled + 2]
                if stopped:
                    break
                low += filled
                if low > degree:
                    taken = estimate(series[main - 1][0], degree)
                    if np.all(taken <= tolerance):
                        ends, cut = main - 1, degree
                    break
                # the block's last two terms are the next block's T_{k-2} and T_{k-1}
                ring[:2] = ring[_BLOCK:]
                start = 2
            if ends is None:
                # refused: the widest fallback whose degree is within the terms summed
                # and whose own tail estimate passes ends the window instead
                rejected += 1
                for ends in range(main, len(series)):
                    cut = cuts[ends]
                    if cut < known:
                        taken = estimate(series[ends][0], cut)
                        if np.all(taken <= tolerance):
                            break
                else:
                    # each width tried would be refused again from this start
                    rung = fallbacks.stop
                    continue
                salvaged += 1
                rung = fallbacks[ends - main]
                width = ladder[rung]
                end = t + width
                stop = bisect.bisect_right(grid, end, lo=row)
        spent += taken
        if np.any(spent > budget * (1.0 + (end - grid[0]) / full)):
            raise IntegrationError(
                "the truncation error estimates add up past the tolerance (bound too "
                "small, or A far from normal)", t=end, dt=width)
        accepted += 1
        widths.append(width)
        degrees.append(cut)
        states[row:stop] = out[:stop - row]
        t, y, row = end, out[ends], stop

    diagnostics = {"accepted": accepted, "rejected": rejected, "salvaged": salvaged,
                   "rhs_evals": calls, "dt_min": min(widths), "dt_max": max(widths),
                   "degree_min": min(degrees), "degree_max": max(degrees), "bound": bound,
                   "truncation_estimate": float(np.max(spent))}
    return IntegrationResult(times, states, diagnostics)
