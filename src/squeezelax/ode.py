"""Deterministic adaptive ODE integration over flat real or complex state arrays.

One stepper: the Dormand-Prince 5(4) pair (Dormand & Prince, J. Comput.
Appl. Math. 6, 19 (1980); Hairer, Norsett & Wanner, Solving ODEs I, II.5).
Its last stage is the derivative at the step's 5th-order endpoint, so on an
accepted step it is reused as the next step's first stage (first same as
last) and every attempted step costs six RHS evaluations. Complex states
are integrated as interleaved real arrays so one stepping loop serves both
the real moment systems and vectorized density matrices. A stack of states
is stepped as one flat array, with the error norm taken per member.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

# Smallest step size before the integrator gives up on a rejected step.
_DT_MIN = 1e-13


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


@dataclass
class IntegratorConfig:
    """Initial step size and error control."""

    dt: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("dt, rtol and atol must be positive")


@dataclass
class IntegrationResult:
    times: np.ndarray            # the requested output times
    states: np.ndarray           # one row per recorded time
    diagnostics: dict = field(default_factory=dict)


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

    times is a strictly increasing, finite sequence of two or more output
    times, or a number t for (0, t). The stepper lands exactly on each by
    cutting short the step that would pass it; the next step resumes at
    least at the size the controller proposed before the cut. The records
    fill one (len(times), size) array, allocated after a memory guard.

    y0 is one real or complex state of shape (size,) or a stack of B states
    of shape (B, size), stepped together: rhs receives and returns arrays of
    y0's shape and type, and states has shape (len(times),) + y0.shape. The
    error norm is the RMS over each state's entries, maximised over the
    stack, so every member meets rtol and atol on its own; the step sequence
    is the one the hardest member needs. A single state has a stack of one
    row, so its steps are the same as those of that state alone.

    Diagnostics: accepted and rejected steps, RHS evaluations, and the
    smallest and largest accepted step the controller chose, dt_min and
    dt_max; steps cut short to land on an output time count only if no other was.
    """
    y0 = np.asarray(y0)
    if y0.ndim not in (1, 2) or y0.size == 0:
        raise ValueError("y0 must be a nonempty state (size,) or stack of states (B, size)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state contains non-finite values")
    times = np.array([0.0, times] if np.ndim(times) == 0 else times, dtype=float)
    if (times.ndim != 1 or len(times) < 2 or not np.all(np.isfinite(times))
            or not np.all(np.diff(times) > 0)):
        raise ValueError("times must be two or more finite times in strictly increasing order")

    # stepping runs on one flat float64 array; rhs sees the shape and type of y0
    dtype, shape = (complex if np.iscomplexobj(y0) else np.float64), y0.shape
    rows = shape[0] if len(shape) == 2 else 1
    y0 = np.ascontiguousarray(y0, dtype=dtype).view(np.float64).reshape(-1)

    def f(y, t):
        return np.asarray(rhs(y.view(dtype).reshape(shape), t),
                          dtype=dtype).view(np.float64).reshape(-1)

    _check_memory(len(times) * y0.nbytes, f"{len(times)} records of {y0.size} floats")
    states = np.empty((len(times), y0.size))
    states[0] = y0
    grid = times.tolist()  # a numpy scalar times an array costs microseconds more per step
    t, y = grid[0], y0
    h = min(cfg.dt, grid[-1] - grid[0])
    dt_min, dt_max = math.inf, 0.0
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
            sq = (step * (_DP_E @ k) / scale) ** 2
            err = math.sqrt(float(np.max(np.mean(sq.reshape(rows, -1), axis=1))))

            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            proposal = step * min(5.0, max(0.2, factor))
            if err <= 1.0:
                t, y = t_end, y5
                k[0] = k[6]
                accepted += 1
                if last:
                    proposal = max(proposal, h)
                else:
                    dt_min, dt_max = min(dt_min, step), max(dt_max, step)
            else:
                rejected += 1
            h = proposal
            if h < _DT_MIN:
                if err > 1.0:
                    raise IntegrationError("step size underflow", t=t, dt=h)
                h = _DT_MIN
        states[row] = y

    if dt_max == 0.0:  # every step was cut short: one per output interval
        dt_min, dt_max = float(np.min(np.diff(times))), float(np.max(np.diff(times)))
    diagnostics = {"accepted": accepted, "rejected": rejected,
                   "rhs_evals": 1 + 6 * (accepted + rejected),
                   "dt_min": dt_min, "dt_max": dt_max}
    return IntegrationResult(times, states.view(dtype).reshape((len(times),) + shape),
                             diagnostics)
