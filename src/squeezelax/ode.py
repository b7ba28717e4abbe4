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
import mmap
from dataclasses import dataclass, field

import numpy as np

# Smallest step size before the integrator gives up on a rejected step.
_DT_MIN = 1e-13
# Recorded states per preallocated block of the trajectory.
_BLOCK_ROWS = 256


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
    """Initial step size and error control.

    record_every: keep every k-th accepted step; the endpoint is always kept.
    """

    dt: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0 or self.rtol <= 0 or self.atol <= 0:
            raise ValueError("dt, rtol and atol must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass
class IntegrationResult:
    times: np.ndarray            # accepted-step times that were recorded
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


def _block(size: int) -> np.ndarray:
    """Room for _BLOCK_ROWS records of ``size`` floats in an anonymous memory map of its own.

    numpy may serve an array of this size from the C heap, where a freed
    block below one still in use stays resident; a dropped memory map always
    goes back to the OS.
    """
    buf = mmap.mmap(-1, _BLOCK_ROWS * size * np.dtype(np.float64).itemsize)
    return np.frombuffer(buf, dtype=np.float64).reshape(_BLOCK_ROWS, size)


def integrate(rhs, y0, t_span, cfg: IntegratorConfig) -> IntegrationResult:
    """Integrate dy/dt = rhs(y, t) over t_span = (t0, t1).

    y0 is one state of shape (size,) or a stack of B states of shape
    (B, size), stepped together: rhs receives and returns arrays of y0's
    shape, and states has shape (T,) + y0.shape. The error norm is the RMS
    over each state's entries, maximised over the stack, so every member
    meets rtol and atol on its own; the step sequence is the one the
    hardest member needs. A single state has a stack of one row, so its
    steps are the same as those of that state alone.

    Records land on accepted steps (no interpolation); the final state is
    stepped exactly onto t1. Complex y0 is handled transparently.
    Diagnostics: accepted and rejected steps, RHS evaluations, and the
    smallest and largest accepted step size the controller chose, dt_min and
    dt_max; the last step, cut short to land on t1, counts only when it is
    the only step.
    """
    y0 = np.asarray(y0)
    if y0.ndim not in (1, 2) or y0.size == 0:
        raise ValueError("y0 must be a nonempty state (size,) or stack of states (B, size)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state contains non-finite values")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")

    # stepping runs on one flat float64 array; rhs sees the shape of y0
    is_complex = np.iscomplexobj(y0)
    if is_complex:
        y0 = np.ascontiguousarray(y0, dtype=complex).view(np.float64)
        shape = y0.shape

        def f(y, t):
            return np.asarray(rhs(y.reshape(shape).view(complex), t),
                              dtype=complex).view(np.float64).reshape(-1)
    else:
        y0 = y0.astype(np.float64)
        shape = y0.shape

        def f(y, t):
            return np.reshape(rhs(y.reshape(shape), t), -1)
    rows = shape[0] if len(shape) == 2 else 1
    y0 = y0.reshape(-1)

    t, y = t0, y0
    h = min(cfg.dt, t1 - t0)
    dt_min, dt_max = math.inf, 0.0
    times = [t0]
    # records go into fixed-size blocks, so the trajectory is never held as
    # both a list of records and their stack
    blocks = [_block(y0.size)]
    blocks[0][0] = y0
    accepted = rejected = 0
    k = np.empty((7, y0.size))
    k[0] = f(y, t)
    while t < t1:
        last = h >= t1 - t
        h = min(h, t1 - t)
        for i in range(1, 6):
            k[i] = f(y + h * (_DP_A[i, :i] @ k[:i]), t + _DP_C[i] * h)
        y5 = y + h * (_DP_B5 @ k[:6])
        k[6] = f(y5, t + h)
        if not np.all(np.isfinite(k[6])):
            raise IntegrationError("non-finite derivative returned by RHS", t=t, dt=h)

        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
        sq = (h * (_DP_E @ k) / scale) ** 2
        err = math.sqrt(float(np.max(np.mean(sq.reshape(rows, -1), axis=1))))

        if err <= 1.0:
            t = t + h
            y = y5
            k[0] = k[6]
            accepted += 1
            if not last:
                dt_min, dt_max = min(dt_min, h), max(dt_max, h)
            if accepted % cfg.record_every == 0 or t >= t1:
                row = len(times) % _BLOCK_ROWS
                if row == 0:
                    blocks.append(_block(y0.size))
                blocks[-1][row] = y
                times.append(t)
        else:
            rejected += 1

        factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if h < _DT_MIN:
            if err > 1.0:
                raise IntegrationError("step size underflow", t=t, dt=h)
            h = _DT_MIN

    if dt_max == 0.0:
        dt_min = dt_max = t1 - t0
    # each block is dropped, and unmapped, once copied into the stack
    states = np.empty((len(times), y0.size))
    for start in range(0, len(times), _BLOCK_ROWS):
        states[start:start + _BLOCK_ROWS] = blocks.pop(0)[:len(times) - start]
    states = states.reshape((len(times),) + shape)
    diagnostics = {"accepted": accepted, "rejected": rejected,
                   "rhs_evals": 1 + 6 * (accepted + rejected),
                   "dt_min": dt_min, "dt_max": dt_max}
    return IntegrationResult(np.array(times), states.view(complex) if is_complex else states,
                             diagnostics)
