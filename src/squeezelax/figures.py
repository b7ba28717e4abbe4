"""Figure datasets: decay vector fields, uncertainty ellipses, rate curves.

Every builder returns a FigureDataset whose CSV serialization is
deterministic (fixed float formatting, metadata sorted by key), so repeated
runs with the same configuration are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .lindblad import _check_evolve_memory, evolve, spin_liouvillian
from .moments import (OscillatorMoments, SqueezingParams, collective_cov_rhs, decay_rates,
                      input_field_variances, oscillator_solution, spin_moments_from_state)
from .spin_algebra import (BlochAngles, DickeSpace, QuantumState, build_collective_ops,
                           spin_coherent_state)

__all__ = [
    "FigureDataset",
    "fig3a_vector_field",
    "fig3b_ellipses",
    "fig4a_rates",
    "fig4b_variance_derivatives",
]

# fig3b: plot scale per n (1.0 otherwise), spin and oscillator evolution times
_ELLIPSE_SCALES = {1: 0.12, 5: 0.25, 15: 0.4}
_DT_FACTOR = 0.008
_OSCILLATOR_DT = 0.1


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


@dataclass
class FigureDataset:
    figure_id: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match the column schema")
            for v in row:
                if not isinstance(v, str) and not math.isfinite(float(v)):
                    raise ValueError(f"non-finite value in dataset {self.figure_id}")

    def to_csv(self) -> str:
        lines = [f"# figure = {self.figure_id}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key} = {_fmt(self.metadata[key])}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "figure": self.figure_id,
            "metadata": self.metadata,
            "columns": self.columns,
            "rows": [list(row) for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _base_metadata(params: SqueezingParams, **extra) -> dict:
    return {"version": __version__, "squeezing_nbar": params.nbar,
            "squeezing_m": params.m_corr, "gamma_p": params.gamma_p, **extra}


def fig3a_vector_field(n_list, nbar: float, theta_grid, phi_grid) -> FigureDataset:
    """Decay arrows of spin coherent states on the lower Bloch hemisphere.

    Per grid point: transverse means and their time derivatives from the
    angle-dependent rate formula, plus a symmetric oscillator reference panel.
    """
    params = SqueezingParams.minimal(nbar)
    gamma_p = params.gamma_p
    theta_grid = [float(t) for t in theta_grid]
    phi_grid = [float(p) for p in phi_grid]
    if not theta_grid or not phi_grid:
        raise ValueError("theta and phi grids must be nonempty")
    if any(not math.pi / 2 < t <= math.pi for t in theta_grid):
        raise ValueError("theta grid must lie in the lower hemisphere (pi/2, pi]")

    columns = ["system", "n", "theta", "phi", "mean_x", "mean_y",
               "dmean_x", "dmean_y", "rate_x", "rate_y"]
    rows = []
    for n in n_list:
        for theta in theta_grid:
            gx, gy = decay_rates(n, theta, params)
            for phi in phi_grid:
                mx = n * math.sin(theta) * math.cos(phi)
                my = n * math.sin(theta) * math.sin(phi)
                rows.append(("spins", n, theta, phi, mx, my,
                             -gx * mx, -gy * my, gx, gy))
    # oscillator panel: radial decay at gamma_p / 2, unit-n radius scale
    for theta in theta_grid:
        for phi in phi_grid:
            mx = math.sin(theta) * math.cos(phi)
            my = math.sin(theta) * math.sin(phi)
            rows.append(("oscillator", 0, theta, phi, mx, my,
                         -0.5 * gamma_p * mx, -0.5 * gamma_p * my,
                         0.5 * gamma_p, 0.5 * gamma_p))
    meta = _base_metadata(params, spins=",".join(str(n) for n in n_list))
    return FigureDataset("fig3a", columns, rows, meta)


def _ellipse(var_x: float, var_y: float, cov_xy: float) -> tuple[float, float, float]:
    """(major axis, minor axis, tilt) of the one-sigma covariance ellipse."""
    cov = np.array([[var_x, cov_xy], [cov_xy, var_y]])
    vals, vecs = np.linalg.eigh(cov)
    major = math.sqrt(max(vals[1], 0.0))
    minor = math.sqrt(max(vals[0], 0.0))
    tilt = math.atan2(vecs[1, 1], vecs[0, 1])
    return major, minor, tilt


def fig3b_ellipses(n_list, nbar: float, theta_list, phi_grid) -> FigureDataset:
    """Uncertainty ellipses of spin coherent states before and after a short evolution.

    The exact state is evolved under the master equation for
    dt = 0.008 * n / gamma_p, at ``evolve``'s default tolerances, and the
    moment functionals are recorded on both endpoints; the states of one
    (n, theta) on the phi grid are evolved together, as one batch. The
    oscillator panel reads a coherent state's moments at 0 and 0.1 / gamma_p
    from ``oscillator_solution``.

    ``evolve``'s memory estimate for the largest n (one real row of both
    parity sectors and two records per member of the phi grid) is checked
    before any ops are built or densities stacked: ValueError refuses a run
    whose evolution would not fit in physical memory.
    """
    params = SqueezingParams.minimal(nbar)
    gamma_p = params.gamma_p
    theta_list = [float(t) for t in theta_list]
    phi_grid = [float(p) for p in phi_grid]
    if any(not 0.0 < t <= math.pi for t in theta_list):
        raise ValueError("theta values must lie in (0, pi]")

    columns = ["system", "n", "theta", "phi", "stage", "mean_x", "mean_y",
               "var_x", "var_y", "cov_xy", "axis_major", "axis_minor",
               "tilt", "scale"]

    _check_evolve_memory(len(phi_grid), max(n_list, default=0) + 1, records=2, sectors=2)
    rows = []
    for n in n_list if phi_grid else ():
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        liouv = spin_liouvillian(ops, params)
        scale = _ELLIPSE_SCALES.get(n, 1.0)
        for theta in theta_list:
            states = [spin_coherent_state(space, BlochAngles(theta, phi)) for phi in phi_grid]
            finals = evolve(liouv, np.stack([s.density() for s in states]),
                            _DT_FACTOR * n / gamma_p).final_state
            for phi, state, final in zip(phi_grid, states, finals):
                post = QuantumState(final, "matrix")
                for stage, at in (("pre", state), ("post", post)):
                    m = spin_moments_from_state(at, ops)
                    major, minor, tilt = _ellipse(m.var_x, m.var_y, m.cov_xy)
                    rows.append(("spins", n, theta, phi, stage, m.mean_x, m.mean_y,
                                 m.var_x, m.var_y, m.cov_xy, major, minor, tilt, scale))

    # oscillator panel: coherent state at unit radius, closed-form evolution
    times = (0.0, _OSCILLATOR_DT / gamma_p)
    for phi in phi_grid:
        start = OscillatorMoments(math.cos(phi), math.sin(phi))
        for stage, moments in zip(("pre", "post"), oscillator_solution(start, params, times)):
            cx, cy, vx, vy, cxy = moments.tolist()
            major, minor, tilt = _ellipse(vx, vy, cxy)
            rows.append(("oscillator", 0, 0.0, phi, stage, cx, cy,
                         vx, vy, cxy, major, minor, tilt, 1.0))

    meta = _base_metadata(params, spins=",".join(str(n) for n in n_list),
                          dt_factor=_DT_FACTOR, oscillator_dt=_OSCILLATOR_DT)
    return FigureDataset("fig3b", columns, rows, meta)


def fig4a_rates(n_values, nbar: float, theta_list) -> FigureDataset:
    """Transverse decay rates versus spin count, with oscillator references."""
    params = SqueezingParams.minimal(nbar)
    theta_list = [float(t) for t in theta_list]
    columns = ["n", "theta", "rate_x", "rate_y", "collective_ref", "oscillator_ref"]
    rows = []
    for n in n_values:
        for theta in theta_list:
            gx, gy = decay_rates(n, theta, params)
            rows.append((n, theta, gx, gy, 0.5 * n * params.gamma_p, 0.5 * params.gamma_p))
    meta = _base_metadata(params)
    return FigureDataset("fig4a", columns, rows, meta)


def fig4b_variance_derivatives(n_values, nbar: float, theta_list,
                               phi: float = 0.0) -> FigureDataset:
    """Covariance derivatives of spin coherent states versus spin count.

    Evaluated exactly on the coherent state (no closure); oscillator
    reference rows give the quadrature variance derivatives of a coherent
    state (V = 1) under the same bath.
    """
    params = SqueezingParams.minimal(nbar)
    theta_list = [float(t) for t in theta_list]
    columns = ["system", "n", "theta", "phi", "dvar_x", "dvar_y", "dcov_xy"]

    rows = []
    for n in n_values:
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        for theta in theta_list:
            state = spin_coherent_state(space, BlochAngles(theta, phi))
            rows.append(("spins", n, theta, phi) + collective_cov_rhs(state, ops, params))

    vx_in, vy_in = input_field_variances(params)
    for theta in theta_list:
        rows.append(("oscillator", 0, theta, phi, -params.gamma_p * (1.0 - vx_in),
                     -params.gamma_p * (1.0 - vy_in), 0.0))
    meta = _base_metadata(params, phi=phi)
    return FigureDataset("fig4b", columns, rows, meta)
