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
from .lindblad import _check_evolve_memory, _plane_size, evolve, spin_liouvillian
from .moments import (OscillatorMoments, SqueezingParams, collective_cov_rhs, decay_rates,
                      input_field_variances, oscillator_rate_decomposition,
                      oscillator_solution)
from .spin_algebra import (BlochAngles, DickeSpace, _coherent_amplitudes, _matrix_moments,
                           _pure_densities, build_collective_ops, spin_coherent_state)

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
# fig3b: the most packed values (members times their two-sector row, ``_plane_size``) one
# evolve batch of theta may hold. Timed at n = 20, 30 and 40, three theta in one batch of
# 6840, 13032 and 23160 values cost as much as or more than one batch per theta
_BATCH_VALUES = 6144


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _row_format(types: tuple) -> str:
    """The printf-style format that writes a row of these cell types as ``_fmt`` writes each."""
    return ",".join("%s" if issubclass(t, str) else "%d" if issubclass(t, (int, np.integer))
                    else "%.17g" for t in types)


@dataclass
class FigureDataset:
    figure_id: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if any(len(row) != len(self.columns) for row in self.rows):
            raise ValueError("row length does not match the column schema")
        numbers = [v for row in self.rows for v in row if not isinstance(v, str)]
        if not np.isfinite(np.array(numbers, dtype=float)).all():
            raise ValueError(f"non-finite value in dataset {self.figure_id}")

    def to_csv(self) -> str:
        lines = [f"# figure = {self.figure_id}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key} = {_fmt(self.metadata[key])}")
        lines.append(",".join(self.columns))
        formats = {}
        for row in self.rows:
            types = tuple(map(type, row))
            form = formats.get(types) or formats.setdefault(types, _row_format(types))
            lines.append(form % tuple(row))
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
    rate = oscillator_rate_decomposition(params).total
    for theta in theta_grid:
        for phi in phi_grid:
            mx = math.sin(theta) * math.cos(phi)
            my = math.sin(theta) * math.sin(phi)
            rows.append(("oscillator", 0, theta, phi, mx, my, -rate * mx, -rate * my,
                         rate, rate))
    meta = _base_metadata(params, spins=",".join(str(n) for n in n_list))
    return FigureDataset("fig3a", columns, rows, meta)


def _ellipses(var_x: np.ndarray, var_y: np.ndarray, cov_xy: np.ndarray) -> tuple[np.ndarray, ...]:
    """(major axes, minor axes, tilts) of a batch of one-sigma ellipses, in closed form.

    With h = (vx - vy) / 2, the eigenvalues of [[vx, c], [c, vy]] are
    (vx + vy) / 2 +- hypot(h, c), written as max(vx, vy) + g and
    min(vx, vy) - g with g = hypot(h, c) - |h| >= 0, so a diagonal
    covariance (c = 0, g = 0) gives its variances exactly. The major axis
    lies at tilt = pi/2 - atan2(2 c, vy - vx) / 2, taken modulo pi into
    [0, pi): an x-long axis reads 0, a y-long one and an exact circle pi/2.
    The modulo folds the pi that, with vx > vy, a -0.0 covariance gives and
    one below about -1e-16 (vx - vy) rounds to, so a zero covariance reads
    0 or pi/2 whatever its sign.
    """
    half = 0.5 * (var_x - var_y)
    gap = np.hypot(half, cov_xy) - np.abs(half)
    major = np.sqrt(np.maximum(var_x, var_y) + gap)
    minor = np.sqrt(np.maximum(np.minimum(var_x, var_y) - gap, 0.0))
    tilt = 0.5 * np.pi - 0.5 * np.arctan2(2.0 * cov_xy, var_y - var_x)
    return major, minor, np.mod(tilt, np.pi)


# the azimuthal symmetries of the spin generator, as phi -> shift + sign phi: phi -> phi + pi
# maps rho to P rho P with P = diag((-1)^k) (flip), and phi -> -phi maps rho to conj rho
_AZIMUTH_MAPS = ((0.0, 1.0, False, False), (math.pi, 1.0, True, False),
                 (0.0, -1.0, False, True), (math.pi, -1.0, True, True))


def _folds_onto(phi: float, base: float) -> tuple[bool, bool] | None:
    """(flip, conjugate) of the first map that takes ``base`` to ``phi``, else None.

    An image matches when it lies within 4 ulps of phi modulo 2 pi, the ulp
    taken of the larger of |phi|, |image| and 2 pi.
    """
    for shift, sign, flip, conj in _AZIMUTH_MAPS:
        image = shift + sign * base
        if abs(math.remainder(phi - image, 2 * math.pi)) <= 4 * math.ulp(
                max(abs(phi), abs(image), 2 * math.pi)):
            return flip, conj
    return None


def _azimuth_orbits(phi_grid) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Fold a phi grid by the group {phi -> phi + pi, phi -> -phi}.

    Returns the grid indices of the members to evolve, one per orbit, and
    per grid member the slot of its evolved member among them and whether
    its state is that member's flipped (P rho P) and conjugated. A member
    folds only onto an earlier evolved member that one of ``_AZIMUTH_MAPS``
    takes to its phi (``_folds_onto``), so the grid 2 pi k / 12 folds onto
    k = 0, 1, 2, 3, and any other phi keeps its own member.
    """
    slot = np.zeros(len(phi_grid), dtype=int)
    flip, conj = np.zeros((2, len(phi_grid)), dtype=bool)
    evolved: list[int] = []
    for index, phi in enumerate(phi_grid):
        for k, member in enumerate(evolved):
            fold = _folds_onto(phi, phi_grid[member])
            if fold is not None:
                slot[index], (flip[index], conj[index]) = k, fold
                break
        else:
            slot[index] = len(evolved)
            evolved.append(index)
    return evolved, slot, flip, conj


def _ellipse_rows(states: np.ndarray, ops) -> list[tuple]:
    """(mean_x, mean_y, var_x, var_y, cov_xy, axis_major, axis_minor, tilt) per member of a stack.

    The moments of the (B, dim, dim) stack are read in one pass of
    ``_matrix_moments`` (Sx and Sy each applied once to the whole stack),
    the ellipses by ``_ellipses``. ``<Sz>`` is in no column, so it is not read.
    """
    mx, my, xx, yy, xy = _matrix_moments(states, ops, ("x", "y", "xx", "yy", "xy")).real
    vx, vy, cxy = xx - mx * mx, yy - my * my, xy - mx * my
    return list(zip(mx, my, vx, vy, cxy, *_ellipses(vx, vy, cxy)))


def _thetas_per_batch(members: int, dim: int) -> int:
    """How many theta, ``members`` evolved states each, one ``evolve`` batch at dim takes.

    As many as keep the batch's rows, each of both parity sectors
    (``_plane_size``), within ``_BATCH_VALUES`` packed values, and at least one.
    """
    width, length = _plane_size(dim)
    return max(1, _BATCH_VALUES // (members * (2 * length + 4 * width)))


def fig3b_ellipses(n_list, nbar: float, theta_list, phi_grid) -> FigureDataset:
    """Uncertainty ellipses of spin coherent states before and after a short evolution.

    The exact state is evolved under the master equation for
    dt = 0.008 * n / gamma_p, at ``evolve``'s default tolerances. Per
    (n, theta), the coherent states of the whole phi grid are built as one
    array of amplitudes, a row per phi normalized as one state alone is,
    and one batched outer product gives their densities, the "pre" stack,
    bit for bit those of ``spin_coherent_state``. The grid is folded by
    ``_azimuth_orbits``: one member per orbit is evolved, and every grid
    member's final state is read back from its orbit's as conj rho and
    P rho P with P = diag((-1)^k), exact operations with no stencil work,
    the "post" stack. The generator and dt depend on n alone, so the theta
    of one n are evolved together: the theta list is split into
    consecutive runs of ``_thetas_per_batch`` theta, whose evolved
    members, as rows of both parity sectors, hold at most
    ``_BATCH_VALUES`` packed values, and each run is one ``evolve`` batch.
    With the 12-point grid and three theta, every n up to 19 (the CLI
    defaults 1, 5 and 15 among them) is one batch of 12 members, n = 20 to
    23 two batches, and from n = 24 on each theta is its own batch of 4.
    A batch runs the windows of its slowest member, so a member's final
    state moves within ``evolve``'s tolerance with the batch it is in.
    Each batch's stacks are read by one ``_ellipse_rows``: its moments in
    one pass of ``_matrix_moments``, its ellipses in closed form
    (``_ellipses``, tilt in [0, pi), an exact circle at pi/2). The
    oscillator panel reads a coherent state's moments at 0 and
    0.1 / gamma_p from ``oscillator_solution``, and its ellipses from
    ``_ellipses`` too. Rows run theta, then phi, then pre and post.

    Per n, ``evolve``'s memory estimate for its largest batch (one real
    row of both parity sectors and two records per evolved member), plus
    16 dim^2 bytes for each of 4 len(phi_grid) matrices per theta of that
    batch that fig3b holds at once (the pre and post stacks, and the
    products Sx rho and Sy rho of one of them while its moments are read),
    is checked for every n before any ops are built or densities stacked:
    ValueError refuses a run whose evolution would not fit in physical
    memory.
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

    evolved, slot, flip, conj = _azimuth_orbits(phi_grid)
    spins = list(n_list) if phi_grid else []
    for n in spins:
        size = min(_thetas_per_batch(len(evolved), n + 1), len(theta_list))
        _check_evolve_memory(size * len(evolved), n + 1, records=2, sectors=2,
                             images=4 * len(phi_grid) * size)
    rows = []
    for n in spins:
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        liouv = spin_liouvillian(ops, params)
        parity = (-1.0) ** np.arange(space.dim)
        scale = _ELLIPSE_SCALES.get(n, 1.0)
        size = _thetas_per_batch(len(evolved), space.dim)
        flat = (-1, space.dim, space.dim)
        for first in range(0, len(theta_list), size):
            thetas = theta_list[first:first + size]
            # (theta, phi, dim, dim): the pre stack of each theta of the batch
            pres = _pure_densities(np.stack([_coherent_amplitudes(space, theta, phi_grid)
                                             for theta in thetas]))
            posts = evolve(liouv, pres[:, evolved].reshape(flat),
                           _DT_FACTOR * n / gamma_p).final_state
            posts = posts.reshape(len(thetas), -1, space.dim, space.dim)[:, slot]
            posts[:, conj] = posts[:, conj].conj()
            posts[:, flip] *= np.outer(parity, parity)
            labels = ((theta, phi) for theta in thetas for phi in phi_grid)
            for (theta, phi), pre, post in zip(labels, _ellipse_rows(pres.reshape(flat), ops),
                                               _ellipse_rows(posts.reshape(flat), ops)):
                for stage, values in (("pre", pre), ("post", post)):
                    rows.append(("spins", n, theta, phi, stage, *values, scale))

    # oscillator panel: coherent state at unit radius, closed-form evolution
    times = (0.0, _OSCILLATOR_DT / gamma_p)
    for phi in phi_grid:
        start = OscillatorMoments(math.cos(phi), math.sin(phi))
        cx, cy, vx, vy, cxy = oscillator_solution(start, params, times).T
        for stage, values in zip(("pre", "post"), zip(cx, cy, vx, vy, cxy,
                                                      *_ellipses(vx, vy, cxy))):
            rows.append(("oscillator", 0, 0.0, phi, stage, *values, 1.0))

    meta = _base_metadata(params, spins=",".join(str(n) for n in n_list),
                          dt_factor=_DT_FACTOR, oscillator_dt=_OSCILLATOR_DT)
    return FigureDataset("fig3b", columns, rows, meta)


def fig4a_rates(n_values, nbar: float, theta_list) -> FigureDataset:
    """Transverse decay rates versus spin count, with oscillator references."""
    params = SqueezingParams.minimal(nbar)
    theta_list = [float(t) for t in theta_list]
    columns = ["n", "theta", "rate_x", "rate_y", "collective_ref", "oscillator_ref"]
    oscillator_rate = oscillator_rate_decomposition(params).total
    rows = []
    for n in n_values:
        for theta in theta_list:
            gx, gy = decay_rates(n, theta, params)
            rows.append((n, theta, gx, gy, 0.5 * n * params.gamma_p, oscillator_rate))
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
