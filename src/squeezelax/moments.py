"""Closed-form moment dynamics for spins and oscillators in a squeezed bath.

Single-spin (Gardiner) mean equations and oscillator mean/covariance ODEs,
with their exact solutions: each moment relaxes exponentially to its fixed
point, so a trajectory is evaluated in closed form at any times, not
stepped. Collective-spin mean and covariance right-hand sides evaluated on
an exact state, angle-dependent decay rates, and their split into
field-fluctuation and self-reaction contributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_algebra import CollectiveOps, QuantumState, _collective_moments, expectation

__all__ = [
    "SqueezingParams",
    "SpinMoments",
    "OscillatorMoments",
    "RateDecomposition",
    "minimal_m",
    "input_field_variances",
    "relaxation",
    "gardiner_rhs",
    "gardiner_solution",
    "oscillator_mean_rhs",
    "oscillator_cov_rhs",
    "oscillator_solution",
    "collective_mean_rhs",
    "collective_cov_rhs",
    "decay_rates",
    "rate_decomposition",
    "oscillator_rate_decomposition",
    "spin_moments_from_state",
]

_MIN_UNCERTAINTY_ATOL = 1e-12


def minimal_m(nbar: float) -> float:
    """Largest squeezing correlation compatible with nbar photons: sqrt(nbar (nbar+1))."""
    if nbar < 0:
        raise ValueError(f"mean photon number must be >= 0, got {nbar}")
    return math.sqrt(nbar * (nbar + 1.0))


@dataclass(frozen=True)
class SqueezingParams:
    """Broadband squeezed bath statistics plus the Purcell rate.

    nbar: mean reservoir photon number.
    m_corr: two-photon correlation (real, >= 0 after phase alignment),
            bounded by sqrt(nbar (nbar+1)).
    gamma_p: Purcell rate (inverse time).
    All three must be finite; ValueError otherwise.
    """

    nbar: float
    m_corr: float
    gamma_p: float = 1.0

    def __post_init__(self):
        for name in ("nbar", "m_corr", "gamma_p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.nbar < 0:
            raise ValueError(f"mean photon number must be >= 0, got {self.nbar}")
        if self.m_corr < 0:
            raise ValueError(f"squeezing correlation must be >= 0, got {self.m_corr}")
        if self.m_corr > minimal_m(self.nbar) + _MIN_UNCERTAINTY_ATOL:
            raise ValueError(
                f"m_corr={self.m_corr} violates the bound sqrt(nbar (nbar+1))"
                f"={minimal_m(self.nbar)}")
        if self.gamma_p <= 0:
            raise ValueError(f"Purcell rate must be > 0, got {self.gamma_p}")

    @classmethod
    def minimal(cls, nbar: float, gamma_p: float = 1.0) -> "SqueezingParams":
        """Minimum-uncertainty bath at the given photon number."""
        return cls(nbar=nbar, m_corr=minimal_m(nbar), gamma_p=gamma_p)

    @property
    def is_minimal_uncertainty(self) -> bool:
        return abs(self.m_corr - minimal_m(self.nbar)) <= _MIN_UNCERTAINTY_ATOL


@dataclass(frozen=True)
class SpinMoments:
    """First moments and symmetrized transverse covariances of a spin system."""

    mean_x: float
    mean_y: float
    mean_z: float
    var_x: float = 0.0
    var_y: float = 0.0
    cov_xy: float = 0.0


@dataclass(frozen=True)
class OscillatorMoments:
    """Quadrature means and symmetrized covariance matrix of an oscillator."""

    mean_x: float
    mean_y: float
    var_x: float = 1.0
    var_y: float = 1.0
    cov_xy: float = 0.0

    def __post_init__(self):
        if self.var_x <= 0 or self.var_y <= 0:
            raise ValueError("quadrature variances must be positive")
        if self.var_x * self.var_y - self.cov_xy ** 2 < 1.0 - 1e-9:
            raise ValueError("covariance matrix violates the Heisenberg bound")


@dataclass(frozen=True)
class RateDecomposition:
    """A decay rate split into field-fluctuation and self-reaction parts."""

    total: float
    ff_part: float
    sr_part: float

    def __post_init__(self):
        if abs(self.total - (self.ff_part + self.sr_part)) > 1e-12 * max(1.0, abs(self.total)):
            raise ValueError("decomposition parts do not sum to the total rate")


def _half_squeezed_variance(p: SqueezingParams) -> float:
    """nbar - m + 1/2, half the squeezed input variance and the <sy> decay factor.

    In the minimal bath, m = sqrt(nbar (nbar + 1)), it is exactly
    1 / (4 (nbar + 1/2 + m)); that form is used whenever m_corr equals
    ``minimal_m(nbar)``, since the difference loses every digit at large
    nbar (it reads 0 at nbar = 1e8). Otherwise it is the difference itself.
    """
    if p.m_corr == minimal_m(p.nbar):
        return 0.25 / (p.nbar + 0.5 + p.m_corr)
    return p.nbar - p.m_corr + 0.5


def input_field_variances(p: SqueezingParams) -> tuple[float, float]:
    """Variances (anti-squeezed, squeezed) of the input quadratures.

    (2 nbar + 2 m + 1, 2 nbar - 2 m + 1); their product is >= 1 with
    equality exactly at minimal uncertainty.
    """
    return (2 * p.nbar + 2 * p.m_corr + 1.0, 2.0 * _half_squeezed_variance(p))


def relaxation(y0, y_inf, rate: float, t) -> np.ndarray:
    """y_inf + (y0 - y_inf) e^(-rate t), the solution of dy/dt = -rate (y - y_inf), y(0) = y0.

    Elementwise over t (and over y0, y_inf by broadcasting); exactly y0 at t = 0.
    """
    t = np.asarray(t, dtype=float)
    return np.where(t == 0.0, y0, y_inf + (y0 - y_inf) * np.exp(-rate * t))


def gardiner_rhs(m: SpinMoments, p: SqueezingParams) -> SpinMoments:
    """Mean-value derivatives for a single spin in a squeezed reservoir.

    d<sx>/dt = -gp (nbar + m + 1/2) <sx>
    d<sy>/dt = -gp (nbar - m + 1/2) <sy>
    d<sz>/dt = -gp (2 nbar + 1) <sz> - gp
    """
    gp, nb, mc = p.gamma_p, p.nbar, p.m_corr
    return SpinMoments(
        mean_x=-gp * (nb + mc + 0.5) * m.mean_x,
        mean_y=-gp * _half_squeezed_variance(p) * m.mean_y,
        mean_z=-gp * (2 * nb + 1.0) * m.mean_z - gp,
    )


def gardiner_solution(m0: SpinMoments, p: SqueezingParams, t) -> np.ndarray:
    """The means solving ``gardiner_rhs`` from those of m0, at every time in t.

    Columns (mean_x, mean_y, mean_z) along a last axis after t's shape: the
    transverse means decay at gp (nbar +- m + 1/2), and <sz> relaxes at
    gp (2 nbar + 1) to -1 / (2 nbar + 1) (Gardiner, PRL 56, 1917 (1986)).
    """
    gp, nb, mc = p.gamma_p, p.nbar, p.m_corr
    return np.stack([relaxation(m0.mean_x, 0.0, gp * (nb + mc + 0.5), t),
                     relaxation(m0.mean_y, 0.0, gp * _half_squeezed_variance(p), t),
                     relaxation(m0.mean_z, -1.0 / (2 * nb + 1.0), gp * (2 * nb + 1.0), t)],
                    axis=-1)


def oscillator_mean_rhs(m: OscillatorMoments, p: SqueezingParams) -> tuple[float, float]:
    """Quadrature mean derivatives: symmetric damping at gamma_p / 2, independent of squeezing."""
    return (-0.5 * p.gamma_p * m.mean_x, -0.5 * p.gamma_p * m.mean_y)


def oscillator_cov_rhs(m: OscillatorMoments, p: SqueezingParams) -> tuple[float, float, float]:
    """Quadrature covariance derivatives; fixed point equals the input-field variances."""
    vx_in, vy_in = input_field_variances(p)
    gp = p.gamma_p
    return (-gp * (m.var_x - vx_in), -gp * (m.var_y - vy_in), -gp * m.cov_xy)


def oscillator_solution(m0: OscillatorMoments, p: SqueezingParams, t) -> np.ndarray:
    """The moments solving ``oscillator_mean_rhs`` and ``oscillator_cov_rhs`` from m0, at every time in t.

    Columns (mean_x, mean_y, var_x, var_y, cov_xy) along a last axis after
    t's shape: the means decay at gp / 2 and the covariances relax at gp to
    the input-field variances, whatever the squeezing.
    """
    vx_in, vy_in = input_field_variances(p)
    gp = p.gamma_p
    return np.stack([relaxation(m0.mean_x, 0.0, 0.5 * gp, t),
                     relaxation(m0.mean_y, 0.0, 0.5 * gp, t),
                     relaxation(m0.var_x, vx_in, gp, t), relaxation(m0.var_y, vy_in, gp, t),
                     relaxation(m0.cov_xy, 0.0, gp, t)], axis=-1)


def collective_mean_rhs(state: QuantumState, ops: CollectiveOps,
                        p: SqueezingParams) -> tuple[float, float, float]:
    """Exact mean-value derivatives of the collective spin components.

    Evaluates <S-Sz> and <S-S+> on the supplied state, which must be
    Hermitian: the equations also need <SzS+> = <S-Sz>*. No moment closure
    is applied. The moments come from ``_collective_moments``: on a vector
    it applies S+, Sz, Sx and Sy once each, the S+ ket being the bra of S-;
    on a matrix only Sz and S+, each mean being one inner product with the
    operator and <S- B> one with the S+ matrix. The <Sy> factor
    nbar - m + 1 is ``_half_squeezed_variance`` + 1/2, so the minimal bath
    keeps its digits at large nbar.
    """
    gp, nb, mc = p.gamma_p, p.nbar, p.m_corr
    sm_sz, sm_sp, mx, my, mz = _collective_moments(state, ops, ("-z", "-+", "x", "y", "z"))
    dx = gp * sm_sz.real - gp * (nb + mc + 1.0) * mx.real
    dy = -gp * sm_sz.imag - gp * (_half_squeezed_variance(p) + 0.5) * my.real
    dz = -2.0 * gp * sm_sp.real - 2.0 * gp * (nb + 1.0) * mz.real
    return (dx, dy, dz)


def collective_cov_rhs(state: QuantumState, ops: CollectiveOps,
                       p: SqueezingParams) -> tuple[float, float, float]:
    """Exact derivatives of (V_Sx, V_Sy, C_SxSy) on the supplied state.

    Involves <Sz^2> and symmetrized third moments, so the covariance system
    is not closed; the state supplies the higher moments. Every moment but
    <Sz> comes from ``_collective_moments``, which applies five operators
    per state (Sx, Sy, Sz, Sx Sz and Sy Sz; on a vector the Hermitian Sx
    and Sy kets are their own bras) and forms each moment as one inner
    product; <Sz> is read through ``expectation``, one application more.
    The covariances and third moments are those of ``sym_covariance`` and
    ``third_moment``.
    """
    gp, nb, mc = p.gamma_p, p.nbar, p.m_corr
    (mx, my, xx, yy, xy, zz, xxz, yyz, xyz, yxz, xz, yz) = _collective_moments(
        state, ops, ("x", "y", "xx", "yy", "xy", "zz", "xxz", "yyz", "xyz", "yxz", "xz", "yz"))
    var_x = (xx - mx * mx).real
    var_y = (yy - my * my).real
    cov_xy = (xy - mx * my).real
    sz2 = zz.real
    mz = expectation(ops.sz, state).real
    dvx = -gp * ((2 * nb + 2 * mc + 1.0) * (var_x - sz2) + mz - (xxz - mx * xz.real).real)
    dvy = -gp * (2.0 * _half_squeezed_variance(p) * (var_y - sz2) + mz - (yyz - my * yz.real).real)
    dcxy = -gp * ((2 * nb + 1.0) * cov_xy
                  - 0.5 * ((xyz - mx * yz.real).real + (yxz - my * xz.real).real))
    return (dvx, dvy, dcxy)


def decay_rates(n: int, theta: float, p: SqueezingParams) -> tuple[float, float]:
    """Effective transverse decay rates of a spin coherent state at polar angle theta.

    gamma_x = gp [nbar + m + 1/2 - (n-1) cos(theta) / 2] and the same with
    -m for gamma_y. Independent of the azimuthal angle.
    """
    if n < 1:
        raise ValueError("spin count must be >= 1")
    gp = p.gamma_p
    sr = -(n - 1) * math.cos(theta) / 2.0
    return (gp * (p.nbar + p.m_corr + 0.5 + sr), gp * (_half_squeezed_variance(p) + sr))


def rate_decomposition(n: int, theta: float, p: SqueezingParams,
                       component: str = "x") -> RateDecomposition:
    """Split a transverse decay rate into field-fluctuation and self-reaction parts.

    The bath-statistics-dependent damping gp (nbar +- m + 1) originates in
    the field-fluctuation channel; the remainder, gp [-1/2 - (n-1) cos(theta)/2],
    is radiation self-reaction and carries the collective n-enhancement.
    The y part's nbar - m + 1 is ``_half_squeezed_variance`` + 1/2.
    """
    if component not in ("x", "y"):
        raise ValueError(f"component must be 'x' or 'y', got {component!r}")
    gx, gy = decay_rates(n, theta, p)
    total = gx if component == "x" else gy
    ff = p.gamma_p * ((p.nbar + p.m_corr + 1.0) if component == "x"
                      else _half_squeezed_variance(p) + 0.5)
    return RateDecomposition(total=total, ff_part=ff, sr_part=total - ff)


def oscillator_rate_decomposition(p: SqueezingParams) -> RateDecomposition:
    """Oscillator quadrature damping: all of gamma_p / 2 comes from self-reaction."""
    return RateDecomposition(total=0.5 * p.gamma_p, ff_part=0.0, sr_part=0.5 * p.gamma_p)


def spin_moments_from_state(state: QuantumState, ops: CollectiveOps) -> SpinMoments:
    """Collect first moments and transverse covariances of a state.

    The moments come from ``_collective_moments``, which applies Sx, Sy
    and Sz to a vector (Sx and Sy to a matrix, whose means are inner
    products with the operators) once each; the covariances are those of
    ``sym_covariance``.
    """
    mx, my, mz, xx, yy, xy = _collective_moments(state, ops, ("x", "y", "z", "xx", "yy", "xy"))
    return SpinMoments(
        mean_x=mx.real,
        mean_y=my.real,
        mean_z=mz.real,
        var_x=(xx - mx * mx).real,
        var_y=(yy - my * my).real,
        cov_xy=(xy - mx * my).real,
    )
