import math

import numpy as np
import pytest

from squeezelax.moments import SpinMoments, SqueezingParams, gardiner_rhs
from squeezelax.ode import _BLOCK_ROWS, IntegrationError, IntegratorConfig, integrate


def test_adaptive_exponential():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-14)
    result = integrate(lambda y, t: -y, np.array([1.0]), (0.0, 1.0), cfg)
    assert abs(result.times[-1] - 1.0) < 1e-14
    assert abs(result.states[-1, 0] - math.exp(-1.0)) < 1e-9
    assert result.diagnostics["accepted"] > 0


def test_records_across_block_boundaries():
    def decay(record_every):
        cfg = IntegratorConfig(rtol=1e-12, atol=1e-14, record_every=record_every)
        return integrate(lambda y, t: -y, np.array([1.0]), (0.0, 10.0), cfg)

    result, ends = decay(1), decay(10 ** 9)
    times, states = result.times, result.states
    assert len(times) == len(states) == result.diagnostics["accepted"] + 1
    assert len(times) > 2 * _BLOCK_ROWS + 1
    assert np.max(np.abs(states[:, 0] / np.exp(-times) - 1.0)) < 1e-10
    # the same steps, so the last record is the endpoint itself
    assert ends.times.tolist() == [0.0, 10.0] and times[-1] == 10.0
    assert ends.states[:, 0].tolist() == [1.0, states[-1, 0]]


def test_gardiner_means_match_analytic_exponentials():
    p = SqueezingParams(nbar=0.0, m_corr=0.0, gamma_p=1.0)

    def rhs(y, _t):
        d = gardiner_rhs(SpinMoments(*y), p)
        return np.array([d.mean_x, d.mean_y, d.mean_z])

    cfg = IntegratorConfig(rtol=1e-11, atol=1e-14)
    result = integrate(rhs, np.array([1.0, 1.0, 1.0]), (0.0, 2.0), cfg)
    t = result.times[-1]
    expected = np.array([
        math.exp(-0.5 * t),
        math.exp(-0.5 * t),
        -1.0 + 2.0 * math.exp(-t),  # relaxes to -1 with rate gamma_p at N=0
    ])
    assert np.max(np.abs(result.states[-1] - expected)) < 1e-9


def test_oscillator_covariances_reach_fixed_point():
    from squeezelax.moments import OscillatorMoments, oscillator_cov_rhs, oscillator_mean_rhs

    p = SqueezingParams.minimal(0.5)

    def rhs(y, _t):
        m = OscillatorMoments(*y)
        return np.array(oscillator_mean_rhs(m, p) + oscillator_cov_rhs(m, p))

    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    result = integrate(rhs, np.array([2.0, -1.0, 1.0, 1.0, 0.0]), (0.0, 20.0), cfg)
    vx, vy, cxy = result.states[-1, 2:]
    assert abs(vx - (2 * 0.5 + 2 * p.m_corr + 1)) < 1e-8
    assert abs(vy - (2 * 0.5 - 2 * p.m_corr + 1)) < 1e-8
    assert abs(cxy) < 1e-8


def test_linearity_commutes_with_scaling():
    a = np.array([[-1.0, 0.3], [0.2, -2.0]])

    def rhs(y, _t):
        return a @ y

    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    y0 = np.array([1.0, -0.5])
    base = integrate(rhs, y0, (0.0, 1.0), cfg).states[-1]
    scaled = integrate(rhs, 7.5 * y0, (0.0, 1.0), cfg).states[-1]
    assert np.max(np.abs(scaled - 7.5 * base)) / np.max(np.abs(scaled)) < 1e-10


def test_complex_state_integration():
    # d/dt z = i z: rotation in the complex plane at unit speed
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    result = integrate(lambda y, t: 1j * y, np.array([1.0 + 0j]), (0.0, math.pi), cfg)
    assert abs(result.states[-1, 0] - (-1.0)) < 1e-9
    assert np.iscomplexobj(result.states)


def test_nonfinite_rhs_reports_context():
    def rhs(y, t):
        return np.array([float("nan")])

    with pytest.raises(IntegrationError):
        integrate(rhs, np.array([1.0]), (0.0, 1.0), IntegratorConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=-1.0)
    with pytest.raises(ValueError):
        integrate(lambda y, t: -y, np.array([1.0]), (1.0, 0.5), IntegratorConfig())


def test_rhs_calls_match_the_reported_count():
    calls = 0

    def rhs(y, _t):
        nonlocal calls
        calls += 1
        return np.array([-y[0] + y[1] ** 2, -3.0 * y[1]])

    cfg = IntegratorConfig(dt=0.5, rtol=1e-9, atol=1e-12)
    diag = integrate(rhs, np.array([1.0, 2.0]), (0.0, 4.0), cfg).diagnostics
    assert diag["rejected"] > 0
    assert calls == diag["rhs_evals"] == 1 + 6 * (diag["accepted"] + diag["rejected"])


def test_nonautonomous_rhs():
    # the reused last stage must carry the endpoint's time
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    result = integrate(lambda y, t: math.cos(t) * y, np.array([1.0]), (0.0, 5.0), cfg)
    expected = np.exp(np.sin(result.times))
    assert np.max(np.abs(result.states[:, 0] / expected - 1.0)) < 1e-10


def test_step_size_underflow_at_blowup():
    # y' = y^2, y(0) = 1 has the solution 1 / (1 - t), which blows up at t = 1
    with pytest.raises(IntegrationError, match="step size underflow") as info:
        integrate(lambda y, t: y ** 2, np.array([1.0]), (0.0, 2.0), IntegratorConfig())
    assert abs(info.value.t - 1.0) < 1e-3
