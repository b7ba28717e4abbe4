import math

import numpy as np
import pytest

from squeezelax.moments import SpinMoments, SqueezingParams, gardiner_rhs
from squeezelax.ode import IntegrationError, IntegratorConfig, integrate


def test_adaptive_exponential():
    cfg = IntegratorConfig(rtol=1e-10, atol=1e-14)
    result = integrate(lambda y, t: -y, np.array([1.0]), (0.0, 1.0), cfg)
    assert abs(result.times[-1] - 1.0) < 1e-14
    assert abs(result.states[-1, 0] - math.exp(-1.0)) < 1e-9
    assert result.diagnostics["accepted"] > 0


def test_records_at_requested_times():
    cfg = IntegratorConfig(rtol=1e-12, atol=1e-14)
    grid = np.linspace(0.0, 10.0, 600)
    result = integrate(lambda y, t: -y, np.array([1.0]), grid, cfg)
    assert result.times.tolist() == grid.tolist()
    assert result.states.shape == (600, 1)
    assert np.max(np.abs(result.states[:, 0] / np.exp(-grid) - 1.0)) < 1e-10
    ends = integrate(lambda y, t: -y, np.array([1.0]), (0.0, 10.0), cfg)
    assert ends.times.tolist() == [0.0, 10.0] and ends.states.shape == (2, 1)
    assert ends.states[0, 0] == 1.0
    assert abs(ends.states[1, 0] / math.exp(-10.0) - 1.0) < 1e-10
    # a cut step hands the controller back the step it proposed before the
    # cut, so each output time costs at most one more step
    assert result.diagnostics["accepted"] <= ends.diagnostics["accepted"] + len(grid)


@pytest.mark.parametrize("times", [(1.0, 0.5), (0.0, 0.0), (0.0, 2.0, 1.0), (0.0, 1.0, 1.0),
                                   (0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0),
                                   (0.0,), (), [[0.0, 1.0]], -1.0, math.nan])
def test_rejects_output_times_not_increasing_or_not_finite(times):
    with pytest.raises(ValueError):
        integrate(lambda y, t: -y, np.array([1.0]), times, IntegratorConfig())


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
    for y0 in (np.ones((2, 2, 2)), np.ones((0, 3)), np.ones(0), np.array(1.0)):  # bad stacks
        with pytest.raises(ValueError):
            integrate(lambda y, t: -y, y0, (0.0, 1.0), IntegratorConfig())


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
    result = integrate(lambda y, t: math.cos(t) * y, np.array([1.0]),
                       np.linspace(0.0, 5.0, 51), cfg)
    expected = np.exp(np.sin(result.times))
    assert np.max(np.abs(result.states[:, 0] / expected - 1.0)) < 1e-10


def test_step_size_underflow_at_blowup():
    # y' = y^2, y(0) = 1 has the solution 1 / (1 - t), which blows up at t = 1
    with pytest.raises(IntegrationError, match="step size underflow") as info:
        integrate(lambda y, t: y ** 2, np.array([1.0]), (0.0, 2.0), IntegratorConfig())
    assert abs(info.value.t - 1.0) < 1e-3


def test_batch_of_one_steps_as_the_single_state():
    def rhs(y, _t):
        return np.stack([-y[..., 0] + y[..., 1] ** 2, -3.0 * y[..., 1]], axis=-1)

    cfg = IntegratorConfig(dt=0.5, rtol=1e-9, atol=1e-12)
    single = integrate(rhs, np.array([1.0, 2.0]), (0.0, 4.0), cfg)
    batch = integrate(rhs, np.array([[1.0, 2.0]]), (0.0, 4.0), cfg)
    assert single.diagnostics["rejected"] > 0
    assert batch.diagnostics == single.diagnostics
    assert np.array_equal(batch.times, single.times)
    assert batch.states.shape == (len(single.times), 1, 2)
    assert np.array_equal(batch.states[:, 0], single.states)


def test_batch_holds_every_member_to_its_own_tolerance():
    # y_b' = -lambda_b y_b. The error norm is the worst member's, so each
    # member's global error stays within twice its own tolerance, as the
    # stiffest one's does when integrated alone (about 1.5); a norm pooled
    # over the eight members lets the stiffest one reach about 3.8.
    rates = np.linspace(1.0, 50.0, 8)
    rtol, atol = 1e-8, 1e-12
    cfg = IntegratorConfig(rtol=rtol, atol=atol)
    grid = np.linspace(0.0, 1.0, 41)
    result = integrate(lambda y, _t: -rates[:, None] * y, np.ones((8, 1)), grid, cfg)
    assert result.states.shape == (len(result.times), 8, 1)
    exact = np.exp(-np.outer(result.times, rates))
    err = np.abs(result.states[:, :, 0] - exact) / (atol + rtol * exact)
    assert np.max(err) <= 2.0
    solo = integrate(lambda y, _t: -rates[-1] * y, np.ones(1), grid, cfg)
    solo_err = np.abs(solo.states[:, 0] - np.exp(-rates[-1] * solo.times)) / (
        atol + rtol * np.exp(-rates[-1] * solo.times))
    assert np.max(err[:, -1]) <= 1.01 * np.max(solo_err)


def test_complex_batch_and_step_range():
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    omega = np.array([[1.0], [2.0], [3.0]])
    calls = []

    def rhs(y, t):
        calls.append(t)
        return 1j * omega * y

    y0 = np.ones((3, 1), dtype=complex)
    result = integrate(rhs, y0, (0.0, math.pi), cfg)
    assert np.iscomplexobj(result.states) and result.states.shape == (2, 3, 1)
    assert np.max(np.abs(result.states[-1] - np.exp(1j * math.pi * omega))) < 1e-9
    diag = result.diagnostics
    # attempt j makes calls 6j + 1 .. 6j + 6, the first at t + h / 5 and the
    # last at t + h; it was accepted if the next attempt starts at its end
    first, last = np.array(calls[1::6]), np.array(calls[6::6])
    starts = (5.0 * first - last) / 4.0
    taken = np.append(np.isclose(starts[1:], last[:-1], rtol=0.0, atol=1e-12), True)
    assert diag["rejected"] > 0 and np.count_nonzero(taken) == diag["accepted"]
    ends = np.concatenate(([0.0], last[taken]))
    assert ends[-1] == math.pi
    steps = np.diff(ends)
    # the range covers the steps the controller chose, not the last one,
    # which is cut short to land on t1
    assert diag["dt_min"] == pytest.approx(np.min(steps[:-1]), rel=1e-12)
    assert diag["dt_max"] == pytest.approx(np.max(steps[:-1]), rel=1e-12)

    def step_range(times):
        d = integrate(lambda y, t: 1j * omega * y, y0, times, cfg).diagnostics
        return d["accepted"], d["dt_min"], d["dt_max"]

    # the same steps, then a last one cut to about 1e-6, which the range ignores
    cut = ends[-2] + 1e-6
    assert step_range((0.0, cut)) == (len(steps), diag["dt_min"], diag["dt_max"])
    # the same again with the run going on to pi: the step cut to land on
    # the inner output time stays out of the range, and so does the last
    assert step_range((0.0, cut, math.pi)) == (len(steps) + 1, diag["dt_min"], diag["dt_max"])
    # when every step is cut short, the range is that of the cut steps
    one = integrate(lambda y, t: -y, np.array([1.0]), (0.0, 1e-4), cfg).diagnostics
    assert one["accepted"] == 1 and one["dt_min"] == one["dt_max"] == 1e-4
    grid = integrate(lambda y, t: -y, np.array([1.0]), np.linspace(0.0, 1e-4, 5), cfg)
    assert grid.diagnostics["accepted"] == 4
    assert grid.diagnostics["dt_min"] == pytest.approx(2.5e-5, rel=1e-9)
    assert grid.diagnostics["dt_max"] == pytest.approx(2.5e-5, rel=1e-9)
