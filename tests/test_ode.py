import math

import numpy as np
import pytest

from squeezelax.moments import SpinMoments, SqueezingParams, gardiner_rhs
from squeezelax.ode import (_BLOCK, _DEGREE_FIRST, IntegrationError, IntegratorConfig,
                            _chebyshev_series, _widest_beta, integrate, propagate)


def _propagate(apply, bound, *rest):
    """``propagate`` for a plain y -> A y, through the kernel it takes: step(i) writes
    ring[i] = 2 A~ ring[i - 1] - ring[i - 2]."""

    def kernel(ring):
        def step(i):
            out, cur = ring[i], ring[i - 1]
            np.multiply(apply(cur), 4.0 / bound, out=out)  # read after propagate checks bound
            out += cur
            out += cur
            out -= ring[i - 2]

        return step

    return propagate(kernel, bound, *rest)


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
    with pytest.raises(ValueError):
        _propagate(lambda y: -y, 1.0, np.array([1.0]), times, 1e-10, 1e-12)


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


def test_complex_state_propagation():
    # d/dt z = i z: rotation in the complex plane at unit speed. The
    # eigenvalue i lies off the negative real axis, where T_k(A~) grows, so
    # windows are refused until the series converges
    result = _propagate(lambda y: 1j * y, 2.0, np.array([1.0 + 0j]), (0.0, math.pi),
                        1e-11, 1e-13)
    assert abs(result.states[-1, 0] - (-1.0)) < 1e-9
    assert np.iscomplexobj(result.states)
    assert result.diagnostics["rejected"] > 0


def test_nonfinite_rhs_reports_context():
    def rhs(y, t):
        return np.array([float("nan")])

    with pytest.raises(IntegrationError):
        integrate(rhs, np.array([1.0]), (0.0, 1.0), IntegratorConfig())
    with pytest.raises(IntegrationError, match="non-finite"):
        _propagate(lambda y: rhs(y, 0.0), 1.0, np.array([1.0]), 1.0, 1e-10, 1e-12)


def test_config_validation():
    for name in ("dt", "rtol", "atol"):
        for value in (-1.0, 0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                IntegratorConfig(**{name: value})
    with pytest.raises(ValueError):
        integrate(lambda y, t: -y, np.array([1.0]), (1.0, 0.5), IntegratorConfig())
    # one real state only: stacks and complex states are propagate's
    for y0 in (np.ones((2, 2, 2)), np.ones((0, 3)), np.ones(0), np.array(1.0), np.ones((2, 3)),
               np.ones(2, dtype=complex)):
        with pytest.raises(ValueError):
            integrate(lambda y, t: -y, y0, (0.0, 1.0), IntegratorConfig())
    for bound in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            _propagate(lambda y: -y, bound, np.ones(2), 1.0, 1e-10, 1e-12)
    for y0 in (np.ones(0), np.ones((0, 3)), np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            _propagate(lambda y: -y, 1.0, y0, 1.0, 1e-10, 1e-12)
    for rtol, atol in ((0.0, 1e-12), (1e-10, -1.0), (math.nan, 1e-12), (1e-10, math.inf)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            _propagate(lambda y: -y, 1.0, np.ones(2), 1.0, rtol, atol)


def test_widest_beta_reads_no_term_past_a_short_series():
    # below beta of about 7.5 the series ends at or before degree 64
    assert len(_chebyshev_series(7.5)[1]) <= 65 < len(_chebyshev_series(7.6)[1])
    assert 8.0 < _widest_beta(1e-54) < 71.0
    for eps in (1e-55, 1e-61, 5e-324):
        with pytest.raises(ValueError, match="met by no Chebyshev window of degree 64"):
            _widest_beta(eps)
    with pytest.raises(ValueError, match="met by no Chebyshev window"):
        _propagate(lambda y: -y, 1.0, np.ones(2), 1.0, 1e-60, 1e-12)


def _bessel_reference(beta, ks):
    """(2 - [k = 0]) e^-beta I_k(beta) by the trapezoid rule on 2048 points.

    e^-beta I_k(beta) = (1/2 pi) int_0^2pi e^(beta (cos z - 1) + i k z) dt,
    z = t + i s, for any s: the integrand is analytic and periodic. At
    s = asinh(k / beta), the saddle point, its modulus peaks at t = 0 near
    the value of the integral, so the sum keeps its digits where the c_k are
    tiny, and the rule converges exponentially.
    """
    t = 2.0 * math.pi * np.arange(2048) / 2048
    z = t[:, None] + 1j * np.arcsinh(ks / beta)
    mean = np.exp(beta * (np.cos(z) - 1.0) + 1j * ks * z).real.mean(axis=0)
    return np.where(ks == 0, 1.0, 2.0) * mean


def test_chebyshev_series_matches_the_bessel_integral_past_the_first_rung():
    # up to twice the first rung's beta at the default tolerances (about 275)
    top = 2.0 * _widest_beta(0.1 * 1e-12, _DEGREE_FIRST)
    assert top > 2.0 * _DEGREE_FIRST  # past every beta the bisection tries
    for beta in (1e-9, 1e-3, 0.5, 3.0, 7.5, 30.0, 71.2, 128.0, 137.4, 180.0, 230.0, top):
        c = np.array(_chebyshev_series(beta)[0])
        reference = _bessel_reference(beta, np.arange(len(c)))
        checked = c > 1e-30
        assert np.count_nonzero(checked) >= 4
        assert np.max(np.abs(c[checked] / reference[checked] - 1.0)) <= 1e-13, beta


def test_first_term_past_the_ceiling_decides_its_block():
    # the first term is finite and far past the ceiling, and the next ones
    # of its block overflow: the window is refused, as a term-by-term check
    # would refuse it, until the width underflows; nothing non-finite is reported
    with pytest.raises(IntegrationError, match="window underflow"):
        _propagate(lambda y: -1e200 * y, 1.0, np.ones(3), 1.0, 1e-10, 1e-12)


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


def test_step_range():
    # a rotation at omega = 3 as a real system
    cfg = IntegratorConfig(rtol=1e-11, atol=1e-13)
    calls = []

    def rhs(y, t):
        calls.append(t)
        return 3.0 * np.array([-y[1], y[0]])

    y0 = np.array([1.0, 0.0])
    result = integrate(rhs, y0, (0.0, math.pi), cfg)
    assert np.max(np.abs(result.states[-1] - [math.cos(3 * math.pi), 0.0])) < 1e-9
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

    def accepted(times):
        return integrate(lambda y, t: 3.0 * np.array([-y[1], y[0]]), y0, times,
                         cfg).diagnostics["accepted"]

    # the same steps, then a last one cut to about 1e-6
    cut = ends[-2] + 1e-6
    assert accepted((0.0, cut)) == len(steps)
    # the same again with the run going on to pi: one more step, cut to
    # land on the inner output time
    assert accepted((0.0, cut, math.pi)) == len(steps) + 1
    # when every step is cut short, there is one per output interval
    one = integrate(lambda y, t: -y, np.array([1.0]), (0.0, 1e-4), cfg).diagnostics
    assert one["accepted"] == 1
    grid = integrate(lambda y, t: -y, np.array([1.0]), np.linspace(0.0, 1e-4, 5), cfg)
    assert grid.diagnostics["accepted"] == 4


# A diagonal generator: exp(tA) y0 is known entry by entry.
RATES = np.linspace(0.0, 200.0, 12)


def _decay(y):
    return -RATES * y


def _exact(times, y0):
    return np.exp(-np.multiply.outer(np.asarray(times), RATES)).reshape(
        (len(times),) + (1,) * (y0.ndim - 1) + RATES.shape) * y0


@pytest.mark.parametrize("shape", [(12,), (4, 12)], ids=["single", "stack"])
def test_propagate_is_exact_on_a_diagonal_generator(shape):
    y0 = np.random.default_rng(7).normal(size=shape)
    times = np.linspace(0.0, 3.0, 7)
    result = _propagate(_decay, RATES[-1], y0, times, 1e-12, 1e-14)
    assert result.states.shape == (7,) + shape
    assert result.times.tolist() == times.tolist()
    assert np.max(np.abs(result.states - _exact(times, y0))) <= 1e-13 * np.max(np.abs(y0))
    assert result.diagnostics["degree_max"] <= _DEGREE_FIRST


def test_output_times_inside_one_window_equal_separate_calls():
    y0 = np.random.default_rng(8).normal(size=12)
    grid = (0.0, 0.1, 0.25, 0.4)
    shared = _propagate(_decay, RATES[-1], y0, grid, 1e-10, 1e-12)
    assert shared.diagnostics["accepted"] == 1
    for row, t in enumerate(grid[1:], start=1):
        alone = _propagate(_decay, RATES[-1], y0, t, 1e-10, 1e-12)
        # the same series; the earlier times also sum the terms their own
        # truncation would have left out
        assert np.max(np.abs(alone.states[-1] - shared.states[row])) <= 1e-13
    # the output times cost no applications beyond those of the last one
    assert shared.diagnostics["rhs_evals"] == alone.diagnostics["rhs_evals"]


def test_low_bound_is_refused_or_raises():
    # the bound is meant to cover the spectrum, here up to 200; below it the
    # T_k grow geometrically. Slightly low, windows are refused and the
    # result still meets the tolerance; further down the truncation
    # estimates add up past it and the run stops, and a bound far too small
    # refuses every window until it underflows
    y0 = np.random.default_rng(9).normal(size=12)
    times = np.linspace(0.0, 1.0, 11)
    rtol, atol = 1e-10, 1e-12
    result = _propagate(_decay, 190.0, y0, times, rtol, atol)
    exact = _exact(times, y0)
    assert result.diagnostics["rejected"] > 0
    assert np.max(np.abs(result.states - exact) / (atol + rtol * np.abs(exact))) <= 1.0
    for bound in (150.0, 100.0, 20.0):
        with pytest.raises(IntegrationError, match="add up past the tolerance"):
            _propagate(_decay, bound, y0, times, rtol, atol)
    with pytest.raises(IntegrationError, match="window underflow"):
        _propagate(lambda y: -1e6 * y, 1.0, y0, times, rtol, atol)


def test_a_run_opens_at_the_first_rung():
    # no term grows, so every window but the last, cut at t = 3, takes the first rung's width
    y0 = np.random.default_rng(14).normal(size=12)
    diag = _propagate(_decay, RATES[-1], y0, (0.0, 3.0), 1e-10, 1e-12).diagnostics
    first = 2.0 * _widest_beta(0.1 * 1e-12, _DEGREE_FIRST) / RATES[-1]
    assert diag["rejected"] == diag["salvaged"] == 0 and diag["accepted"] == 3
    assert diag["dt_max"] == first and diag["degree_max"] == _DEGREE_FIRST


def test_a_refused_window_ends_at_a_narrower_rung():
    # with the bound at 190, the T_k of the entries decaying at up to 200
    # grow by about 1.6 per term: the first rung is refused, a fallback
    # of few terms ends the window, and the run goes on at its width
    y0 = np.random.default_rng(9).normal(size=12)
    times = np.linspace(0.0, 1.0, 11)
    rtol, atol = 1e-10, 1e-12
    result = _propagate(_decay, 190.0, y0, times, rtol, atol)
    diag = result.diagnostics
    assert 0 < diag["salvaged"] <= diag["rejected"]
    assert diag["dt_max"] < 2.0 * _widest_beta(0.1 * atol) / 190.0  # below the full width H
    exact = _exact(times, y0)
    assert np.max(np.abs(result.states - exact) / (atol + rtol * np.abs(exact))) <= 1.0


def test_propagate_reports_every_apply_call():
    calls = 0

    def apply(y):
        nonlocal calls
        calls += 1
        return _decay(y)

    y0 = np.random.default_rng(10).normal(size=(3, 12))
    for bound, times in ((200.0, 2.0), (200.0, np.linspace(0.0, 1.0, 9)), (190.0, 1.0)):
        calls = 0
        diag = _propagate(apply, bound, y0, times, 1e-10, 1e-12).diagnostics
        assert calls == diag["rhs_evals"] > 0
    assert diag["rejected"] > 0  # refused windows count their calls too


def test_entries_term_never_writes_stay_zero():
    # the kernel writes only the interior of each ring row, as evolve's
    # does: the zero borders of y0 stay zero, and the interior decays
    y0 = np.zeros((2, 14))
    y0[:, 1:-1] = np.random.default_rng(13).normal(size=(2, 12))
    rings, seen = [], []

    def kernel(ring):
        rings.append(ring)

        def step(i):
            out, cur, prev = ring[i][:, 1:-1], ring[i - 1][:, 1:-1], ring[i - 2][:, 1:-1]
            seen.append(np.shares_memory(out, cur) or np.shares_memory(out, prev))
            np.multiply(-RATES * cur, 4.0 / RATES[-1], out=out)
            out += 2.0 * cur
            out -= prev

        return step

    result = propagate(kernel, RATES[-1], y0, np.linspace(0.0, 1.0, 5), 1e-10, 1e-12)
    assert len(rings) == 1 and seen and not any(seen)
    assert np.all(rings[0][:, :, [0, -1]] == 0.0)
    assert not np.any(np.signbit(rings[0][:, :, [0, -1]]))
    assert np.all(result.states[:, :, [0, -1]] == 0.0)
    assert not np.any(np.signbit(result.states[:, :, [0, -1]]))
    exact = _exact(np.linspace(0.0, 1.0, 5), y0[:, 1:-1])
    assert np.max(np.abs(result.states[:, :, 1:-1] - exact)) <= 1e-12


def test_kernel_steps_the_rows_of_one_zeroed_ring():
    # propagate hands the kernel one zeroed, contiguous ring of _BLOCK + 2
    # rows; each step(i) of a block writes row i from rows i - 1 and i - 2,
    # which hold 0 and y at a window's start, so T_1 is the first pass halved,
    # and the last two rows of the block before it on every later block
    y0 = np.random.default_rng(10).normal(size=(3, 12))

    def kernel(ring):
        rings.append(ring)
        assert ring.shape == (_BLOCK + 2,) + y0.shape and ring.dtype == y0.dtype
        assert ring.flags.c_contiguous and not np.any(ring)

        def step(i):
            assert 2 <= i <= _BLOCK + 1
            if i == 2:
                # a window opens on rows 0 and 1 holding 0 and y; a block goes on from
                # the last two rows of the block before it
                opened.append(not np.any(ring[0]))
                if not opened[-1]:
                    assert np.array_equal(ring[0], written[_BLOCK])
                    assert np.array_equal(ring[1], written[_BLOCK + 1])
                elif len(opened) == 1:
                    assert np.array_equal(ring[1], y0)
            elif i == 3 and steps[-1] == 2 and opened[-1]:
                # T_1 in row 2 is the first pass halved, bit for bit
                assert np.array_equal(ring[2], 0.5 * written[2])
            np.multiply(_decay(ring[i - 1]), 4.0 / bound, out=ring[i])
            ring[i] += 2.0 * ring[i - 1]
            ring[i] -= ring[i - 2]
            steps.append(i)
            written[i] = ring[i].copy()

        return step

    for bound in (RATES[-1], 190.0):
        rings, steps, written, opened = [], [], {}, []
        diag = propagate(kernel, bound, y0, 1.0, 1e-10, 1e-12).diagnostics
        assert len(rings) == 1 and len(steps) == diag["rhs_evals"]
        # a full block is _BLOCK steps, rows 2 to _BLOCK + 1
        assert max(steps) == _BLOCK + 1
    assert diag["rejected"] > 0


def test_propagated_batch_of_one_equals_the_single_state():
    y0 = np.random.default_rng(11).normal(size=12)
    single = _propagate(_decay, RATES[-1], y0, np.linspace(0.0, 1.0, 5), 1e-10, 1e-12)
    batch = _propagate(_decay, RATES[-1], y0[None], np.linspace(0.0, 1.0, 5), 1e-10, 1e-12)
    assert batch.diagnostics == single.diagnostics
    assert batch.states.shape == (5, 1, 12)
    assert np.array_equal(batch.states[:, 0], single.states)


def test_propagated_stack_holds_every_member_to_its_own_tolerance():
    # member 1 is a millionth of member 0 and sits on the rate the bound
    # misses: its T_k grow past 1e3 times its own size long before they
    # reach member 0's, so only a per-member check refuses those windows
    rates = np.array([1.0, 100.0])
    y0 = np.array([[1.0, 0.0], [0.0, 1e-6]])
    times = np.linspace(0.0, 1.0, 11)
    rtol, atol = 1e-8, 1e-15
    result = _propagate(lambda y: -rates * y, 90.0, y0, times, rtol, atol)
    exact = np.exp(-times[:, None, None] * rates) * y0
    assert result.diagnostics["rejected"] > 0
    assert np.max(np.abs(result.states - exact) / (atol + rtol * np.abs(exact))) <= 1.0
    # the member alone is propagated in the same windows, to the same values
    # up to the order of the blocked sums
    alone = _propagate(lambda y: -rates * y, 90.0, y0[1], times, rtol, atol)
    assert alone.diagnostics["rhs_evals"] == result.diagnostics["rhs_evals"]
    assert np.allclose(alone.states, result.states[:, 1], rtol=1e-14, atol=0.0)


def test_complex_stack_propagation():
    phases = np.exp(1j * np.array([[0.3], [1.1], [2.5]]))
    y0 = phases * np.random.default_rng(12).normal(size=(3, 12))
    result = _propagate(_decay, RATES[-1], y0, (0.0, 0.5), 1e-11, 1e-13)
    assert np.iscomplexobj(result.states) and result.states.shape == (2, 3, 12)
    assert np.max(np.abs(result.states - _exact((0.0, 0.5), y0))) <= 1e-12
    diag = result.diagnostics
    assert 0 < diag["dt_min"] <= diag["dt_max"] <= 0.5
    assert 1 <= diag["degree_min"] <= diag["degree_max"] <= 64
