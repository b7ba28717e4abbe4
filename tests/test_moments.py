import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from squeezelax import spin_algebra
from squeezelax.moments import (OscillatorMoments, SpinMoments, SqueezingParams,
                                collective_cov_rhs, collective_mean_rhs,
                                decay_rates, gardiner_rhs, gardiner_solution,
                                input_field_variances, minimal_m, oscillator_cov_rhs,
                                oscillator_mean_rhs, oscillator_solution,
                                oscillator_rate_decomposition,
                                rate_decomposition, spin_moments_from_state)
from squeezelax.spin_algebra import (BlochAngles, DickeSpace, QuantumState,
                                     build_collective_ops, expectation,
                                     spin_coherent_state)
from squeezelax.verification import random_pure


class TestSqueezingParams:
    def test_minimal_correlation_values(self):
        assert minimal_m(0.0) == 0.0
        assert minimal_m(1.0) == pytest.approx(math.sqrt(2))
        assert minimal_m(4.2) == pytest.approx(4.67332857, abs=1e-7)
        with pytest.raises(ValueError):
            minimal_m(-0.1)

    def test_correlation_bound_enforced(self):
        with pytest.raises(ValueError):
            SqueezingParams(nbar=1.0, m_corr=1.5)
        SqueezingParams(nbar=1.0, m_corr=math.sqrt(2))  # on the bound: allowed

    def test_minimal_uncertainty_flag(self):
        assert SqueezingParams.minimal(0.7).is_minimal_uncertainty
        assert not SqueezingParams(nbar=0.7, m_corr=0.3).is_minimal_uncertainty

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SqueezingParams(nbar=0.0, m_corr=0.0, gamma_p=0.0)

    @pytest.mark.parametrize("field", ["nbar", "m_corr", "gamma_p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, field, value):
        values = {"nbar": 1.0, "m_corr": 0.3, "gamma_p": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SqueezingParams(**values)


class TestInputFieldVariances:
    def test_reference_squeezing(self):
        vx, vy = input_field_variances(SqueezingParams(nbar=1.0, m_corr=math.sqrt(2)))
        assert vx == pytest.approx(3 + 2 * math.sqrt(2))
        assert vy == pytest.approx(3 - 2 * math.sqrt(2))

    def test_vacuum(self):
        assert input_field_variances(SqueezingParams(0.0, 0.0)) == (1.0, 1.0)

    def test_product_above_one_otherwise(self):
        vx, vy = input_field_variances(SqueezingParams(nbar=1.0, m_corr=0.5))
        assert vx * vy > 1.0


class TestGardinerRhs:
    def test_vacuum_symmetric_decay(self):
        p = SqueezingParams(0.0, 0.0, gamma_p=1.0)
        d = gardiner_rhs(SpinMoments(1.0, 1.0, 0.0), p)
        assert (d.mean_x, d.mean_y, d.mean_z) == pytest.approx((-0.5, -0.5, -1.0))

    @pytest.mark.parametrize("nbar", [0.1, 0.5, 2.0])
    def test_steady_state_inversion(self, nbar):
        p = SqueezingParams.minimal(nbar)
        ss = -1.0 / (2 * nbar + 1)
        d = gardiner_rhs(SpinMoments(0.0, 0.0, ss), p)
        assert abs(d.mean_z) < 1e-14

    def test_squeezing_dependent_transverse_rates(self):
        p = SqueezingParams.minimal(0.5)
        d = gardiner_rhs(SpinMoments(1.0, 1.0, 0.0), p)
        assert d.mean_x == pytest.approx(-(1.0 + math.sqrt(0.75)))
        assert d.mean_y == pytest.approx(-(1.0 - math.sqrt(0.75)))


class TestOscillatorRhs:
    def test_linear_damping(self):
        p = SqueezingParams.minimal(0.5, gamma_p=1.0)
        assert oscillator_mean_rhs(OscillatorMoments(2.0, 0.0), p) == pytest.approx((-1.0, 0.0))

    def test_mean_decay_independent_of_squeezing(self):
        m = OscillatorMoments(1.3, -0.4)
        vacuum = oscillator_mean_rhs(m, SqueezingParams(0.0, 0.0))
        squeezed = oscillator_mean_rhs(m, SqueezingParams.minimal(5.0))
        assert vacuum == squeezed

    def test_vacuum_variances_stationary(self):
        p = SqueezingParams(0.0, 0.0)
        assert oscillator_cov_rhs(OscillatorMoments(0.0, 0.0, 1.0, 1.0, 0.0), p) \
            == pytest.approx((0.0, 0.0, 0.0))

    def test_fixed_point_is_input_variance(self):
        p = SqueezingParams.minimal(0.8, gamma_p=2.0)
        vx, vy = input_field_variances(p)
        d = oscillator_cov_rhs(OscillatorMoments(0.0, 0.0, vx, vy, 0.0), p)
        assert max(abs(x) for x in d) < 1e-12

    def test_cross_covariance_relaxation(self):
        p = SqueezingParams.minimal(1.0, gamma_p=1.0)
        d = oscillator_cov_rhs(OscillatorMoments(0.0, 0.0, 3.0, 1.0, 0.3), p)
        assert d[2] == pytest.approx(-0.3)

    def test_heisenberg_bound_enforced(self):
        with pytest.raises(ValueError):
            OscillatorMoments(0.0, 0.0, 0.5, 0.5, 0.0)


# a vacuum, a minimum-uncertainty and a mixed bath
BATHS = [SqueezingParams(0.0, 0.0), SqueezingParams.minimal(0.5, gamma_p=1.7),
         SqueezingParams(1.0, 0.3, gamma_p=0.6)]


class TestExactSolutions:
    @pytest.mark.parametrize("p", BATHS)
    def test_start_is_returned_bit_for_bit(self, p):
        # z_inf + (z0 - z_inf) rounds away from z0 for these starts
        spin = SpinMoments(0.1, -0.7, 0.1 + 1e-16)
        osc = OscillatorMoments(-0.3, 1.9, 1.0 + 2e-16, 3.7, 0.1)
        times = np.array([0.0, 0.5])
        assert gardiner_solution(spin, p, 0.0).tolist() == [0.1, -0.7, 0.1 + 1e-16]
        assert gardiner_solution(spin, p, times)[0].tolist() == [0.1, -0.7, 0.1 + 1e-16]
        assert oscillator_solution(osc, p, times)[0].tolist() == [-0.3, 1.9, 1.0 + 2e-16, 3.7, 0.1]

    @pytest.mark.parametrize("p", BATHS)
    def test_central_difference_matches_the_rhs(self, p):
        h = 1e-5
        for t in (0.3, 1.1, 4.0):
            spin = gardiner_solution(SpinMoments(0.6, -0.5, 0.4), p, (t - h, t, t + h))
            d = gardiner_rhs(SpinMoments(*spin[1]), p)
            assert np.allclose((spin[2] - spin[0]) / (2 * h), (d.mean_x, d.mean_y, d.mean_z),
                               rtol=0.0, atol=1e-8)
            osc = oscillator_solution(OscillatorMoments(2.0, -1.0, 1.5, 0.9, 0.3), p,
                                      (t - h, t, t + h))
            m = OscillatorMoments(*osc[1])
            assert np.allclose((osc[2] - osc[0]) / (2 * h),
                               oscillator_mean_rhs(m, p) + oscillator_cov_rhs(m, p),
                               rtol=0.0, atol=1e-8)


class TestCollectiveMeanRhs:
    def test_south_pole_thermal_repopulation(self):
        # ground state: <S-S+> = n, so dSz/dt = 2 gamma_p n nbar
        n, nbar = 6, 0.3
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        p = SqueezingParams.minimal(nbar)
        state = spin_coherent_state(space, BlochAngles(math.pi, 0.0))
        _, _, dz = collective_mean_rhs(state, ops, p)
        assert dz == pytest.approx(2 * p.gamma_p * n * nbar)

    def test_north_pole_enhanced_decay(self):
        n, nbar = 6, 0.3
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        p = SqueezingParams.minimal(nbar)
        state = spin_coherent_state(space, BlochAngles(0.0, 0.0))
        _, _, dz = collective_mean_rhs(state, ops, p)
        assert dz == pytest.approx(-2 * p.gamma_p * (nbar + 1) * n)

    def test_dimension_mismatch(self):
        ops = build_collective_ops(DickeSpace(3))
        state = spin_coherent_state(DickeSpace(2), BlochAngles(1.0, 0.0))
        with pytest.raises(ValueError):
            collective_mean_rhs(state, ops, SqueezingParams(0.0, 0.0))


class TestCollectiveCovRhs:
    def test_single_spin_chain_rule_identity(self):
        # V_sx = 1 - <sx>^2, so dV/dt = -2 <sx> d<sx>/dt
        rng = np.random.default_rng(11)
        ops = build_collective_ops(DickeSpace(1))
        p = SqueezingParams.minimal(0.6)
        for _ in range(20):
            state = random_pure(rng, 2)
            dvx, dvy, _ = collective_cov_rhs(state, ops, p)
            mx = expectation(ops.sx, state).real
            my = expectation(ops.sy, state).real
            dx, dy, _ = collective_mean_rhs(state, ops, p)
            assert dvx == pytest.approx(-2 * mx * dx, abs=1e-12)
            assert dvy == pytest.approx(-2 * my * dy, abs=1e-12)

    def test_south_pole_approaches_oscillator_form(self):
        n, nbar = 60, 0.05
        p = SqueezingParams.minimal(nbar)
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(0.98 * math.pi, 0.0))
        dvx, _, _ = collective_cov_rhs(state, ops, p)
        m = spin_moments_from_state(state, ops)
        approx = -n * p.gamma_p * (m.var_x - n * (2 * nbar + 2 * p.m_corr + 1))
        assert dvx == pytest.approx(approx, rel=0.1)

    def test_vector_state_forms_no_operator_product(self):
        # one dense dim x dim complex product would take 16 dim^2 bytes
        n = 400
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(0.7 * math.pi, 0.3))
        p = SqueezingParams.minimal(0.05)
        tracemalloc.start()
        try:
            collective_cov_rhs(state, ops, p)
            collective_mean_rhs(state, ops, p)
            spin_moments_from_state(state, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * space.dim ** 2


def _counting(ops, monkeypatch):
    """A copy of ops that counts its operator applications, and the list of counts.

    A dense matrix counts the np.matmul calls it takes part in; Sz scaling
    a vector by its diagonal (an np.multiply) and each row ``_banded_apply``
    applies Sx and Sy to count as banded applications.
    """
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc in (np.matmul, np.multiply):
                calls.append("dense" if ufunc is np.matmul else "banded")
            plain = [x.view(np.ndarray) if isinstance(x, Counting) else x for x in inputs]
            return getattr(ufunc, method)(*plain, **kwargs)

    counted = dataclasses.replace(ops, sz=ops.sz.view(Counting))
    # the cache that S-, S+, Sx and Sy are read from, filled with counting views
    vars(counted)["_transverse"] = tuple(a.view(Counting) for a in ops._transverse)
    banded = spin_algebra._banded_apply

    def counting_apply(ops, rows, out):
        calls.extend(["banded"] * (2 * len(rows)))
        banded(ops, rows, out)

    monkeypatch.setattr(spin_algebra, "_banded_apply", counting_apply)
    return counted, calls


class TestOperatorApplications:
    # each operator a collective moment function needs is applied to the
    # state once. A vector takes the same five O(dim) banded applications in
    # every function, Sz, Sx and Sy to psi and Sx and Sy to Sz psi, and no
    # dense product; <S- Sz> is a sum of Gram entries and <S- S+> =
    # |S+ psi|^2 a sum over the superdiagonal. A matrix takes dense
    # products; a mean Tr(A rho) there is an inner product with A', so it
    # needs no application. The public <Sz> read of collective_cov_rhs goes
    # through expectation, which takes plain arrays and so is not counted
    @pytest.mark.parametrize("fn, kind, applications", [
        (collective_cov_rhs, "vector", 5), (collective_cov_rhs, "matrix", 5),
        (collective_mean_rhs, "vector", 5), (collective_mean_rhs, "matrix", 2),
        (spin_moments_from_state, "vector", 5), (spin_moments_from_state, "matrix", 2)])
    def test_applications_per_state(self, fn, kind, applications, monkeypatch):
        rng = np.random.default_rng(5)
        ops = build_collective_ops(DickeSpace(6))
        state = random_pure(rng, 7)
        if kind == "matrix":
            state = QuantumState.from_matrix(0.5 * state.density() + 0.5 * np.eye(7) / 7)
        counted, calls = _counting(ops, monkeypatch)
        args = (state, counted) if fn is spin_moments_from_state else (
            state, counted, SqueezingParams(0.5, 0.2))
        got = fn(*args)
        assert calls == ["banded" if kind == "vector" else "dense"] * applications
        assert got == fn(state, ops, *args[2:])

    def test_leaves_no_reference_cycle(self):
        # a cycle would keep the state's ops alive until the next collection,
        # about 45 MB over fig4b's n = 1..150
        ops = build_collective_ops(DickeSpace(6))
        state = random_pure(np.random.default_rng(6), 7)
        gc.collect()
        gc.disable()
        try:
            collective_cov_rhs(state, ops, SqueezingParams(0.5, 0.2))
            collective_mean_rhs(state, ops, SqueezingParams(0.5, 0.2))
            spin_moments_from_state(state, ops)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMinimalBathCancellation:
    # in the minimal bath N - M + 1/2 = 1 / (4 (N + 1/2 + M)); the difference
    # N - M loses 2.4e-4 of it at N = 1e6 and all of it at N = 1e8
    @pytest.mark.parametrize("nbar", [1e6, 1e8])
    def test_squeezed_decay_rate(self, nbar):
        p = SqueezingParams.minimal(nbar)
        _, gy = decay_rates(1, math.pi / 2, p)
        assert gy == pytest.approx(0.25 / (nbar + 0.5 + p.m_corr), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nbar", [1e6, 1e8])
    def test_input_variance_product(self, nbar):
        vx, vy = input_field_variances(SqueezingParams.minimal(nbar))
        assert vx * vy == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("nbar", [1e6, 1e8])
    def test_collective_mean_rhs_along_y(self, nbar):
        p = SqueezingParams.minimal(nbar)
        space = DickeSpace(1)
        state = spin_coherent_state(space, BlochAngles(math.pi / 2, math.pi / 2))
        _, dy, _ = collective_mean_rhs(state, build_collective_ops(space), p)
        want = gardiner_rhs(SpinMoments(0.0, 1.0, 0.0), p).mean_y
        assert dy == pytest.approx(want, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("nbar", [1e6, 1e8])
    def test_squeezed_field_fluctuation_part(self, nbar):
        p = SqueezingParams.minimal(nbar)
        dec = rate_decomposition(1, math.pi / 2, p, "y")
        assert dec.ff_part - 0.5 == pytest.approx(0.25 / (nbar + 0.5 + p.m_corr), rel=1e-6,
                                                  abs=0.0)


class TestDecayRates:
    def test_single_spin_matches_gardiner(self):
        p = SqueezingParams.minimal(0.3, gamma_p=1.7)
        for theta in (0.1, 1.0, 3.0):
            gx, gy = decay_rates(1, theta, p)
            assert gx == pytest.approx(p.gamma_p * (0.3 + p.m_corr + 0.5))
            assert gy == pytest.approx(p.gamma_p * (0.3 - p.m_corr + 0.5))

    def test_reference_value_n15_south_pole(self):
        p = SqueezingParams.minimal(0.05)
        gx, _ = decay_rates(15, math.pi, p)
        assert gx == pytest.approx(0.05 + math.sqrt(0.05 * 1.05) + 0.5 + 7.0)

    def test_large_n_oscillator_limit(self):
        p = SqueezingParams.minimal(0.05)
        n = 5000
        gx, gy = decay_rates(n, 0.999 * math.pi, p)
        assert abs(gx / (0.5 * n) - 1.0) < 5e-3
        assert abs(gy / (0.5 * n) - 1.0) < 5e-3


class TestRateDecomposition:
    def test_single_spin_split(self):
        p = SqueezingParams.minimal(0.3)
        dec = rate_decomposition(1, 1.0, p, "x")
        assert dec.ff_part == pytest.approx(p.gamma_p * (0.3 + p.m_corr + 1.0))
        assert dec.sr_part == pytest.approx(-0.5 * p.gamma_p)
        assert dec.total == pytest.approx(p.gamma_p * (0.3 + p.m_corr + 0.5))

    def test_collective_enhancement_dominates_at_south_pole(self):
        p = SqueezingParams.minimal(0.05)
        dec = rate_decomposition(200, math.pi, p, "x")
        assert dec.sr_part > 10 * dec.ff_part
        assert dec.sr_part == pytest.approx(0.5 * 200 * p.gamma_p, rel=0.01)

    def test_oscillator_reference(self):
        dec = oscillator_rate_decomposition(SqueezingParams.minimal(1.0, gamma_p=2.0))
        assert dec.ff_part == 0.0
        assert dec.sr_part == pytest.approx(1.0)
