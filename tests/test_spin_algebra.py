import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelax.spin_algebra import (BlochAngles, DickeSpace, QuantumState,
                                     _coherent_amplitudes, _collective_moments,
                                     _matrix_moments, _pure_densities,
                                     build_collective_ops, expectation,
                                     hpa_residual, product_expectation, spin_coherent_state,
                                     sym_covariance, third_moment)
from squeezelax.verification import random_pure


def basis_state(dim: int, k: int) -> QuantumState:
    amps = np.zeros(dim, dtype=complex)
    amps[k] = 1.0
    return QuantumState.from_vector(amps)


class TestCollectiveOps:
    def test_single_spin_is_pauli(self):
        ops = build_collective_ops(DickeSpace(1))
        assert np.allclose(ops.sz, np.diag([-1.0, 1.0]))
        assert np.allclose(ops.sm, [[0, 1], [0, 0]])
        assert np.allclose(ops.sx, [[0, 1], [1, 0]])
        assert np.allclose(ops.sy, [[0, 1j], [-1j, 0]])

    def test_two_spin_lowering_entries(self):
        ops = build_collective_ops(DickeSpace(2))
        assert ops.sm[0, 1] == pytest.approx(math.sqrt(2))
        assert ops.sm[1, 2] == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_commutation_relations(self, n):
        ops = build_collective_ops(DickeSpace(n))
        assert np.max(np.abs(ops.sm @ ops.sp - ops.sp @ ops.sm + ops.sz)) < 1e-12
        assert np.max(np.abs(ops.sz @ ops.sp - ops.sp @ ops.sz - 2 * ops.sp)) < 1e-12
        assert np.max(np.abs(ops.sz @ ops.sm - ops.sm @ ops.sz + 2 * ops.sm)) < 1e-12

    def test_hermitian_components(self):
        ops = build_collective_ops(DickeSpace(7))
        for op in (ops.sx, ops.sy, ops.sz):
            assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_rejects_invalid_spin_count(self):
        with pytest.raises(ValueError):
            DickeSpace(0)
        with pytest.raises(ValueError):
            DickeSpace(-3)

    def test_superdiagonal_and_lazy_transverse_matrices(self):
        n = 5
        ops = build_collective_ops(DickeSpace(n))
        k = np.arange(n)
        assert np.array_equal(ops.s, np.sqrt((k + 1.0) * (n - k)))
        assert "_transverse" not in vars(ops)
        sm = ops.sm  # the first read builds all four, once
        assert "_transverse" in vars(ops) and ops.sm is sm
        assert np.array_equal(sm, np.diag(ops.s, 1))
        assert np.array_equal(ops.sp, sm.T)
        assert np.array_equal(ops.sx, sm + sm.T)
        assert np.array_equal(ops.sy, 1j * (sm - sm.T))


# every word collective_cov_rhs, collective_mean_rhs and spin_moments_from_state read
MOMENT_WORDS = ("x", "y", "z", "xx", "yy", "xy", "zz", "xz", "yz",
                "xxz", "yyz", "xyz", "yxz", "-z", "-+")


def _vector_state(n: int, label: str) -> QuantumState:
    """A state at a pole (theta = 0 or pi), or random complex amplitudes."""
    space = DickeSpace(n)
    if label in ("north", "south"):
        return spin_coherent_state(space, BlochAngles(0.0 if label == "north" else math.pi, 0.4))
    return random_pure(np.random.default_rng([n, int(label[-1])]), n + 1)


class TestBandedMoments:
    # the vector-state moments are read from S-'s superdiagonal and Sz's
    # diagonal; the dense matrices are the reference
    @pytest.mark.parametrize("label", ["north", "south", "random0", "random1"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_dense_products(self, n, label):
        state = _vector_state(n, label)
        ops = build_collective_ops(DickeSpace(n))
        got = _collective_moments(state, ops, MOMENT_WORDS)
        assert "_transverse" not in vars(ops)
        dense = {"-": ops.sm, "+": ops.sp, "x": ops.sx, "y": ops.sy, "z": ops.sz}
        for word, value in zip(MOMENT_WORDS, got):
            ref = product_expectation([dense[letter] for letter in word], state)
            # each factor has norm <= n + 1
            assert abs(value - ref) <= 1e-14 * (n + 1) ** len(word), word

    def test_unknown_word_is_refused(self):
        ops = build_collective_ops(DickeSpace(3))
        with pytest.raises(ValueError, match="word"):
            _collective_moments(random_pure(np.random.default_rng(0), 4), ops, ("zx+",))


class TestMatrixMoments:
    @pytest.mark.parametrize("n", [1, 6, 15])
    def test_stack_matches_its_members_read_one_by_one(self, n):
        rng = np.random.default_rng(n)
        ops = build_collective_ops(DickeSpace(n))
        members = [0.5 * random_pure(rng, n + 1).density() + 0.5 * np.eye(n + 1) / (n + 1)
                   for _ in range(5)]
        stack = _matrix_moments(np.stack(members), ops, MOMENT_WORDS)
        assert stack.shape == (len(MOMENT_WORDS), 5)
        dense = {"-": ops.sm, "+": ops.sp, "x": ops.sx, "y": ops.sy, "z": ops.sz}
        for k, rho in enumerate(members):
            state = QuantumState.from_matrix(rho)
            alone = _collective_moments(state, ops, MOMENT_WORDS)
            for word, got, value in zip(MOMENT_WORDS, stack[:, k], alone):
                ref = product_expectation([dense[letter] for letter in word], state)
                assert abs(got - value) <= 1e-14 * (n + 1) ** len(word), word
                assert abs(got - ref) <= 1e-14 * (n + 1) ** len(word), word


class TestSpinCoherentState:
    def test_north_pole_is_fully_excited(self):
        space = DickeSpace(5)
        state = spin_coherent_state(space, BlochAngles(0.0, 0.0))
        assert abs(state.data[5] - 1.0) < 1e-14
        ops = build_collective_ops(space)
        assert expectation(ops.sz, state).real == pytest.approx(5.0)

    def test_south_pole_is_ground(self):
        space = DickeSpace(5)
        state = spin_coherent_state(space, BlochAngles(math.pi, 1.2))
        assert abs(abs(state.data[0]) - 1.0) < 1e-14  # up to the e^{i n phi} phase
        ops = build_collective_ops(space)
        assert expectation(ops.sz, state).real == pytest.approx(-5.0)

    def test_reference_angles_n15(self):
        n, theta, phi = 15, 0.75 * math.pi, math.pi / 3
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(theta, phi))
        assert expectation(ops.sx, state).real == pytest.approx(
            n * math.sin(theta) * math.cos(phi), abs=1e-10 * n)
        assert expectation(ops.sz, state).real == pytest.approx(
            n * math.cos(theta), abs=1e-10 * n)

    @pytest.mark.parametrize("n", [1, 15, 150])
    @pytest.mark.parametrize("theta", [0.0, 0.75 * math.pi, math.pi])
    def test_stack_rows_are_each_state_alone_bit_for_bit(self, n, theta):
        # each row is normalized on its own, so the stack fig3b builds is the
        # states' densities to the bit
        space = DickeSpace(n)
        phis = [2 * math.pi * k / 12 for k in range(12)] + [-0.4, 7.0]
        amps = _coherent_amplitudes(space, theta, phis)
        states = [spin_coherent_state(space, BlochAngles(theta, phi)) for phi in phis]
        assert amps.shape == (len(phis), n + 1)
        assert np.array_equal(amps, [state.data for state in states])
        densities = _pure_densities(amps)
        alone = np.stack([state.density() for state in states])
        assert np.array_equal(densities.view(np.uint64), alone.view(np.uint64))
        assert np.array_equal(densities, densities.conj().swapaxes(-1, -2))

    def test_random_angle_expectations(self):
        rng = np.random.default_rng(42)
        n = 23
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        for _ in range(100):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2 * math.pi)
            state = spin_coherent_state(space, BlochAngles(theta, phi))
            assert abs(expectation(ops.sx, state).real
                       - n * math.sin(theta) * math.cos(phi)) < 1e-10 * n
            assert abs(expectation(ops.sy, state).real
                       - n * math.sin(theta) * math.sin(phi)) < 1e-10 * n
            assert abs(expectation(ops.sz, state).real
                       - n * math.cos(theta)) < 1e-10 * n

    def test_large_n_amplitudes_stay_normalized(self):
        space = DickeSpace(400)
        state = spin_coherent_state(space, BlochAngles(0.9 * math.pi, 0.1))
        assert abs(np.linalg.norm(state.data) - 1.0) < 1e-12


class TestExpectation:
    def test_equator_inversion_is_zero(self):
        space = DickeSpace(4)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(math.pi / 2, 0.0))
        assert abs(expectation(ops.sz, state)) < 1e-12

    def test_pole_state_has_no_coherence(self):
        space = DickeSpace(6)
        ops = build_collective_ops(space)
        assert abs(expectation(ops.sx, basis_state(7, 0))) < 1e-14

    @pytest.mark.parametrize("n,theta", [(4, 0.3), (9, 1.1), (16, 2.5)])
    def test_squared_inversion_binomial_moment(self, n, theta):
        # second moment of 2k - n with k ~ Binomial(n, cos^2(theta/2))
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(theta, 0.7))
        expected = n + n * (n - 1) * math.cos(theta) ** 2
        assert expectation(ops.sz @ ops.sz, state).real == pytest.approx(
            expected, rel=1e-10)

    def test_matrix_state(self):
        ops = build_collective_ops(DickeSpace(1))
        rho = QuantumState.from_matrix(np.diag([0.25, 0.75]).astype(complex))
        assert expectation(ops.sz, rho).real == pytest.approx(0.5)

    def test_shape_mismatch(self):
        ops = build_collective_ops(DickeSpace(3))
        with pytest.raises(ValueError):
            expectation(ops.sz, basis_state(2, 0))


class TestSymCovariance:
    def test_single_spin_pole_variance(self):
        space = DickeSpace(1)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(math.pi, 0.0))
        assert sym_covariance(ops.sx, ops.sx, state) == pytest.approx(1.0)

    def test_pole_cross_covariance_vanishes(self):
        for n in (1, 4, 9):
            space = DickeSpace(n)
            ops = build_collective_ops(space)
            state = spin_coherent_state(space, BlochAngles(math.pi, 0.0))
            assert abs(sym_covariance(ops.sx, ops.sy, state)) < 1e-12

    def test_coherent_transverse_variance_at_pole(self):
        space = DickeSpace(10)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(math.pi, 0.0))
        assert sym_covariance(ops.sx, ops.sx, state) == pytest.approx(10.0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_variance_nonnegative(self, n, seed):
        rng = np.random.default_rng(seed)
        dim = n + 1
        state = random_pure(rng, dim)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = h + h.conj().T
        assert sym_covariance(h, h, state) >= -1e-10

    @given(st.integers(min_value=1, max_value=20),
           st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_uncertainty_relation_on_coherent_states(self, n, theta, phi):
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(theta, phi))
        vx = sym_covariance(ops.sx, ops.sx, state)
        vy = sym_covariance(ops.sy, ops.sy, state)
        sz = expectation(ops.sz, state).real
        assert vx * vy >= sz ** 2 - 1e-8 * max(1.0, sz ** 2)


class TestThirdMoment:
    def test_single_spin_pole_value(self):
        # sx sx = 1, so the moment reduces to <sz> - <sx><...> = -1 at the pole
        ops = build_collective_ops(DickeSpace(1))
        state = basis_state(2, 0)
        assert third_moment(ops.sx, ops.sx, ops.sz, state) == pytest.approx(-1.0)

    def test_coherent_south_pole_value(self):
        # at the pole: <Sz> V_Sx = (-n)(n) = -n^2
        space = DickeSpace(5)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(math.pi, 0.0))
        assert third_moment(ops.sx, ops.sx, ops.sz, state) == pytest.approx(-25.0)

    def test_azimuthal_symmetry_at_pole(self):
        space = DickeSpace(7)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(math.pi, 0.0))
        assert abs(third_moment(ops.sy, ops.sx, ops.sz, state)) < 1e-12

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_symmetric_in_last_two_arguments(self, n, seed):
        rng = np.random.default_rng(seed)
        dim = n + 1
        state = random_pure(rng, dim)
        ops = build_collective_ops(DickeSpace(n))
        forward = third_moment(ops.sx, ops.sy, ops.sz, state)
        swapped = third_moment(ops.sx, ops.sz, ops.sy, state)
        assert forward == pytest.approx(swapped, abs=1e-10)


class TestHpaResidual:
    def test_large_ensemble_bound(self):
        assert hpa_residual(DickeSpace(10 ** 4), 3) < 2e-4

    def test_single_spin_exact(self):
        assert hpa_residual(DickeSpace(1), 1) == 0.0

    def test_first_level_always_exact(self):
        assert hpa_residual(DickeSpace(100), 1) == 0.0

    def test_decreases_with_n(self):
        residuals = [hpa_residual(DickeSpace(n), 4) for n in (10, 100, 1000)]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_rejects_excessive_kmax(self):
        with pytest.raises(ValueError):
            hpa_residual(DickeSpace(3), 4)


class TestQuantumState:
    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            QuantumState.from_vector(np.array([1.0, 1.0]))

    def test_rejects_nonhermitian_matrix(self):
        with pytest.raises(ValueError):
            QuantumState.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_matrix(self):
        with pytest.raises(ValueError):
            QuantumState.from_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_density_of_vector(self):
        state = basis_state(3, 1)
        rho = state.density()
        assert rho[1, 1] == pytest.approx(1.0)
        assert np.trace(rho).real == pytest.approx(1.0)

    def test_density_of_coherent_vector_is_exactly_hermitian(self):
        for n in range(1, 65):
            state = spin_coherent_state(DickeSpace(n), BlochAngles(0.7 * math.pi, 0.9))
            rho = state.density()
            assert np.array_equal(rho, rho.conj().T), n
            assert np.max(np.abs(rho - np.outer(state.data, state.data.conj()))) < 1e-15
