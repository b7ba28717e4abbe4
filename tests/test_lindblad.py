import logging
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from squeezelax import lindblad, spin_algebra
from squeezelax.figures import _azimuth_orbits
from squeezelax.lindblad import (CutoffError, DegenerateSteadyStateError,
                                 Liouvillian, annihilation_operator,
                                 evolve, oscillator_liouvillian,
                                 oscillator_oracle, spin_liouvillian,
                                 steady_state)
from squeezelax.ode import _BLOCK, IntegratorConfig, integrate
from squeezelax.moments import (SqueezingParams, SpinMoments, collective_cov_rhs,
                                collective_mean_rhs, gardiner_rhs)
from squeezelax.spin_algebra import (BlochAngles, DickeSpace, QuantumState,
                                     build_collective_ops, spin_coherent_state)
from squeezelax.verification import dark_state, fit_decay_rate, random_pure


# vacuum, a mixed (non-minimal) bath and the minimum-uncertainty bath
BATHS = {
    "vacuum": SqueezingParams(0.0, 0.0, gamma_p=1.4),
    "mixed": SqueezingParams(1.0, 0.3, gamma_p=1.4),
    "minimal": SqueezingParams.minimal(0.5, gamma_p=1.4),
}


def dissipator(u: np.ndarray, v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D[u, v] rho = v rho u - (1/2)(u v rho + rho u v): one channel of ``_four_channel``."""
    if u.shape != v.shape or u.shape != rho.shape:
        raise ValueError("dissipator operands must share one square shape")
    uv = u @ v
    return v @ rho @ u - 0.5 * (uv @ rho + rho @ uv)


def _four_channel(liouv: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """The generator as its four dissipators, independent of Liouvillian.apply."""
    p, d = liouv.params, np.diag(liouv.s, 1).astype(complex)
    dag = d.conj().T
    return p.gamma_p * ((p.nbar + 1.0) * dissipator(dag, d, rho)
                        + p.nbar * dissipator(d, dag, rho)
                        - p.m_corr * dissipator(dag, dag, rho)
                        - p.m_corr * dissipator(d, d, rho))


def _generator(kind: str, size, params: SqueezingParams) -> Liouvillian:
    """n spins, an oscillator at cutoff size, or the superdiagonal the digits of size spell."""
    if kind == "spins":
        return spin_liouvillian(build_collective_ops(DickeSpace(size)), params)
    if kind == "oscillator":
        return oscillator_liouvillian(size, params)
    return Liouvillian([float(digit) for digit in size], params)


def _even_coherences(dim: int) -> np.ndarray:
    """A pure state of levels 1, 3 and 7: every coherence i - j is even, so it fills one sector."""
    psi = np.zeros(dim, dtype=complex)
    psi[[1, 3, 7]] = 0.6, 0.48j, 0.64
    return np.outer(psi, psi.conj())


class TestDissipator:
    def test_zero_operators(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        zero = np.zeros((2, 2), dtype=complex)
        assert np.all(dissipator(zero, zero, rho) == 0)

    def test_decay_channel_direction(self):
        sm = np.array([[0, 1], [0, 0]], dtype=complex)
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = dissipator(sm.conj().T, sm, excited)
        assert np.allclose(out, np.diag([1.0, -1.0]))

    def test_traceless(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert abs(np.trace(dissipator(u, v, rho))) < 1e-12 * np.max(np.abs(rho))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            dissipator(np.eye(2, dtype=complex), np.eye(3, dtype=complex),
                       np.eye(2, dtype=complex))


class TestLiouvillianApply:
    def test_single_spin_reproduces_gardiner(self):
        rng = np.random.default_rng(5)
        ops = build_collective_ops(DickeSpace(1))
        p = SqueezingParams.minimal(0.7, gamma_p=1.4)
        liouv = spin_liouvillian(ops, p)
        for _ in range(20):
            v = rng.normal(size=3)
            v = 0.9 * v / max(1.0, np.linalg.norm(v))
            rho = 0.5 * (np.eye(2, dtype=complex)
                         + v[0] * ops.sx + v[1] * ops.sy + v[2] * ops.sz)
            ldot = liouv.apply(rho)
            ref = gardiner_rhs(SpinMoments(*v), p)
            assert np.trace(ops.sx @ ldot).real == pytest.approx(ref.mean_x, abs=1e-12)
            assert np.trace(ops.sy @ ldot).real == pytest.approx(ref.mean_y, abs=1e-12)
            assert np.trace(ops.sz @ ldot).real == pytest.approx(ref.mean_z, abs=1e-12)

    def test_vacuum_dark_state(self):
        ops = build_collective_ops(DickeSpace(4))
        liouv = spin_liouvillian(ops, SqueezingParams(0.0, 0.0))
        rho = np.zeros((5, 5), dtype=complex)
        rho[0, 0] = 1.0
        assert np.max(np.abs(liouv.apply(rho))) < 1e-14

    def test_hermitian_traceless_output(self):
        rng = np.random.default_rng(9)
        ops = build_collective_ops(DickeSpace(6))
        liouv = spin_liouvillian(ops, SqueezingParams.minimal(1.2))
        rho = random_pure(rng, 7).density()
        out = liouv.apply(rho)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12 * np.max(np.abs(out))
        assert abs(np.trace(out)) < 1e-12 * 7

    @pytest.mark.parametrize("n", range(1, 11))
    def test_mean_and_cov_rhs_equivalence(self, n):
        rng = np.random.default_rng(100 + n)
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        p = SqueezingParams.minimal(0.4)
        liouv = spin_liouvillian(ops, p)
        for _ in range(20):
            state = random_pure(rng, space.dim)
            rho = state.density()
            ldot = liouv.apply(rho)
            dx, dy, dz = collective_mean_rhs(state, ops, p)
            assert np.trace(ops.sx @ ldot).real == pytest.approx(dx, abs=1e-10)
            assert np.trace(ops.sy @ ldot).real == pytest.approx(dy, abs=1e-10)
            assert np.trace(ops.sz @ ldot).real == pytest.approx(dz, abs=1e-10)

            means = {op: np.trace(m @ rho).real for op, m in
                     (("x", ops.sx), ("y", ops.sy))}
            dmeans = {op: np.trace(m @ ldot).real for op, m in
                      (("x", ops.sx), ("y", ops.sy))}
            sxy = 0.5 * (ops.sx @ ops.sy + ops.sy @ ops.sx)
            oracle = (
                np.trace(ops.sx @ ops.sx @ ldot).real - 2 * means["x"] * dmeans["x"],
                np.trace(ops.sy @ ops.sy @ ldot).real - 2 * means["y"] * dmeans["y"],
                np.trace(sxy @ ldot).real
                - means["x"] * dmeans["y"] - means["y"] * dmeans["x"],
            )
            got = collective_cov_rhs(state, ops, p)
            for a, b in zip(oracle, got):
                assert a == pytest.approx(b, abs=1e-9)

    @pytest.mark.parametrize("kind, size", [
        ("spins", 1), ("spins", 2), ("spins", 6), ("spins", 150),
        ("oscillator", 2), ("oscillator", 3), ("oscillator", 20), ("oscillator", 59)])
    @pytest.mark.parametrize("bath", BATHS)
    def test_normal_form_matches_four_channel_form(self, kind, size, bath):
        # at dim 2 and 3 the (+-2, 0) and (0, +-2) shifts vanish wholly or partly
        p = BATHS[bath]
        if kind == "oscillator":
            liouv = oscillator_liouvillian(size, p)
        else:
            liouv = spin_liouvillian(build_collective_ops(DickeSpace(size)), p)
        rho = random_pure(np.random.default_rng(31), liouv.dim).density()
        ref = _four_channel(liouv, rho)
        assert np.max(np.abs(liouv.apply(rho) - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["spins", "oscillator", "stack"])
    def test_apply_returns_a_new_array_and_keeps_its_input(self, kind):
        p = BATHS["mixed"]
        rng = np.random.default_rng(33)
        if kind == "spins":
            liouv = spin_liouvillian(build_collective_ops(DickeSpace(5)), p)
        else:
            liouv = oscillator_liouvillian(6, p)
        if kind == "stack":
            rho = np.stack([random_pure(rng, 6).density() for _ in range(3)])
        else:
            rho = random_pure(rng, 6).density()
        before = rho.copy()
        first, second = liouv.apply(rho), liouv.apply(rho)
        assert np.array_equal(rho, before)
        assert np.array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, rho)

    @pytest.mark.parametrize("kind, size", [("spins", 7), ("oscillator", 30)])
    @pytest.mark.parametrize("bath", BATHS)
    def test_stencil_keeps_hermiticity_exactly(self, kind, size, bath):
        if kind == "oscillator":
            liouv = oscillator_liouvillian(size, BATHS[bath])
        else:
            liouv = spin_liouvillian(build_collective_ops(DickeSpace(size)), BATHS[bath])
        rng = np.random.default_rng(34)
        g = rng.normal(size=(liouv.dim, liouv.dim)) + 1j * rng.normal(size=(liouv.dim, liouv.dim))
        out = liouv.apply(g + g.conj().T)
        assert np.array_equal(out, out.conj().T)

    @pytest.mark.parametrize("kind, size", [("spins", 1), ("spins", 5), ("spins", 15),
                                            ("oscillator", 59)])
    def test_batch_equals_each_member_alone(self, kind, size):
        p = BATHS["mixed"]
        if kind == "spins":
            liouv = spin_liouvillian(build_collective_ops(DickeSpace(size)), p)
        else:
            liouv = oscillator_liouvillian(size, p)
        rng = np.random.default_rng(35)
        stack = np.stack([random_pure(rng, liouv.dim).density() for _ in range(5)])
        out = liouv.apply(stack)
        assert out.shape == stack.shape
        for member, got in zip(stack, out):
            assert np.array_equal(got, liouv.apply(member))
        with pytest.raises(ValueError):
            liouv.apply(stack[:, :, :-1])

    @pytest.mark.parametrize("kind, size", [("spins", 6), ("oscillator", 30)])
    @pytest.mark.parametrize("members", [None, 3])
    def test_complex_rho_is_applied_as_its_real_and_imaginary_planes(self, kind, size, members):
        liouv = _generator(kind, size, BATHS["mixed"])
        rng = np.random.default_rng(37)
        shape = (liouv.dim,) * 2 if members is None else (members,) + (liouv.dim,) * 2
        rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = liouv.apply(rho)
        real, imag = liouv.apply(rho.real), liouv.apply(rho.imag)
        assert out.dtype == complex and real.dtype == imag.dtype == np.float64
        assert np.array_equal(out.real, real) and np.array_equal(out.imag, imag)

    def test_apply_keeps_no_state_between_shapes(self):
        ops, p = build_collective_ops(DickeSpace(6)), BATHS["mixed"]
        liouv = spin_liouvillian(ops, p)
        rng = np.random.default_rng(36)
        stack = np.stack([random_pure(rng, 7).density() for _ in range(4)])
        for rho in (stack, stack[0], stack[:2], stack[1], stack):
            assert np.array_equal(liouv.apply(rho), spin_liouvillian(ops, p).apply(rho))

    def test_dense_operators_built_only_when_read(self):
        liouv = spin_liouvillian(build_collective_ops(DickeSpace(3)), BATHS["mixed"])
        assert "_normal_form" not in vars(liouv) and "_coefficients" not in vars(liouv)
        evolve(liouv, np.eye(4, dtype=complex) / 4, 0.1)
        assert "_normal_form" not in vars(liouv) and "_coefficients" in vars(liouv)
        steady_state(liouv)
        assert "_normal_form" not in vars(liouv)
        liouv.superoperator()
        assert "_normal_form" in vars(liouv)

    def test_spin_generator_never_reads_the_dense_transverse_operators(self):
        # the generator is built from ops.s, so S-, S+, Sx and Sy (64 dim^2 bytes) stay unbuilt
        ops = build_collective_ops(DickeSpace(3))
        liouv = spin_liouvillian(ops, BATHS["mixed"])
        evolve(liouv, np.eye(4, dtype=complex) / 4, 0.1)
        steady_state(liouv)
        liouv.superoperator()
        assert "_transverse" not in vars(ops)

    @pytest.mark.parametrize("kind, size", [("spins", 6), ("oscillator", 12)])
    def test_apply_multiplies_by_the_one_copy_of_the_coefficients(self, kind, size, monkeypatch):
        liouv = _generator(kind, size, BATHS["mixed"])
        dim = liouv.dim
        steady_state(liouv)
        coefs = list(liouv._coefficients.values())
        assert len(coefs) == 9
        for coef in coefs:  # one aligned float64 value per entry of rho
            assert coef.shape == (dim * dim,) and coef.dtype == np.float64
            assert coef.ctypes.data % 64 == 0
        factors, multiply = [], np.multiply

        def spy(*args, **kwargs):
            factors.append(args[0])
            return multiply(*args, **kwargs)

        rho = random_pure(np.random.default_rng(38), dim).density()
        monkeypatch.setattr(np, "multiply", spy)
        liouv.apply(rho)
        monkeypatch.undo()
        assert len(factors) >= 3
        for factor in factors:
            assert any(np.shares_memory(factor, coef) for coef in coefs)

    @pytest.mark.parametrize("kind, size", [("spins", 1), ("spins", 6), ("oscillator", 12)])
    @pytest.mark.parametrize("bath", BATHS)
    def test_coefficients_hold_no_negative_zero(self, kind, size, bath):
        liouv = _generator(kind, size, BATHS[bath])
        for coef in liouv._coefficients.values():
            assert not np.any(np.signbit(coef[coef == 0.0]))

    @pytest.mark.parametrize("bath", BATHS)
    def test_superoperator_matches_direct_application(self, bath):
        rng = np.random.default_rng(17)
        ops = build_collective_ops(DickeSpace(4))
        liouv = spin_liouvillian(ops, BATHS[bath])
        rho = random_pure(rng, 5).density()
        via_super = (liouv.superoperator() @ rho.ravel()).reshape(5, 5)
        assert np.max(np.abs(via_super - liouv.apply(rho))) < 1e-12

    @pytest.mark.parametrize("kind, size", [("spins", 1), ("spins", 6), ("oscillator", 3),
                                            ("oscillator", 12), ("spins", 40),
                                            ("oscillator", 59), ("superdiagonal", "101"),
                                            ("superdiagonal", "11011")])
    @pytest.mark.parametrize("bath", BATHS)
    def test_sector_blocks_match_the_superoperator(self, kind, size, bath):
        # at dim 3 the (+-2, 0) and (0, +-2) shifts vanish in part, and a zero
        # on the superdiagonal makes coefficients vanish inside rho
        liouv = _generator(kind, size, BATHS[bath])
        dim = liouv.dim
        sup = liouv.superoperator()
        assert liouv.norm_bound() == pytest.approx(np.max(np.sum(np.abs(sup), axis=1)), rel=1e-12)
        tol = 1e-15 * np.max(np.abs(sup))
        # the row of rho[0, 0] becomes Tr rho = 1, as the solver reads it
        sup[0] = 0.0
        sup[0, ::dim + 1] = 1.0
        coefs = liouv._coefficients
        position = np.arange(dim * dim)
        for parity in (0, 1):
            orders = lindblad._orders(dim, parity)
            for k in orders:
                rows = position[lindblad._order_slice(dim, k)]
                for k_next in {k - 2, k, k + 2} & set(orders):
                    cols = position[lindblad._order_slice(dim, k_next)]
                    block = lindblad._block(coefs, dim, k, k_next)
                    assert np.max(np.abs(sup[np.ix_(rows, cols)] - block)) <= tol
                    sup[np.ix_(rows, cols)] = 0.0
        # nothing links the two parities, or two levels more than 2 apart in order
        assert np.max(np.abs(sup)) <= tol

    @pytest.mark.parametrize("s", ["dense_sm", "real_matrix", "row", "complex",
                                   "complex_zero_imag", "complex_list", "scalar"])
    def test_refuses_an_s_that_is_not_a_real_vector(self, s):
        ops = build_collective_ops(DickeSpace(3))
        s = {
            "dense_sm": ops.sm,  # the matrix passed where its superdiagonal belongs
            "real_matrix": np.diag(ops.s, 1),
            "row": ops.s[None],
            "complex": ops.s * np.exp(0.3j),
            "complex_zero_imag": ops.s.astype(complex),
            "complex_list": [1.0, 2.0j],
            "scalar": np.float64(1.0),
        }[s]
        with pytest.raises(ValueError, match="superdiagonal"):
            Liouvillian(s, BATHS["mixed"])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_refuses_a_non_finite_s(self, value):
        # a NaN would otherwise reach steady_state as a false degeneracy
        with pytest.raises(ValueError, match="finite"):
            Liouvillian([1.0, value], BATHS["mixed"])

    @pytest.mark.parametrize("cutoff", [0, 1])
    def test_refuses_a_fock_cutoff_below_two(self, cutoff):
        with pytest.raises(ValueError, match="Fock cutoff"):
            annihilation_operator(cutoff)
        with pytest.raises(ValueError, match="Fock cutoff"):
            oscillator_liouvillian(cutoff, BATHS["mixed"])

    @pytest.mark.parametrize("cutoff", [2, 59])
    def test_oscillator_generator_reads_the_ladder_of_a(self, cutoff):
        a = annihilation_operator(cutoff)
        liouv = oscillator_liouvillian(cutoff, BATHS["mixed"])
        assert liouv.dim == cutoff and a.dtype == complex
        assert np.array_equal(liouv.s, np.sqrt(np.arange(1, cutoff)))
        assert np.array_equal(a, np.diag(liouv.s, 1))

    def test_reassigning_a_field_raises(self):
        liouv = oscillator_liouvillian(4, BATHS["mixed"])
        rho = random_pure(np.random.default_rng(38), 4).density()
        before = liouv.apply(rho)
        with pytest.raises(AttributeError):
            liouv.s = np.ones(3)
        with pytest.raises(AttributeError):
            liouv.params = BATHS["vacuum"]
        assert np.array_equal(liouv.s, np.sqrt([1.0, 2.0, 3.0]))
        assert liouv.params is BATHS["mixed"]
        assert np.array_equal(liouv.apply(rho), before)

    def test_generators_compare_by_identity(self):
        a = oscillator_liouvillian(4, BATHS["mixed"])
        b = oscillator_liouvillian(4, BATHS["mixed"])
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_superdiagonal_is_a_read_only_float_copy(self):
        liouv = oscillator_liouvillian(4, BATHS["mixed"])
        with pytest.raises(ValueError, match="read-only"):
            liouv.s[0] = 5.0
        assert not liouv.s.flags.writeable and liouv.s.dtype == np.float64
        assert liouv.dim == 4 and np.array_equal(liouv.s, np.sqrt([1.0, 2.0, 3.0]))
        assert Liouvillian([1, 2], BATHS["mixed"]).s.dtype == np.float64

    def test_s_does_not_alias_the_callers_array(self):
        ops = build_collective_ops(DickeSpace(3))
        liouv = spin_liouvillian(ops, BATHS["mixed"])
        rho = random_pure(np.random.default_rng(39), 4).density()
        before, s = liouv.apply(rho), ops.s.copy()
        assert not np.shares_memory(liouv.s, ops.s)
        ops.s[0] = 5.0
        assert np.array_equal(liouv.s, s)
        assert np.array_equal(liouv.apply(rho), before)

    def test_memory_guard_refuses_before_allocating(self):
        # the steady-state estimate for a superdiagonal op is at least 4 dim^3 bytes
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        dim = max(401, int((phys / 4) ** (1 / 3)) + 2)
        liouv = oscillator_liouvillian(dim, SqueezingParams(0.5, 0.0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                liouv.superoperator()
            with pytest.raises(ValueError, match="physical memory"):
                steady_state(liouv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing of O(dim^2) is built before either guard
        assert peak < 64 * dim ** 2

    def test_superoperator_guard_counts_its_peak(self, monkeypatch):
        liouv = oscillator_liouvillian(16, BATHS["mixed"])
        liouv.superoperator()  # builds the dense normal form, which is kept
        guarded = []
        check = lindblad._check_memory
        monkeypatch.setattr(lindblad, "_check_memory",
                            lambda nbytes, what: (guarded.append(nbytes), check(nbytes, what)))
        tracemalloc.start()
        try:
            sup = liouv.superoperator()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three dim^2 x dim^2 arrays; the rest of the peak, under 1 %, is
        # the dim x dim identity and the views of the block loop
        assert guarded == [3 * sup.nbytes]
        assert guarded[0] <= peak <= 1.01 * guarded[0]


def test_sector_layout_packs_each_sector_without_collisions():
    rng = np.random.default_rng(3)
    for dim in range(1, 65):
        width, length, sectors = lindblad._sector_layout(dim)
        assert width % 2 == 0 and 2 * width >= dim and length == width * (dim - 1) + dim
        rho = rng.normal(size=dim * dim)
        planes, back = np.zeros((2, length)), np.full(dim * dim, np.nan)
        for s, (index, position) in enumerate(sectors):
            i, j = np.divmod(index, dim)
            assert np.all((i - j) % 2 == s) and np.array_equal(position, width * i + j)
            assert len(np.unique(position)) == len(position)  # no two entries collide
            assert 0 <= position.min(initial=0) and position.max(initial=0) < length
            planes[s, position] = rho[index]
        for s, (index, position) in enumerate(sectors):
            back[index] = planes[s, position]
        assert np.array_equal(back, rho)  # every entry is in one sector, and comes back
    assert lindblad._sector_layout(59)[:2] == (30, 1799)


def test_packed_box_holds_the_nine_shifts_as_a_3x3_box():
    # shift (di, dj) is the cell (u, v) = ((di + dj) / 2, (di - dj) / 2) of the 3 x 3 box,
    # and on rows of width W its offset W di + dj is u (W + 1) + v (W - 1)
    cells = [((di + dj) // 2, (di - dj) // 2) for di, dj in lindblad._SHIFTS]
    assert sorted(cells) == [(u, v) for u in (-1, 0, 1) for v in (-1, 0, 1)]
    for dim in range(1, 41):
        width = lindblad._sector_layout(dim)[0]
        for (di, dj), (u, v) in zip(lindblad._SHIFTS, cells):
            assert (di + dj) % 2 == 0
            assert width * di + dj == u * (width + 1) + v * (width - 1)
    generators = [_generator("oscillator", dim, BATHS["mixed"]) for dim in range(2, 41)]
    generators += [_generator(kind, size, BATHS[bath]) for bath in BATHS
                   for kind, size in (("spins", 1), ("spins", 15), ("superdiagonal", "101"))]
    for liouv in generators:
        width, length, sectors, box = liouv._packed
        assert box.shape == (3, 3, 2 * length) and box.dtype == np.float64
        assert box.ctypes.data % 64 == 0
        scale = 4.0 / liouv.norm_bound()
        expected = np.zeros((3, 3, 2 * length))
        for ((di, dj), coef), (u, v) in zip(liouv._coefficients.items(), cells):
            scaled = coef * scale + (2.0 if (di, dj) == (0, 0) else 0.0)
            for s, (index, position) in enumerate(sectors):
                expected[u + 1, v + 1, s * length + position] = scaled[index]
        assert np.array_equal(box, expected)  # the holes of either plane hold zeros
        assert not np.any(np.signbit(box[box == 0.0]))


def _unpacked_term(liouv: Liouvillian, live: list, members: int):
    """Reference for evolve's kernel, on the unpacked members: each row's live sectors are read
    into a dim x dim X, mapped to (4/a) apply(X) + 2 X - T_{k-1}, and packed back into a row
    of zeros. Returns term(cur, prev) -> the new term, borders zero, and pack(x) -> the rows
    of (members, dim, dim) real matrices."""
    dim = liouv.dim
    width, length, sectors = lindblad._sector_layout(dim)
    pad = 2 * width
    row = 2 * pad + len(live) * length
    slots = [(pad + slot * length + sectors[s][1], sectors[s][0]) for slot, s in enumerate(live)]

    def unpack(rows):
        x = np.zeros((members, dim * dim))
        for position, index in slots:
            x[:, index] = rows.reshape(members, -1)[:, position]
        return x.reshape(members, dim, dim)

    def pack(x):
        out = np.zeros((members, row))
        for position, index in slots:
            out[:, position] = x.reshape(members, -1)[:, index]
        return out

    def term(cur, prev):
        x = unpack(cur)
        new = (4.0 / liouv.norm_bound()) * liouv.apply(x) + 2.0 * x - unpack(prev)
        return pack(new).reshape(cur.shape)

    return term, pack


class _Handed(Exception):
    """Raised by a spy on ``propagate`` with the kernel and packed start ``evolve`` handed it."""


@pytest.mark.parametrize("case", ["oscillator-59-vacuum", "spins-15-batch"])
def test_box_term_matches_the_stencil_apply(case, monkeypatch):
    if case.startswith("oscillator"):
        liouv = oscillator_liouvillian(59, SqueezingParams(1.0, math.sqrt(2.0)))
        rho0 = np.zeros((59, 59), dtype=complex)
        rho0[0, 0] = 1.0
        live, members = [0], 1
    else:
        space = DickeSpace(15)
        liouv = spin_liouvillian(build_collective_ops(space), BATHS["minimal"])
        rho0 = np.stack([spin_coherent_state(space, BlochAngles(0.75 * math.pi, phi)).density()
                         for phi in (0.0, 0.5, 1.0, 1.5)])
        live, members = [0, 1], 4

    def spy(kernel, bound, y0, *rest):
        raise _Handed(kernel, y0)

    monkeypatch.setattr(lindblad, "propagate", spy)
    with pytest.raises(_Handed) as handed:
        evolve(liouv, rho0, 0.1)
    kernel, y0 = handed.value.args
    reference, pack = _unpacked_term(liouv, live, members)
    width, length = lindblad._sector_layout(liouv.dim)[:2]
    pad, interior = 2 * width, len(live) * length
    rng = np.random.default_rng(41)
    # a ring as propagate holds it: row 0 zero, as at a window's start, and the
    # others random on every entry of the live sectors
    ring = np.zeros((_BLOCK + 2,) + y0.shape)
    for r in range(1, len(ring)):
        ring[r] = pack(rng.normal(size=(members, liouv.dim, liouv.dim))).reshape(y0.shape)
    start = ring[1].copy()
    step = kernel(ring)
    for i in range(2, len(ring)):
        before = ring.copy()
        step(i)
        # step(i) writes row i alone, from rows i - 1 and i - 2, and only its interiors
        others = np.arange(len(ring)) != i
        assert np.array_equal(ring[others], before[others])
        expected = reference(before[i - 1], before[i - 2])
        assert np.max(np.abs(ring[i] - expected)) <= 1e-15 * np.max(np.abs(expected))
        rows = ring[i].reshape(members, -1)
        borders = np.concatenate([rows[:, :pad], rows[:, -pad:]])
        assert np.all(borders == 0.0) and not np.any(np.signbit(borders))
    # the first term, the pass from rows 0 and 1 holding 0 and y, halved, is
    # (4/a) L y + 2 y halved bit for bit: less the zero row, the one einsum of
    # the box with the strided window of y, sign bits included
    box = liouv._packed[3]
    box = box[..., live[0] * length:live[0] * length + interior] if len(live) == 1 else box
    batch = y0.shape[:-1]
    window = np.lib.stride_tricks.as_strided(
        start, (3, 3) + batch + (interior,),
        (8 * (width + 1), 8 * (width - 1)) + (8 * y0.shape[-1],) * len(batch) + (8,))
    single = 0.5 * np.einsum("uv...,uv...->...", box, window)
    first = np.zeros_like(ring)
    first[1] = start
    kernel(first)(2)
    first[2] *= 0.5
    got = first[2][..., pad:pad + interior]
    assert np.array_equal(got, single) and np.array_equal(np.signbit(got), np.signbit(single))


class TestEvolve:
    def test_single_spin_exponential_rate(self):
        p = SqueezingParams.minimal(0.5)
        ops = build_collective_ops(DickeSpace(1))
        liouv = spin_liouvillian(ops, p)
        rho0 = 0.5 * (np.eye(2, dtype=complex) + 0.8 * ops.sx + 0.5 * ops.sz)
        traj = evolve(liouv, rho0, np.linspace(0.0, 3.0, 341), rtol=1e-12, atol=1e-16)
        rate = fit_decay_rate(traj.times, traj.expectations(ops.sx))
        assert rate == pytest.approx(p.gamma_p * (0.5 + p.m_corr + 0.5), rel=1e-6)

    def test_collective_vacuum_decay_endpoint(self):
        space = DickeSpace(5)
        ops = build_collective_ops(space)
        liouv = spin_liouvillian(ops, SqueezingParams(0.0, 0.0))
        state = spin_coherent_state(space, BlochAngles(0.4 * math.pi, 0.2))
        traj = evolve(liouv, state, 40.0)
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.max(np.abs(traj.final_state - expected)) < 1e-6

    def test_final_state_does_not_pin_the_trajectory(self):
        ops = build_collective_ops(DickeSpace(2))
        liouv = spin_liouvillian(ops, SqueezingParams.minimal(0.5))
        traj = evolve(liouv, np.eye(3, dtype=complex) / 3, 0.5)
        final = traj.final_state
        assert np.array_equal(final, traj.states[-1])
        assert not np.shares_memory(final, traj.states)

    def test_rejects_bad_inputs(self):
        ops = build_collective_ops(DickeSpace(2))
        liouv = spin_liouvillian(ops, SqueezingParams(0.0, 0.0))
        with pytest.raises(ValueError):
            evolve(liouv, np.eye(2, dtype=complex) / 2, 1.0)  # wrong dimension
        for times in (-1.0, 0.0, math.nan, math.inf, (0.0, 1.0, 0.5), (0.0, 0.5, 0.5),
                      (0.0, math.inf), (1.0,)):  # not increasing or not finite
            with pytest.raises(ValueError):
                evolve(liouv, np.eye(3, dtype=complex) / 3, times)
        stack = np.stack([np.eye(3, dtype=complex) / 3] * 2)
        for rho0 in (stack[None], stack[:, :, :-1], stack[:0]):  # bad stacks
            with pytest.raises(ValueError):
                evolve(liouv, rho0, 1.0)
        # a zero op has the bound 0, which no Chebyshev window can be scaled by
        zero = Liouvillian(np.zeros(2), SqueezingParams(0.5, 0.0))
        with pytest.raises(ValueError, match="bound must be positive"):
            evolve(zero, np.eye(3, dtype=complex) / 3, 1.0)

    @pytest.fixture(scope="class")
    def phi_batch(self):
        space = DickeSpace(6)
        liouv = spin_liouvillian(build_collective_ops(space), SqueezingParams.minimal(2.0))
        states = [spin_coherent_state(space, BlochAngles(0.7 * math.pi, phi))
                  for phi in (0.0, 1.1, 2.5, 4.0)]
        return liouv, np.stack([s.density() for s in states])

    def test_batch_matches_each_member_alone(self, phi_batch):
        # a real member (phi = 0) shares the batch's run with three complex ones
        liouv, stack = phi_batch
        assert not np.any(stack[0].imag) and np.all(np.any(stack[1:].imag, axis=(1, 2)))
        batch = evolve(liouv, stack, np.linspace(0.0, 0.3, 31))
        assert batch.states.shape == (31,) + stack.shape
        assert not np.any(batch.states[:, 0].imag)
        ops = build_collective_ops(DickeSpace(6))
        for b, rho0 in enumerate(stack):
            alone = evolve(liouv, rho0, 0.3)
            final = batch.final_state[b]
            assert np.max(np.abs(final - alone.final_state)) <= 1e-9 * np.max(np.abs(final))
            assert batch.expectations(ops.sx)[-1, b] == pytest.approx(
                alone.expectations(ops.sx)[-1], rel=1e-9)
            assert batch.sym_covariances(ops.sx, ops.sy)[-1, b] == pytest.approx(
                alone.sym_covariances(ops.sx, ops.sy)[-1], rel=1e-9, abs=1e-12)
        assert batch.diagnostics["max_hermiticity_residual"] < 1e-12

    def test_real_member_of_a_mixed_batch_reads_back_real(self, phi_batch):
        # one real member (phi = 0) and two complex ones: the real one's Im rho is +0.0 in
        # every record, every member is exactly Hermitian, and each equals its run alone
        liouv, stack = phi_batch
        mixed = stack[:3]
        assert not np.any(mixed[0].imag) and np.all(np.any(mixed[1:].imag, axis=(1, 2)))
        times = np.linspace(0.0, 0.3, 7)
        batch = evolve(liouv, mixed, times)
        real = batch.states[:, 0].imag
        assert np.all(real == 0.0) and not np.any(np.signbit(real))
        assert np.any(batch.states[-1, 1:].imag)
        assert np.array_equal(batch.states, batch.states.conj().swapaxes(-1, -2))
        for b, rho0 in enumerate(mixed):
            alone = evolve(liouv, rho0, times)
            assert alone.diagnostics["rhs_evals"] == batch.diagnostics["rhs_evals"]
            # the same arithmetic, up to the order of the window's blocked sums
            assert np.max(np.abs(alone.states - batch.states[:, b])) <= 2 * np.finfo(float).eps

    def test_never_runs_apply(self, phi_batch, monkeypatch):
        def refuse(*args):
            raise AssertionError("evolve called apply")

        liouv, stack = phi_batch
        monkeypatch.setattr(Liouvillian, "apply", refuse)
        for start in (stack, stack[0], stack[1]):
            assert evolve(liouv, start, 0.1).diagnostics["rhs_evals"] > 0
        with pytest.raises(AssertionError, match="apply"):
            liouv.apply(stack[0])

    def test_batch_witness_reads_every_member(self, phi_batch):
        # a Hermitian perturbation of member 2 alone: its trace is 1 + 1e-6, which
        # the generator keeps, so only a witness that reads member 2 sees it
        liouv, stack = phi_batch
        bad = stack.copy()
        bad[2, 0, 0] += 1e-6
        diag = evolve(liouv, bad, 0.3).diagnostics
        assert diag["max_trace_drift"] == pytest.approx(1e-6, rel=1e-4)
        assert evolve(liouv, stack, 0.3).diagnostics["max_trace_drift"] < 1e-9
        grid = np.linspace(0.0, 0.3, 151)
        assert evolve(liouv, stack[2], grid).diagnostics["max_hermiticity_residual"] == 0.0

    def test_refuses_a_non_hermitian_member_before_allocating(self):
        # X = Re rho + Im rho holds only the Hermitian part of rho, so a start with
        # an anti-Hermitian part past the rule of QuantumState.from_matrix is refused
        space = DickeSpace(47)
        liouv = spin_liouvillian(build_collective_ops(space), SqueezingParams.minimal(0.5))
        bad = np.stack([spin_coherent_state(space, BlochAngles(0.7 * math.pi, 0.4 * b)).density()
                        for b in range(8)])
        bad[5, 3, 4] += 2e-12
        with pytest.raises(ValueError, match="density matrix is not Hermitian"):
            QuantumState.from_matrix(bad[5])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="initial state 5 is not Hermitian"):
                evolve(liouv, bad, np.linspace(0.0, 0.01, 101))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bad.nbytes  # no record, row or temporary the size of the start
        assert "_coefficients" not in vars(liouv)  # refused before the stencil is built
        with pytest.raises(ValueError, match="initial state is not Hermitian"):
            evolve(liouv, bad[5], 0.01)
        bad[5, 3, 4] -= 1.5e-12  # within the rule: propagated, and read back Hermitian
        assert evolve(liouv, bad, 0.01).diagnostics["max_hermiticity_residual"] == 0.0

    def test_logs_one_debug_line(self, phi_batch, caplog):
        liouv, stack = phi_batch
        with caplog.at_level(logging.DEBUG, logger="squeezelax.lindblad"):
            diag = evolve(liouv, stack, 0.1).diagnostics
        (record,) = caplog.records
        message = record.getMessage()
        assert record.levelno == logging.DEBUG
        assert "batch=4 dim=7 sectors=2 " in message and "planes" not in message and diag["sectors"] == 2
        assert f"rhs_evals={diag['rhs_evals']}" in message
        assert 0 < diag["dt_min"] <= diag["dt_max"] <= 0.1
        assert 1 <= diag["degree_min"] <= diag["degree_max"] <= 64
        assert diag["bound"] == liouv.norm_bound()
        for text in (f"bound={diag['bound']:.6g}", f"windows={diag['accepted']}",
                     f"refused={diag['rejected']}",
                     f"degree=[{diag['degree_min']}, {diag['degree_max']}]",
                     f"window=[{diag['dt_min']:.3e}, {diag['dt_max']:.3e}]"):
            assert text in message
        # two records of four 7 x 7 complex matrices
        assert "records=2 " in message and message.endswith(f"bytes={2 * 4 * 49 * 16}")

    def test_logs_the_salvaged_windows(self, caplog):
        # one spin coherent state at n = 15 in fig3b's bath, over its interval: the
        # first window is refused and ended at a narrower width
        space = DickeSpace(15)
        liouv = spin_liouvillian(build_collective_ops(space), SqueezingParams.minimal(5.0))
        rho0 = spin_coherent_state(space, BlochAngles(0.55 * math.pi, 0.3)).density()
        with caplog.at_level(logging.DEBUG, logger="squeezelax.lindblad"):
            diag = evolve(liouv, rho0, 0.12).diagnostics
        (record,) = caplog.records
        assert diag["salvaged"] == diag["rejected"] == 1
        assert f"refused=1 salvaged=1 rhs_evals={diag['rhs_evals']} " in record.getMessage()

    @pytest.mark.parametrize("kind, size, bath", [
        ("oscillator", 59, "squeezed-vacuum"), ("oscillator", 80, "coherent"),
        ("oscillator-even", 40, "mixed"), ("spins-even", 8, "minimal"),
        *(("spins", n, bath) for n in (8, 15, 40, 80) for bath in BATHS)])
    def test_matches_rk45_at_tight_tolerance(self, kind, size, bath):
        """Default tolerances against Dormand-Prince at rtol 1e-12, atol 1e-14, on output grids."""
        if kind == "oscillator" and size == 59:
            # the oscillator-relaxation bath and start, over the first tenth of its run
            liouv = oscillator_liouvillian(59, SqueezingParams(1.0, math.sqrt(2.0)))
            rho0 = np.zeros((59, 59), dtype=complex)
            rho0[0, 0] = 1.0
            times = np.linspace(0.0, 2.0, 21)
        elif kind == "oscillator":
            liouv = oscillator_liouvillian(80, SqueezingParams(0.5, 0.3))
            psi = lindblad.coherent_state_vector(80, 1.0)
            rho0 = np.outer(psi, psi.conj()).astype(complex)
            times = np.linspace(0.0, 2.0, 121)
        elif kind == "oscillator-even":
            liouv = oscillator_liouvillian(size, BATHS[bath])
            rho0 = _even_coherences(size)
            times = np.linspace(0.0, 2.0, 41)
        else:
            space = DickeSpace(size)
            liouv = spin_liouvillian(build_collective_ops(space), BATHS[bath])
            rho0 = (_even_coherences(size + 1) if kind == "spins-even" else
                    spin_coherent_state(space, BlochAngles(0.75 * math.pi, 0.3)).density())
            times = np.linspace(0.0, 2.0 / size, 31)  # about three collective decay times

        def rhs(y, _t):  # the complex state as interleaved real and imaginary parts
            return liouv.apply(y.view(complex).reshape(rho0.shape)).reshape(-1).view(np.float64)

        cfg = IntegratorConfig(dt=1e-2 / liouv.params.gamma_p, rtol=1e-12, atol=1e-14)
        reference = integrate(rhs, rho0.reshape(-1).view(np.float64), times, cfg).states
        traj = evolve(liouv, rho0, times)
        reference = reference.view(complex).reshape(traj.states.shape)
        assert np.max(np.abs(traj.states - reference)) <= 1e-10
        assert traj.diagnostics["max_trace_drift"] <= 1e-10
        assert traj.diagnostics["max_hermiticity_residual"] <= 1e-12
        assert traj.diagnostics["min_eigenvalue"] >= -1e-10
        one_sector = kind.endswith("-even") or size == 59
        assert traj.diagnostics["sectors"] == (1 if one_sector else 2)

    def test_sectors_propagate_apart(self, phi_batch):
        # each sector of a start alone (the odd one is traceless, not a
        # state) is propagated on its own plane; together they give the run
        # of the whole start, up to the order of the blocked sums
        liouv, stack = phi_batch
        odd = np.indices(stack.shape[1:]).sum(axis=0) % 2 == 1
        times = np.linspace(0.0, 0.3, 4)
        whole = evolve(liouv, stack, times)
        parts = [evolve(liouv, np.where(mask, stack, 0.0), times) for mask in (~odd, odd)]
        assert [part.diagnostics["sectors"] for part in parts] == [1, 1]
        assert whole.diagnostics["sectors"] == 2
        assert all(part.diagnostics["rhs_evals"] == whole.diagnostics["rhs_evals"]
                   for part in parts)
        assert np.all(parts[0].states[:, :, odd] == 0.0)
        assert np.all(parts[1].states[:, :, ~odd] == 0.0)
        total = parts[0].states + parts[1].states
        assert np.max(np.abs(total - whole.states)) <= 1e-14

    def test_every_start_propagates_one_real_row_per_member(self, monkeypatch):
        liouv = oscillator_liouvillian(12, BATHS["mixed"])
        real = np.zeros((12, 12), dtype=complex)
        real[0, 0] = real[1, 1] = real[0, 1] = real[1, 0] = 0.5
        complex_ = real.copy()
        complex_[0, 1], complex_[1, 0] = 0.5j, -0.5j
        handed, records, real_propagate = [], [], lindblad.propagate

        def spy(term, bound, y0, *rest):
            handed.append(y0)
            result = real_propagate(term, bound, y0, *rest)
            records.append(result.states)
            return result

        monkeypatch.setattr(lindblad, "propagate", spy)
        times = np.linspace(0.0, 1.0, 5)
        runs = [evolve(liouv, start, times)
                for start in (real, complex_, np.stack([real, complex_, real]))]
        # one real row per member: both sectors' packed planes (W = 6, L = 6 * 11 + 12)
        # end to end, with 2W border zeros on each side
        row = 2 * 78 + 4 * 6
        assert [y0.shape for y0 in handed] == [(row,), (row,), (3, row)]
        assert all(y0.dtype == np.float64 for y0 in handed)
        # the batch is swept as one run, and the borders between its rows stay zero
        assert np.all(records[2][..., :12] == 0.0) and np.all(records[2][..., -12:] == 0.0)
        assert all(traj.diagnostics["sectors"] == 2 for traj in runs)
        traj = runs[0]
        assert traj.states.dtype == complex and traj.states.shape == (5, 12, 12)
        assert np.all(traj.states.imag == 0.0) and not np.any(np.signbit(traj.states.imag))
        # a float64 start takes the same path
        assert np.array_equal(traj.states, evolve(liouv, real.real, times).states)
        assert np.any(runs[1].states[-1].imag)

    def test_complex_batch_reads_back_its_start_at_record_0(self, phi_batch):
        # entries whose Re rho +- Im rho are exact in floating point (here multiples
        # of 1/8) come back bit for bit; any other entry within a rounding of
        # max(|Re rho|, |Im rho|)
        psi = 0.5 * np.array([[1, 1j, -1, 1, 0, 0], [1j, 0, 1, 1, 0, -1], [0, 1, 0, 1j, -1j, 1]])
        pure = np.einsum("bi,bj->bij", psi, psi.conj())
        dyadic = np.concatenate([pure, 0.5 * (pure[:2] + pure[1:])])
        liouv = spin_liouvillian(build_collective_ops(DickeSpace(5)), BATHS["minimal"])
        states = evolve(liouv, dyadic, 0.1).states
        assert np.array_equal(states[0], dyadic) and np.any(dyadic.imag)
        liouv, stack = phi_batch
        start = evolve(liouv, stack, 0.1).states[0]
        bound = np.finfo(float).eps * np.maximum(np.abs(stack.real), np.abs(stack.imag))
        assert np.all(np.abs(start - stack) <= bound)
        assert np.array_equal(start, start.conj().swapaxes(-1, -2))

    def test_one_sector_start_leaves_the_other_sector_zero(self):
        traj = evolve(oscillator_liouvillian(16, BATHS["mixed"]), _even_coherences(16),
                      np.linspace(0.0, 1.0, 6))
        assert traj.diagnostics["sectors"] == 1
        odd = np.indices((16, 16)).sum(axis=0) % 2 == 1
        other = traj.states[:, odd]
        assert np.all(other == 0.0) and not np.any(np.signbit(other.real))
        assert not np.any(np.signbit(other.imag))
        assert np.any(traj.states[-1][~odd].imag)

    @pytest.mark.parametrize("start", ["float64", "complex"])
    def test_record_guard_counts_the_real_records_and_the_states(self, start, monkeypatch):
        # physical memory taken as 64 MiB; the real records and the complex
        # states each fit in it and together do not. A guard that counts only
        # one of them lets the run allocate, in a single short window
        dim, phys = 32, 2 ** 26
        sectors = 1 if start == "float64" else 2
        # bytes per output time: the one real row of the live sectors' packed
        # planes (W = 16, L = 16 * 31 + 32) with its borders, and one complex state
        record, state = 8 * (sectors * 528 + 4 * 16), 16 * dim * dim
        times = np.linspace(0.0, 1e-3, phys // (record + 12 * dim * dim))
        assert max(record, state) * len(times) <= phys < (record + state) * len(times)
        liouv = oscillator_liouvillian(dim, SqueezingParams(0.5, 0.0))
        rho0 = np.zeros((dim, dim))
        rho0[0, 0] = 1.0
        if start == "complex":
            rho0 = np.eye(dim, dtype=complex) / dim
            rho0[0, 1], rho0[1, 0] = 0.01j, -0.01j
        page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: phys // page if name == "SC_PHYS_PAGES" else sysconf(name))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                evolve(liouv, rho0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < phys / 100  # no record: the smaller set alone is over a quarter of phys
        assert "_coefficients" not in vars(liouv)

    def test_reports_the_live_sectors(self):
        vacuum = oscillator_oracle(SqueezingParams(1.0, math.sqrt(2.0)), 0.5)
        assert vacuum.diagnostics["sectors"] == 1
        assert _fig3b_batch(10)().diagnostics["sectors"] == 2

    def test_record_guard_refuses_before_allocating(self):
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        dim = 128
        record = 16 * dim * dim  # bytes of one complex dim x dim record
        times = np.arange(phys // record + 2, dtype=float)
        liouv = oscillator_liouvillian(dim, SqueezingParams(0.5, 0.0))
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="physical memory"):
                evolve(liouv, rho0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(times) * record / 1000  # a thousandth of what was refused
        assert "_coefficients" not in vars(liouv)  # refused before the stencil is built


def _dense_sector_solve(sup: np.ndarray, index: np.ndarray, rng):
    """Reference: the sector's whole block cut from the dense superoperator and solved by one LU.

    Returns the stationary coherences in the order of index, sigma = |b| / |x_b|
    for a random b drawn as ``steady_state`` draws it, and s0 = sqrt(|B|_1 |B|_inf).
    """
    dim, size = math.isqrt(len(sup)), len(index)
    block = sup[np.ix_(index, index)]
    rhs = np.zeros(size, dtype=complex)
    if index[0] == 0:  # the row of rho[0, 0] becomes Tr rho = 1
        block[0] = 0.0
        block[0, np.searchsorted(index, np.arange(dim) * (dim + 1))] = 1.0
        rhs[0] = 1.0
    b = rng.normal(size=size) + 1j * rng.normal(size=size)
    x = np.linalg.solve(block, np.column_stack([rhs, b]))
    s0 = math.sqrt(np.abs(block).sum(axis=0).max() * np.abs(block).sum(axis=1).max())
    return x[:, 0], float(np.linalg.norm(b) / np.linalg.norm(x[:, 1])), s0


class TestSteadyState:
    @pytest.mark.parametrize("kind, size", [("spins", 1), ("spins", 2), ("spins", 3),
                                            ("spins", 9), ("spins", 40), ("oscillator", 12)])
    @pytest.mark.parametrize("bath", BATHS)
    def test_block_solve_matches_a_dense_solve(self, kind, size, bath):
        liouv = _generator(kind, size, BATHS[bath])
        dim = liouv.dim
        sup = liouv.superoperator()
        sums = lindblad._trace_row_sums(liouv)
        rho = np.zeros(dim * dim, dtype=complex)
        block_rng, dense_rng = np.random.default_rng(0), np.random.default_rng(0)
        parity = np.indices((dim, dim)).sum(axis=0).ravel() % 2  # of i + j, so of i - j
        for orders in (lindblad._orders(dim, 0), lindblad._orders(dim, 1)):
            index = np.flatnonzero(parity == orders[0] % 2)
            levels = [np.arange(dim * dim)[lindblad._order_slice(dim, k)] for k in orders]
            for k, level in zip(orders, levels):  # one coherence order k each
                assert set(level // dim - level % dim) == {k} and len(level) == dim - abs(k)
            assert np.array_equal(np.sort(np.concatenate(levels)), index)
            sigma, s0, _, _ = lindblad._solve_sector(
                rho, orders, liouv._coefficients, sums, block_rng)
            x, dense_sigma, dense_s0 = _dense_sector_solve(sup, index, dense_rng)
            assert np.max(np.abs(rho[index] - x)) <= 1e-13
            assert s0 == pytest.approx(dense_s0, rel=1e-12)
            assert sigma / s0 == pytest.approx(dense_sigma / dense_s0, rel=1e-8)
            if 0 not in index:  # the odd sector: no coherence survives
                assert not np.any(rho[index])
        rho = rho.reshape(dim, dim)
        assert np.max(np.abs(steady_state(liouv) - 0.5 * (rho + rho.conj().T))) <= 1e-13
        if dim <= 12:  # against the null vector of the dense superoperator
            _u, _s, vh = np.linalg.svd(sup)
            ref = vh[-1].conj().reshape(dim, dim)
            assert np.max(np.abs(steady_state(liouv) - ref / np.trace(ref))) <= 1e-13

    @pytest.mark.parametrize("bath", BATHS)
    def test_memory_estimate_bounds_the_peak(self, bath, monkeypatch):
        # at small n the fixed costs of the sweep are most of the peak
        check = lindblad._check_memory
        for n in (2, 5, 40):
            ops = build_collective_ops(DickeSpace(n))
            steady_state(spin_liouvillian(ops, BATHS[bath]))  # lazy imports happen here
            liouv = spin_liouvillian(ops, BATHS[bath])
            guarded = []
            monkeypatch.setattr(lindblad, "_check_memory",
                                lambda nbytes, what: (guarded.append(nbytes), check(nbytes, what)))
            tracemalloc.start()
            try:
                steady_state(liouv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(guarded) == 1 and peak <= guarded[0] <= 4 * peak, n

    def test_vacuum_ground_state(self):
        ops = build_collective_ops(DickeSpace(4))
        rho = steady_state(spin_liouvillian(ops, SqueezingParams(0.0, 0.0)))
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho - expected)) < 1e-10

    def test_residual_and_positivity(self):
        ops = build_collective_ops(DickeSpace(6))
        liouv = spin_liouvillian(ops, SqueezingParams.minimal(0.3))
        rho = steady_state(liouv)
        assert np.max(np.abs(liouv.apply(rho))) < 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_degenerate_generator_reported(self):
        # a zero system operator leaves every state stationary
        liouv = Liouvillian(np.zeros(2), SqueezingParams(0.5, 0.0))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liouv)

    def test_two_dark_levels_reported(self):
        # a zero on the superdiagonal: levels 0 and 2 both decay to nothing
        liouv = Liouvillian([1.0, 0.0, 1.0], SqueezingParams(0.0, 0.0))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liouv)

    @pytest.mark.parametrize("bath", BATHS)
    def test_two_decoupled_chains_reported(self, bath):
        # a zero in the middle of the superdiagonal splits the levels into two
        # chains of three, each with a steady state of its own; in the mixed
        # bath no LU pivot is exactly zero, so only the smallest-singular-value
        # estimate sees the degeneracy
        liouv = Liouvillian([1.0, 1.0, 0.0, 1.0, 1.0], BATHS[bath])
        with pytest.raises(DegenerateSteadyStateError) as raised:
            steady_state(liouv)
        if bath == "mixed":
            assert "smallest singular value" in str(raised.value)
            assert raised.value.__cause__ is None
        else:
            assert isinstance(raised.value.__cause__, np.linalg.LinAlgError)

    def test_one_level_system(self):
        liouv = Liouvillian(np.zeros(0), SqueezingParams(0.5, 0.0))
        assert np.array_equal(steady_state(liouv), np.ones((1, 1)))

    def test_dark_state_at_fifty_spins(self):
        ops = build_collective_ops(DickeSpace(50))
        rho = steady_state(spin_liouvillian(ops, SqueezingParams.minimal(0.5)))
        psi = dark_state(50, 0.5)
        assert np.vdot(psi, rho @ psi).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [80, 160])
    def test_dark_state_at_large_spin_counts(self, n):
        # a dense solve of one parity sector would need about 5.4 GB at 160 spins
        ops = build_collective_ops(DickeSpace(n))
        rho = steady_state(spin_liouvillian(ops, SqueezingParams.minimal(2.0)))
        psi = dark_state(n, 2.0)
        assert np.vdot(psi, rho @ psi).real == pytest.approx(1.0, abs=1e-10)

    def test_dark_state_annihilated_by_the_jump_operator(self):
        # c = sqrt(nbar+1) S- - sqrt(nbar) S+ on its superdiagonal, never as a matrix
        n, nbar = 10 ** 4, 0.5
        psi = dark_state(n, nbar)
        k = np.arange(1, n + 1)
        s_k = np.sqrt(k * (n - k + 1.0))  # <k-1|S-|k>
        c_psi = np.zeros(n + 1)
        c_psi[:-1] += math.sqrt(nbar + 1.0) * s_k * psi[1:]
        c_psi[1:] -= math.sqrt(nbar) * s_k * psi[:-1]
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(c_psi)) < 1e-12

    def test_odd_spin_count_has_no_dark_state(self):
        with pytest.raises(ValueError):
            dark_state(3, 0.5)

    def test_logs_one_debug_line(self, caplog):
        ops = build_collective_ops(DickeSpace(4))
        with caplog.at_level(logging.DEBUG, logger="squeezelax.lindblad"):
            steady_state(spin_liouvillian(ops, SqueezingParams.minimal(0.3)))
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert "residual" in record.getMessage()
        # size:levels:largest:sigma_min/s0 per sector; at dim 5 the even sector
        # has orders -4 .. 4, the odd one -3 .. 3
        sectors = re.search(r"sigma_min/s0\) (.*?) residual", record.getMessage())[1].split()
        assert [sector.split(":")[:3] for sector in sectors] == [["13", "5", "5"], ["12", "4", "4"]]
        assert all(0 < float(sector.split(":")[3]) < 1 for sector in sectors)
        build, solve, wall = (float(re.search(rf"{phase}=(\S+) s", record.getMessage())[1])
                              for phase in ("build", "solve", "wall"))
        assert 0 < build and 0 < solve and build + solve <= wall * (1 + 1e-3)  # 4 digits


class TestOscillatorOracle:
    def test_vacuum_stays_vacuum(self):
        traj = oscillator_oracle(SqueezingParams(0.0, 0.0), 5.0, cutoff=8)
        a = annihilation_operator(8)
        x = a + a.conj().T
        assert traj.sym_covariances(x, x)[-1] == pytest.approx(1.0, abs=1e-9)

    def test_term_counts_at_cutoff_59(self):
        # the counts the growth check's block size must not move: every window
        # opens at the first rung and none is refused
        diag = oscillator_oracle(SqueezingParams(1.0, math.sqrt(2.0)), 20.0).diagnostics
        assert diag["cutoff"] == 59 and diag["sectors"] == 1
        assert (diag["rhs_evals"], diag["accepted"], diag["rejected"], diag["salvaged"]) == (
            4222, 48, 0, 0)
        assert (diag["degree_min"], diag["degree_max"]) == (86, 88)

    def test_displaced_start_is_exactly_hermitian(self):
        # every record, not the start alone: each is read back from X = Re rho + Im rho
        traj = oscillator_oracle(SqueezingParams(1.0, math.sqrt(2.0)), np.linspace(0.0, 0.4, 5),
                                 alpha=0.7 + 0.3j)
        assert traj.diagnostics["cutoff"] == 59 and np.any(traj.states[-1].imag)
        # exact equality: conj turns a +0.0 imaginary part into -0.0, which compares equal
        assert np.array_equal(traj.states, traj.states.conj().swapaxes(-1, -2))
        assert traj.diagnostics["max_hermiticity_residual"] == 0.0

    def test_insufficient_cutoff_reported(self):
        with pytest.raises(CutoffError):
            oscillator_oracle(SqueezingParams.minimal(2.0), 5.0, cutoff=4)

    def test_start_that_does_not_fit_doubles_the_default_cutoff(self):
        alpha = 0.7 + 0.3j
        with pytest.raises(CutoffError, match="does not fit in 10 Fock levels"):
            lindblad.coherent_state_vector(10, alpha)  # the default cutoff in the vacuum bath
        traj = oscillator_oracle(SqueezingParams(0.0, 0.0), 2.0, alpha=alpha)
        assert traj.diagnostics["cutoff"] == 20
        a = annihilation_operator(20)
        # in the vacuum bath <a> decays at gamma_p / 2
        assert traj.expectations(a)[-1] == pytest.approx(alpha.real * math.exp(-1.0), abs=1e-9)
        assert traj.expectations(-1j * a)[-1] == pytest.approx(alpha.imag * math.exp(-1.0),
                                                               abs=1e-9)

    def test_coherent_state_overflow_reported(self):
        with pytest.raises(CutoffError):
            oscillator_oracle(SqueezingParams(0.0, 0.0), 1.0, cutoff=6, alpha=4.0)


def _fig3b_batch(n: int, thetas=(0.75,)):
    """fig3b's batch at n: per theta (in units of pi), one coherent state per orbit of the
    12-point phi grid; two records."""
    space = DickeSpace(n)
    liouv = spin_liouvillian(build_collective_ops(space), SqueezingParams.minimal(5.0))
    grid = [2 * math.pi * k / 12 for k in range(12)]
    evolved = _azimuth_orbits(grid)[0]
    assert len(evolved) == 4
    densities = [spin_coherent_state(space, BlochAngles(theta * math.pi, grid[k])).density()
                 for theta in thetas for k in evolved]
    # the stack is the complex input the estimate counts, so it is traced
    return lambda: evolve(liouv, np.stack(densities), 1e-3)


def _vacuum_start(cutoff: int, times):
    """The oscillator oracle's real vacuum start (one sector) under N = 1, M = sqrt(2)."""
    liouv = oscillator_liouvillian(cutoff, SqueezingParams(1.0, math.sqrt(2.0)))
    rho0 = np.zeros((cutoff, cutoff))
    rho0[0, 0] = 1.0
    return lambda: evolve(liouv, rho0, times)


def _mixed_steady_state(n: int):
    liouv = spin_liouvillian(build_collective_ops(DickeSpace(n)), SqueezingParams(0.5, 0.2))
    return lambda: steady_state(liouv)


def _collective_ops(n: int):
    return lambda: build_collective_ops(DickeSpace(n))


def _transverse_ops(n: int):
    ops = build_collective_ops(DickeSpace(n))
    return lambda: ops.sx  # the first read builds S-, S+, Sx and Sy


# each case's set-up, and the arguments that give the call it returns
GUARDED_CALLS = {
    "evolve-fig3b-n60": (_fig3b_batch, 60),
    "evolve-fig3b-n120": (_fig3b_batch, 120),
    # the largest batch fig3b evolves at once: all three default theta at n = 19
    "evolve-fig3b-n19-3-thetas": (_fig3b_batch, 19, (0.55, 0.75, 0.87)),
    "evolve-vacuum-cutoff120-2-times": (_vacuum_start, 120, 1.0),
    "evolve-vacuum-cutoff59-201-times": (_vacuum_start, 59, np.linspace(0.0, 2.0, 201)),
    "collective-ops-n200": (_collective_ops, 200),
    "collective-ops-n800": (_collective_ops, 800),
    "transverse-ops-n200": (_transverse_ops, 200),
    "transverse-ops-n800": (_transverse_ops, 800),
    "steady-state-n160": (_mixed_steady_state, 160),
    "steady-state-n320": (_mixed_steady_state, 320),
}


@pytest.mark.parametrize("case", GUARDED_CALLS)
def test_memory_guard_bounds_the_traced_peak(case, monkeypatch):
    # each guard counts what its call holds at its peak, and not far more
    setup, *args = GUARDED_CALLS[case]
    call = setup(*args)
    guarded = []
    check = lindblad._check_memory
    for module in (lindblad, spin_algebra):
        monkeypatch.setattr(module, "_check_memory",
                            lambda nbytes, what: (guarded.append(nbytes), check(nbytes, what)))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(guarded) == 1
    assert peak <= guarded[0] <= 4 * peak
