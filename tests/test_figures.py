import json
import math

import numpy as np
import pytest

from squeezelax import cli, figures
from squeezelax.figures import (FigureDataset, fig3a_vector_field,
                                fig3b_ellipses, fig4a_rates,
                                fig4b_variance_derivatives)
from squeezelax.lindblad import evolve, spin_liouvillian
from squeezelax.moments import SqueezingParams, minimal_m, spin_moments_from_state
from squeezelax.spin_algebra import (BlochAngles, DickeSpace, QuantumState,
                                     build_collective_ops, spin_coherent_state)

THETAS = [0.55 * math.pi, 0.75 * math.pi, 0.87 * math.pi]
PHIS = [0.0, 0.7, 2.1, 4.4]


def rows_by(dataset, **filters):
    idx = {c: i for i, c in enumerate(dataset.columns)}
    out = []
    for row in dataset.rows:
        if all(row[idx[k]] == v for k, v in filters.items()):
            out.append({c: row[i] for c, i in idx.items()})
    return out


class TestFigureDataset:
    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            FigureDataset("x", ["a", "b"], [(1.0,)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FigureDataset("x", ["a"], [(float("inf"),)])

    def test_csv_roundtrip_structure(self):
        ds = FigureDataset("demo", ["a", "b"], [(1, 2.5)], {"k": 3})
        text = ds.to_csv()
        lines = text.splitlines()
        assert lines[0] == "# figure = demo"
        assert lines[1] == "# k = 3"
        assert lines[2] == "a,b"
        assert lines[3] == "1,2.5"

    def test_json_output(self):
        ds = FigureDataset("demo", ["a"], [(1.0,)], {"k": "v"})
        payload = json.loads(ds.to_json())
        assert payload["figure"] == "demo"
        assert payload["rows"] == [[1.0]]


class TestFig3a:
    def test_single_spin_anisotropy_ratio(self):
        nbar = 0.5
        ds = fig3a_vector_field([1], nbar, THETAS, PHIS)
        m = minimal_m(nbar)
        expected = (nbar + m + 0.5) / (nbar - m + 0.5)
        for row in rows_by(ds, system="spins", n=1):
            assert row["rate_x"] / row["rate_y"] == pytest.approx(expected)

    def test_oscillator_arrows_radial(self):
        ds = fig3a_vector_field([1], 0.5, THETAS, PHIS)
        for row in rows_by(ds, system="oscillator"):
            r = math.hypot(row["mean_x"], row["mean_y"])
            d = math.hypot(row["dmean_x"], row["dmean_y"])
            assert d == pytest.approx(0.5 * r, abs=1e-12)
            # antiparallel to the radius vector
            cross = row["mean_x"] * row["dmean_y"] - row["mean_y"] * row["dmean_x"]
            assert abs(cross) < 1e-12

    def test_axis_component_decouples(self):
        ds = fig3a_vector_field([5], 0.5, THETAS, [0.0, math.pi])
        for row in rows_by(ds, system="spins"):
            assert row["mean_y"] == pytest.approx(0.0, abs=1e-12)
            assert row["dmean_y"] == pytest.approx(0.0, abs=1e-12)

    def test_arrows_match_oracle_differencing(self):
        # evolve the exact state for a short dt and difference the means
        nbar, n = 0.5, 1
        p = SqueezingParams.minimal(nbar)
        ds = fig3a_vector_field([n], nbar, [0.75 * math.pi], [0.7])
        row = rows_by(ds, system="spins", n=n)[0]
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        state = spin_coherent_state(space, BlochAngles(0.75 * math.pi, 0.7))
        dt = 1e-4
        traj = evolve(spin_liouvillian(ops, p), state, dt, rtol=1e-12, atol=1e-14)
        fd_x = (traj.expectations(ops.sx)[-1] - traj.expectations(ops.sx)[0]) / dt
        fd_y = (traj.expectations(ops.sy)[-1] - traj.expectations(ops.sy)[0]) / dt
        assert fd_x == pytest.approx(row["dmean_x"], rel=1e-3)
        assert fd_y == pytest.approx(row["dmean_y"], rel=1e-3)

    def test_rejects_upper_hemisphere(self):
        with pytest.raises(ValueError):
            fig3a_vector_field([1], 0.5, [0.3 * math.pi], PHIS)


@pytest.fixture(scope="module")
def fig3b_dataset():
    return fig3b_ellipses([1, 5, 15], 5.0, THETAS, PHIS)


@pytest.fixture(scope="module")
def fig4b_dataset():
    return fig4b_variance_derivatives(range(1, 31), 0.05, THETAS)


class TestFig3b:
    def test_pole_starts_circular_then_squeezes(self):
        ds = fig3b_ellipses([5], 5.0, [math.pi], [0.0])
        pre = rows_by(ds, system="spins", stage="pre")[0]
        post = rows_by(ds, system="spins", stage="post")[0]
        assert pre["axis_major"] == pytest.approx(pre["axis_minor"], abs=1e-9)
        # the anti-squeezed quadrature grows faster than the squeezed one
        assert post["axis_major"] / post["axis_minor"] > 1.0 + 1e-6

    def test_south_pole_center_fixed(self):
        ds = fig3b_ellipses([5], 5.0, [math.pi], [0.0])
        for row in rows_by(ds, system="spins", stage="post"):
            assert abs(row["mean_x"]) < 1e-9
            assert abs(row["mean_y"]) < 1e-9

    def test_oscillator_squeezes_toward_input(self, fig3b_dataset):
        vy_target = 2 * 5.0 - 2 * minimal_m(5.0) + 1.0
        pre = rows_by(fig3b_dataset, system="oscillator", stage="pre")[0]
        post = rows_by(fig3b_dataset, system="oscillator", stage="post")[0]
        assert abs(post["var_y"] - vy_target) < abs(pre["var_y"] - vy_target)

    def test_default_plot_scales(self, fig3b_dataset):
        for n, scale in ((1, 0.12), (5, 0.25), (15, 0.4)):
            rows = rows_by(fig3b_dataset, system="spins", n=n)
            assert all(r["scale"] == scale for r in rows)

    def test_term_counts_at_the_cli_defaults(self, monkeypatch, capsys):
        # the counts the growth check's block size must not move: 9 (n, theta)
        # propagations, 3 of whose windows are refused and all 3 salvaged
        diags = []

        def spy(*args):
            traj = evolve(*args)
            diags.append(traj.diagnostics)
            return traj

        monkeypatch.setattr(figures, "evolve", spy)
        assert cli.main(["fig3b"]) == 0
        capsys.readouterr()
        totals = [sum(d[key] for d in diags) for key in ("rhs_evals", "rejected", "salvaged")]
        assert len(diags) == 9 and totals == [708, 3, 3]

    def test_rejects_invalid_theta(self):
        with pytest.raises(ValueError):
            fig3b_ellipses([1], 5.0, [1.5 * math.pi], PHIS)


GRID_12 = [2 * math.pi * k / 12 for k in range(12)]


def _eigh_ellipse(var_x: float, var_y: float, cov_xy: float) -> tuple[float, float, float]:
    """(major axis, minor axis, tilt) of one covariance ellipse by ``eigh``: the reference.

    The tilt, of the major axis's eigenvector, lies in (-pi, pi].
    """
    vals, vecs = np.linalg.eigh(np.array([[var_x, cov_xy], [cov_xy, var_y]]))
    return (math.sqrt(max(vals[1], 0.0)), math.sqrt(max(vals[0], 0.0)),
            math.atan2(vecs[1, 1], vecs[0, 1]))


def _unfolded(phi_grid):
    """``_azimuth_orbits`` with every member its own orbit."""
    size = len(phi_grid)
    return list(range(size)), np.arange(size), np.zeros(size, bool), np.zeros(size, bool)


class TestFig3bFold:
    def test_twelve_point_grid_folds_onto_four_members(self):
        evolved, slot, flip, conj = figures._azimuth_orbits(GRID_12)
        assert evolved == [0, 1, 2, 3]
        assert slot.tolist() == [0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2, 1]
        assert flip.tolist() == [k in (4, 5, 6, 7, 8, 9) for k in range(12)]
        assert conj.tolist() == [k in (4, 5, 10, 11) for k in range(12)]
        # a few ulps off an image still folds
        nudged = GRID_12[:4] + [math.nextafter(math.nextafter(phi, 10.0), 10.0)
                                for phi in GRID_12[4:]]
        assert figures._azimuth_orbits(nudged)[0] == [0, 1, 2, 3]
        assert figures._azimuth_orbits([0.4, -0.4 + 2 * math.pi, 0.4 + 9 * math.pi])[0] == [0]

    def test_phi_off_by_1e_9_is_not_folded(self):
        for partner in (0.4 + math.pi, -0.4, math.pi - 0.4, 0.4):
            assert figures._azimuth_orbits([0.4, partner + 1e-9])[0] == [0, 1]

    @pytest.mark.parametrize("phi_grid, batch", [([0.1, 0.7], 2), ([0.3], 1), (GRID_12, 4)])
    def test_batch_that_reaches_evolve(self, phi_grid, batch, monkeypatch):
        sizes = []

        def spy(liouv, rho0, times):
            sizes.append(len(rho0))
            return evolve(liouv, rho0, times)

        monkeypatch.setattr(figures, "evolve", spy)
        ds = fig3b_ellipses([1, 5], 5.0, [0.75 * math.pi], phi_grid)
        assert sizes == [batch, batch]
        assert len(rows_by(ds, system="spins", stage="post")) == 2 * len(phi_grid)

    @pytest.mark.parametrize("n", [5, 15])
    def test_folded_post_rows_match_each_phi_evolved_alone(self, n, monkeypatch):
        # to 1e-12 against each phi as its own member of one batch; evolved
        # by itself, a member takes its own windows, so it agrees to rtol
        thetas = [0.55 * math.pi, math.pi]
        folded = fig3b_ellipses([n], 5.0, thetas, GRID_12)
        monkeypatch.setattr(figures, "_azimuth_orbits", _unfolded)
        unfolded = fig3b_ellipses([n], 5.0, thetas, GRID_12)
        space = DickeSpace(n)
        ops = build_collective_ops(space)
        liouv = spin_liouvillian(ops, SqueezingParams.minimal(5.0))
        keys = ("mean_x", "mean_y", "var_x", "var_y", "cov_xy", "axis_major", "axis_minor")
        for theta in thetas:
            rows = zip(GRID_12, *(rows_by(ds, system="spins", theta=theta, stage="post")
                                  for ds in (folded, unfolded)))
            for phi, row, own in rows:
                start = spin_coherent_state(space, BlochAngles(theta, phi))
                final = evolve(liouv, start, 0.008 * n).final_state
                m = spin_moments_from_state(QuantumState(final, "matrix"), ops)
                alone = (m.mean_x, m.mean_y, m.var_x, m.var_y, m.cov_xy,
                         *_eigh_ellipse(m.var_x, m.var_y, m.cov_xy))
                for key, want in zip(keys, alone):
                    assert row[key] == pytest.approx(own[key], rel=1e-12, abs=1e-12)
                    assert row[key] == pytest.approx(want, rel=1e-10, abs=1e-10)
                assert abs(math.remainder(row["tilt"] - own["tilt"], math.pi)) < 1e-12
                assert abs(math.remainder(row["tilt"] - alone[-1], math.pi)) < 1e-10

    def test_pre_rows_byte_identical_to_an_unfolded_build(self, monkeypatch):
        args = ([1, 5], 5.0, [0.55 * math.pi, math.pi], GRID_12)
        folded = rows_by(fig3b_ellipses(*args), stage="pre")
        monkeypatch.setattr(figures, "_azimuth_orbits", _unfolded)
        unfolded = rows_by(fig3b_ellipses(*args), stage="pre")
        assert len(folded) == 2 * 2 * 12 + 12
        assert folded == unfolded

    def test_pre_rows_match_each_state_read_alone(self):
        # the pre stack's rows against each coherent state's vector moments and eigh
        thetas = [0.55 * math.pi, 0.87 * math.pi]
        ds = fig3b_ellipses([1, 5, 15], 5.0, thetas, GRID_12)
        keys = ("mean_x", "mean_y", "var_x", "var_y", "cov_xy", "axis_major", "axis_minor")
        for n in (1, 5, 15):
            space = DickeSpace(n)
            ops = build_collective_ops(space)
            for theta in thetas:
                rows = rows_by(ds, system="spins", n=n, theta=theta, stage="pre")
                assert [row["phi"] for row in rows] == GRID_12
                for row in rows:
                    m = spin_moments_from_state(
                        spin_coherent_state(space, BlochAngles(theta, row["phi"])), ops)
                    want = (m.mean_x, m.mean_y, m.var_x, m.var_y, m.cov_xy,
                            *_eigh_ellipse(m.var_x, m.var_y, m.cov_xy))
                    for key, value in zip(keys, want):
                        assert row[key] == pytest.approx(value, rel=1e-13, abs=1e-13), key
                    assert abs(math.remainder(row["tilt"] - want[-1], math.pi)) < 1e-12

    def test_closed_form_ellipses_match_eigh(self):
        rng = np.random.default_rng(7)
        vx, vy = rng.uniform(0.1, 5.0, (2, 200))
        cxy = rng.uniform(-1.0, 1.0, 200) * np.sqrt(vx * vy)
        major, minor, tilt = figures._ellipses(vx, vy, cxy)
        for k in range(200):
            want = _eigh_ellipse(vx[k], vy[k], cxy[k])
            assert major[k] == pytest.approx(want[0], rel=1e-13)
            assert minor[k] == pytest.approx(want[1], rel=1e-10, abs=1e-13)
            assert abs(math.remainder(tilt[k] - want[2], math.pi)) < 1e-10

    def test_tilt_lies_in_zero_to_pi_and_a_circle_reads_half_pi(self):
        rng = np.random.default_rng(11)
        vx, vy = rng.uniform(0.1, 5.0, (2, 1000))
        cxy = rng.uniform(-1.0, 1.0, 1000) * np.sqrt(vx * vy)
        # and the edges: zero covariances of either sign, and a covariance so
        # small against vx - vy that pi/2 - atan2(2c, vy - vx) / 2 rounds to pi
        vx = np.append(vx, [2.0, 1.0, 2.0, 1.0, 2.0, 2.0])
        vy = np.append(vy, [1.0, 2.0, 1.0, 2.0, 1.0, 1.0])
        cxy = np.append(cxy, [0.0, 0.0, -0.0, -0.0, -1e-17, -1e-300])
        tilt = figures._ellipses(vx, vy, cxy)[2]
        assert np.all((0.0 <= tilt) & (tilt < math.pi))
        assert tilt[-6:].tolist() == [0.0, math.pi / 2, 0.0, math.pi / 2, 0.0, 0.0]
        circle = figures._ellipses(np.array([2.0, 2.0]), np.array([2.0, 2.0]),
                                   np.array([0.0, -0.0]))
        assert [v.tolist() for v in circle] == [[math.sqrt(2.0)] * 2, [math.sqrt(2.0)] * 2,
                                                [math.pi / 2] * 2]

    def test_diagonal_covariance_reads_its_variances_exactly(self):
        # as eigh does, so the oscillator panel's ellipses are eigh's to the bit
        rng = np.random.default_rng(13)
        vx, vy = rng.uniform(0.1, 5.0, (2, 200))
        major, minor, _ = figures._ellipses(vx, vy, np.zeros(200))
        for k in range(200):
            assert (major[k], minor[k]) == _eigh_ellipse(vx[k], vy[k], 0.0)[:2]
        ds = fig3b_ellipses([1], 5.0, [math.pi], GRID_12)
        for row in rows_by(ds, system="oscillator"):
            want = _eigh_ellipse(row["var_x"], row["var_y"], row["cov_xy"])
            assert (row["axis_major"], row["axis_minor"]) == want[:2]
            assert row["tilt"] == want[2] % math.pi


class TestFig4a:
    def test_single_spin_endpoint_matches_gardiner(self):
        nbar = 0.05
        ds = fig4a_rates(range(1, 21), nbar, THETAS)
        p = SqueezingParams.minimal(nbar)
        for row in rows_by(ds, n=1):
            assert abs(row["rate_x"] - p.gamma_p * (nbar + p.m_corr + 0.5)) < 1e-12
            assert abs(row["rate_y"] - p.gamma_p * (nbar - p.m_corr + 0.5)) < 1e-12

    def test_reference_value(self):
        ds = fig4a_rates([1], 0.05, [0.75 * math.pi])
        row = rows_by(ds, n=1)[0]
        assert row["rate_x"] == pytest.approx(0.05 + math.sqrt(0.0525) + 0.5, abs=1e-10)
        assert row["rate_y"] == pytest.approx(0.05 - math.sqrt(0.0525) + 0.5, abs=1e-10)

    def test_rates_monotone_in_n_below_equator(self):
        ds = fig4a_rates(range(1, 41), 0.05, THETAS)
        for theta in THETAS:
            rows = sorted(rows_by(ds, theta=theta), key=lambda r: r["n"])
            gx = [r["rate_x"] for r in rows]
            gy = [r["rate_y"] for r in rows]
            assert all(a < b for a, b in zip(gx, gx[1:]))
            assert all(a < b for a, b in zip(gy, gy[1:]))

    def test_large_n_approaches_collective_reference(self):
        ds = fig4a_rates([100], 0.05, [0.99 * math.pi])
        row = rows_by(ds, n=100)[0]
        assert abs(row["rate_x"] / row["collective_ref"] - 1.0) < 0.01


class TestFig4b:
    def test_single_spin_pole_is_fixed_point(self):
        ds = fig4b_variance_derivatives([1], 0.05, [math.pi])
        row = rows_by(ds, system="spins")[0]
        assert abs(row["dvar_x"]) < 1e-12
        assert abs(row["dvar_y"]) < 1e-12

    def test_sign_split_near_south_pole(self):
        ds = fig4b_variance_derivatives([30], 0.05, [0.95 * math.pi])
        row = rows_by(ds, system="spins")[0]
        assert row["dvar_x"] > 0.0
        assert row["dvar_y"] < 0.0

    def test_south_pole_matches_oscillator_form(self):
        n, nbar = 40, 0.05
        p = SqueezingParams.minimal(nbar)
        ds = fig4b_variance_derivatives([n], nbar, [0.98 * math.pi])
        row = rows_by(ds, system="spins")[0]
        approx = -n * p.gamma_p * (n - n * (2 * nbar + 2 * p.m_corr + 1))
        assert row["dvar_x"] == pytest.approx(approx, rel=0.15)

    def test_derivatives_monotone_in_n(self, fig4b_dataset):
        for theta in THETAS:
            rows = sorted(rows_by(fig4b_dataset, system="spins", theta=theta),
                          key=lambda r: r["n"])
            dvx = [r["dvar_x"] for r in rows]
            assert all(a < b for a, b in zip(dvx, dvx[1:]))


class TestDeterminism:
    def test_fig3a_byte_identical(self):
        a = fig3a_vector_field([1, 5], 0.5, THETAS, PHIS).to_csv()
        b = fig3a_vector_field([1, 5], 0.5, THETAS, PHIS).to_csv()
        assert a == b

    def test_fig3b_byte_identical(self):
        a = fig3b_ellipses([1, 5], 5.0, THETAS, PHIS[:2]).to_csv()
        b = fig3b_ellipses([1, 5], 5.0, THETAS, PHIS[:2]).to_csv()
        assert a == b

    def test_fig4_byte_identical(self):
        assert fig4a_rates(range(1, 21), 0.05, THETAS).to_csv() \
            == fig4a_rates(range(1, 21), 0.05, THETAS).to_csv()
        assert fig4b_variance_derivatives(range(1, 11), 0.05, THETAS).to_csv() \
            == fig4b_variance_derivatives(range(1, 11), 0.05, THETAS).to_csv()

    def test_float_format_17_digits(self):
        ds = fig4a_rates([1], 0.05, [0.75 * math.pi])
        text = ds.to_csv()
        assert "0.32087121525220796" in text  # rate_y at full precision
