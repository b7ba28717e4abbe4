import argparse
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import squeezelax
from squeezelax import cli, verification
from squeezelax.cli import EXIT_CONFIG, EXIT_INTEGRATOR, EXIT_OK, main
from squeezelax.lindblad import DegenerateSteadyStateError


class TestExitCodes:
    def test_bad_spins_is_config_error(self, capsys, tmp_path):
        assert main(["fig4a", "--spins", "0"]) == EXIT_CONFIG
        assert main(["fig4a", "--spins", "abc"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_bad_squeezing_is_config_error(self, capsys):
        # correlation above the physical bound
        assert main(["single-spin", "--squeezing-n", "1.0",
                     "--squeezing-m", "5.0"]) == EXIT_CONFIG
        assert main(["single-spin", "--squeezing-m", "huge"]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["steady-state", "--squeezing-n", "nan"], ["steady-state", "--squeezing-n", "inf"],
        ["steady-state", "--squeezing-n", "1", "--squeezing-m", "nan"],
        ["single-spin", "--squeezing-n", "nan"],
        ["single-spin", "--squeezing-n=-inf", "--squeezing-m", "0"],
        ["oscillator", "--squeezing-n", "nan"],
        ["oscillator", "--squeezing-n", "1", "--squeezing-m", "inf"],
        ["fig3a", "--squeezing-n", "inf"], ["fig4b", "--squeezing-n", "nan"]])
    def test_non_finite_bath_is_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["fig3a"], ["fig3b", "--phi", "0"], ["fig4a"], ["fig4b"],
                                      ["single-spin"]])
    def test_empty_theta_list_is_config_error(self, argv, capsys, tmp_path):
        out = tmp_path / "out.csv"
        assert main(argv + ["--theta", ",", "--out", str(out)]) == EXIT_CONFIG
        assert "--theta must name at least one angle" in capsys.readouterr().err
        assert not out.exists()

    def test_several_single_spin_angles_are_a_config_error(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["single-spin", "--theta", "0.3,0.9", "--out", str(out)]) == EXIT_CONFIG
        assert "single-spin expects a single --theta value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["oscillator", "--phi", "inf"], ["oscillator", "--phi", "nan"],
                                      ["single-spin", "--phi=-inf"], ["fig3a", "--phi", "nan"],
                                      ["fig3b", "--phi", "inf"], ["fig4b", "--phi", "nan"]])
    def test_non_finite_phi_is_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        assert "--phi must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["single-spin", "oscillator"])
    @pytest.mark.parametrize("t_final", ["0", "-1", "nan", "inf"])
    def test_output_times_not_increasing_or_not_finite_are_config_errors(
            self, command, t_final, capsys):
        assert main([command, "--t-final", t_final]) == EXIT_CONFIG
        assert "times must be" in capsys.readouterr().err

    def test_steady_state_memory_guard(self, capsys):
        # spins whose block solve (at least 4 dim^3 bytes) exceeds physical memory
        phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        n = max(400, int((phys / 4) ** (1 / 3)) + 1)
        tracemalloc.start()
        try:
            assert main(["steady-state", "--spins", str(n)]) == EXIT_CONFIG
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "physical memory" in capsys.readouterr().err
        # only the five dense collective ops (80 bytes per matrix entry) are
        # built before the guard
        assert peak < 160 * (n + 1) ** 2

    @pytest.mark.parametrize("argv", [["fig4b", "--spins", "3000,3000"],
                                      ["steady-state", "--spins", "300"],
                                      ["fig3b", "--spins", "238", "--theta", "0.75"]])
    def test_work_past_physical_memory_is_config_error(self, argv, capsys, monkeypatch,
                                                       tmp_path):
        # physical memory taken as 64 MiB: fig4b's collective ops (the dense
        # Sz, 16 bytes per matrix entry) do not fit at n = 3000, and at n =
        # 300 and 238 the ops fit but the steady-state solve and fig3b's
        # evolution do not (fig3b's estimate, four evolved members and four
        # images per grid member, passes 64 MiB from n = 195)
        phys, n = 2 ** 26, int(argv[2].split(",")[0])
        page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
        monkeypatch.setattr(os, "sysconf",
                            lambda name: phys // page if name == "SC_PHYS_PAGES" else sysconf(name))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()
        # at most the ops and the generator's copy of S-: refused before the
        # solve, and before fig3b stacks the densities of its four evolved
        # members
        assert peak < 2 * 88 * (n + 1) ** 2

    def test_degenerate_steady_state_is_solver_failure(self, capsys, monkeypatch):
        def degenerate(_liouv):
            raise DegenerateSteadyStateError("steady state is degenerate: 2 null vectors")

        monkeypatch.setattr(cli, "steady_state", degenerate)
        assert main(["steady-state", "--spins", "1"]) == EXIT_INTEGRATOR
        assert capsys.readouterr().err.startswith("error: ")

    def test_linalg_error_is_solver_failure(self, capsys, monkeypatch):
        def broken(_liouv):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "steady_state", broken)
        assert main(["steady-state", "--spins", "1"]) == EXIT_INTEGRATOR
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_subcommand_exits_argparse(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    @pytest.mark.parametrize("argv", [["steady-state", "--format", "csv"],
                                      ["steady-state", "--theta", "0.5"],
                                      ["steady-state", "--phi", "0.1"],
                                      ["oscillator", "--theta", "0.5"],
                                      ["fig4a", "--phi", "0.1"],
                                      ["fig3b", "--squeezing-m", "0.1"],
                                      ["fig3b", "--jobs", "2"],
                                      ["fig3b", "--rtol", "1e-10"],
                                      ["single-spin", "--rtol", "1e-10"],
                                      ["oscillator", "--rtol", "1e-10"]])
    def test_flags_a_subcommand_never_reads_exit_argparse(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_flag_table_lists_every_accepted_flag(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| subcommand | flags |")[1].split("\n\n")[0]
        documented = {}
        for line in table.splitlines()[2:]:
            cells = line.split("|")
            documented[cells[1].strip(" `")] = set(re.findall(r"`(--[a-z-]+)`", cells[2]))
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        accepted = {name: {flag for action in parser._actions for flag in action.option_strings
                           if flag not in ("-h", "--help")}
                    for name, parser in subparsers.choices.items()}
        assert documented == accepted


    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        # the parser is kept between calls, and a parse leaves nothing in it for the next
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            first, second = tmp_path / "first.json", tmp_path / "second.json"
            assert main(["steady-state", "--spins", "3", "--squeezing-n", "1.5",
                         "--squeezing-m", "0.5", "--out", str(first)]) == EXIT_OK
            assert main(["steady-state", "--out", str(second)]) == EXIT_OK
            assert built == [1]
            for argv in (["steady-state"], ["fig3b"], ["fig4a", "--spins", "5"], ["verify"]):
                assert vars(cli._parser().parse_args(argv)) == vars(build().parse_args(argv))
        finally:
            cli._parser.cache_clear()
        assert json.loads(first.read_text()) != json.loads(second.read_text())


def _csv_rows(path) -> list[dict]:
    """The data rows of a dataset CSV, as dicts keyed by column, values kept as written."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, line.split(","))) for line in lines[1:]]


class TestFigureCommands:
    def test_fig4a_writes_csv(self, tmp_path):
        out = tmp_path / "fig4a.csv"
        assert main(["fig4a", "--spins", "5", "--theta", "0.75",
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",")[:2] == ["n", "theta"]
        # --spins with one value expands to the range 1..n
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 5

    def test_fig4a_explicit_list_not_expanded(self, tmp_path):
        out = tmp_path / "fig4a.csv"
        assert main(["fig4a", "--spins", "3,7", "--theta", "0.75",
                     "--out", str(out)]) == EXIT_OK
        data = [l for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(data) == 2

    def test_fig3a_json_format(self, tmp_path):
        out = tmp_path / "fig3a.json"
        assert main(["fig3a", "--spins", "1", "--theta", "0.75",
                     "--phi", "0.7", "--format", "json",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["figure"] == "fig3a"
        assert "rate_x" in payload["columns"]

    def test_fig3a_builds_no_hilbert_space(self, tmp_path):
        # its rates are fig4a's closed form, so any spin count runs
        fig3a, fig4a = tmp_path / "fig3a.csv", tmp_path / "fig4a.csv"
        assert main(["fig3a", "--spins", "600", "--theta", "0.75", "--phi", "0",
                     "--out", str(fig3a)]) == EXIT_OK
        assert main(["fig4a", "--spins", "600,601", "--squeezing-n", "0.5", "--theta", "0.75",
                     "--out", str(fig4a)]) == EXIT_OK
        spins = [row for row in _csv_rows(fig3a) if row["system"] == "spins"]
        assert len(spins) == 1
        expected = next(row for row in _csv_rows(fig4a) if row["n"] == "600")
        assert (spins[0]["rate_x"], spins[0]["rate_y"]) == (expected["rate_x"],
                                                            expected["rate_y"])

    def test_fig3b_runs_end_to_end(self, tmp_path):
        out = tmp_path / "fig3b.csv"
        assert main(["fig3b", "--spins", "1,5", "--theta", "0.75",
                     "--phi", "1.1", "--out", str(out)]) == EXIT_OK
        assert "axis_major" in out.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        args = ["fig4b", "--spins", "6", "--theta", "0.55,0.87"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert main(["fig4a", "--spins", "2", "--theta", "0.75"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("# figure = fig4a")

    def test_runs_as_a_module(self, tmp_path):
        src = str(Path(squeezelax.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        out = tmp_path / "fig4a.csv"
        done = subprocess.run([sys.executable, "-m", "squeezelax", "fig4a", "--spins", "2",
                               "--out", str(out)], env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_OK, done.stderr
        assert out.read_text().startswith("# figure = fig4a")


def _table(path) -> tuple[str, np.ndarray]:
    """The header and the rows of a CSV dataset, as floats."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0], np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


class TestScenarioCommands:
    @pytest.mark.parametrize("nbar, m", [("0.5", "minimal"), ("0", "0"), ("1", "0.3"),
                                         ("2", "minimal")])
    def test_single_spin_rows_follow_the_gardiner_means(self, nbar, m, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["single-spin", "--squeezing-n", nbar, "--squeezing-m", m,
                     "--theta", "0.3", "--phi", "0.7", "--out", str(out)]) == EXIT_OK
        header, rows = _table(out)
        assert header == "t,mean_x,mean_y,mean_z"
        nb = float(nbar)
        mc = math.sqrt(nb * (nb + 1.0)) if m == "minimal" else float(m)
        t, theta = np.linspace(0.0, 3.0, 201), 0.3 * math.pi
        z_inf = -1.0 / (2 * nb + 1)
        # each transverse mean decays at its own rate, the inversion relaxes to -1/(2N + 1)
        expected = np.column_stack((
            t, math.sin(theta) * math.cos(0.7) * np.exp(-(nb + mc + 0.5) * t),
            math.sin(theta) * math.sin(0.7) * np.exp(-(nb - mc + 0.5) * t),
            z_inf + (math.cos(theta) - z_inf) * np.exp(-(2 * nb + 1) * t)))
        assert rows.shape == (201, 4) and np.array_equal(rows[:, 0], t)
        assert np.max(np.abs(rows - expected)) <= 1e-14

    @pytest.mark.parametrize("nbar, m", [("1", "minimal"), ("0.5", "0.2")])
    def test_oscillator_rows_follow_the_closed_forms(self, nbar, m, tmp_path):
        out = tmp_path / "osc.csv"
        assert main(["oscillator", "--squeezing-n", nbar, "--squeezing-m", m,
                     "--phi", "0.7", "--out", str(out)]) == EXIT_OK
        header, rows = _table(out)
        assert header == "t,mean_x,mean_y,var_x,var_y,cov_xy"
        nb = float(nbar)
        mc = math.sqrt(nb * (nb + 1.0)) if m == "minimal" else float(m)
        t = np.linspace(0.0, 20.0, 201)
        decay = np.exp(-t)
        # the means decay at gamma_p / 2; from the vacuum's unit variances the
        # variances relax at gamma_p to the input field's, 2N + 2M + 1 and
        # 2N - 2M + 1, and the covariance stays at its fixed point, 0
        expected = np.column_stack((
            t, 2.0 * math.cos(0.7) * np.exp(-0.5 * t), 2.0 * math.sin(0.7) * np.exp(-0.5 * t),
            2 * nb + 2 * mc + 1 + (1 - (2 * nb + 2 * mc + 1)) * decay,
            2 * nb - 2 * mc + 1 + (1 - (2 * nb - 2 * mc + 1)) * decay, 0.0 * t))
        assert rows.shape == (201, 6) and np.array_equal(rows[:, 0], t)
        assert np.max(np.abs(rows - expected)) <= 1e-14

    def test_single_spin_trajectory(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["single-spin", "--squeezing-n", "0.5", "--theta", "0.5",
                     "--t-final", "2.0", "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,mean_x,mean_y,mean_z"
        # one row per time of a uniform 201-point grid on [0, --t-final]
        times = [float(l.split(",")[0]) for l in lines[1:]]
        assert times == np.linspace(0.0, 2.0, 201).tolist()
        last = [float(v) for v in lines[-1].split(",")]
        # transverse x component decays at gamma_p (N + M + 1/2)
        rate = 0.5 + math.sqrt(0.75) + 0.5
        assert last[1] == pytest.approx(math.exp(-rate * 2.0), rel=1e-6)

    def test_single_spin_in_a_bright_bath(self, tmp_path):
        # the inversion relaxes at 2N + 1 = 2e6 + 1, which the exact solution
        # evaluates at any step of the time grid
        out = tmp_path / "traj.csv"
        assert main(["single-spin", "--squeezing-n", "1e6", "--out", str(out)]) == EXIT_OK
        _, rows = _table(out)
        assert rows[-1, 3] == -1.0 / (2e6 + 1)

    def test_single_spin_squeezed_mean_in_a_bright_minimal_bath(self, tmp_path):
        # <sy> decays at N - M + 1/2 = 1 / (4 (N + 1/2 + M)), about 1.25e-11 at
        # N = 1e10, which the difference N - M would lose entirely
        out = tmp_path / "traj.csv"
        assert main(["single-spin", "--squeezing-n", "1e10", "--phi", "1.5",
                     "--t-final", "1e12", "--out", str(out)]) == EXIT_OK
        _, rows = _table(out)
        nbar = 1e10
        rate = 0.25 / (nbar + 0.5 + math.sqrt(nbar * (nbar + 1.0)))
        assert rows[-1, 2] / rows[0, 2] == pytest.approx(math.exp(-rate * 1e12), rel=1e-6)
        assert rate * 1e12 == pytest.approx(12.5, rel=1e-9)

    def test_oscillator_reaches_input_variances(self, tmp_path):
        out = tmp_path / "osc.csv"
        assert main(["oscillator", "--squeezing-n", "1.0",
                     "--t-final", "20.0", "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 201
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 20.0
        assert last[3] == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-6)
        assert last[4] == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-6)

    def test_steady_state_json(self, tmp_path):
        out = tmp_path / "ss.json"
        assert main(["steady-state", "--spins", "1", "--squeezing-n", "0.5",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["mean_z"] == pytest.approx(-0.5, abs=1e-9)

    def test_steady_state_with_a_slow_squeezed_mode(self, tmp_path):
        # the squeezed transverse rate is 6e-14 of the largest singular value
        out = tmp_path / "ss.json"
        assert main(["steady-state", "--spins", "1", "--squeezing-n", "1e6",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["mean_z"] == pytest.approx(-1.0 / (2e6 + 1), abs=2e-15)

    def test_pair_steady_state_is_pure(self, tmp_path):
        out = tmp_path / "ss2.json"
        assert main(["steady-state", "--spins", "2", "--squeezing-n", "2.0",
                     "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["purity"] == pytest.approx(1.0, abs=1e-9)


class TestVerifyCommand:
    def test_full_scope_passes(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert all(check["passed"] for check in report["checks"])
        assert all(check["wall_s"] >= 0.0 for check in report["checks"])
        assert report["max_positivity_violation"] < 1e-7

    def test_module_scope(self, capsys):
        assert main(["verify", "--scope", "moments"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["scope"] == "moments"

    def test_scopes_filter_the_check_table(self, monkeypatch):
        names = [check.name for check in verification.CHECKS]
        assert len(set(names)) == len(names)
        assert set(verification.SCOPES) == {"all"} | {name.split("/")[0] for name in names}
        stub = tuple(verification.Check(check.name, check.tolerance, lambda rng: 0.0)
                     for check in verification.CHECKS)
        monkeypatch.setattr(verification, "CHECKS", stub)
        for scope in verification.SCOPES:
            got = [check["name"] for check in verification.verify(scope)["checks"]]
            assert got == [name for name in names
                           if scope == "all" or name.startswith(scope + "/")]
