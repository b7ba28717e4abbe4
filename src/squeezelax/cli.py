"""Command-line interface: figure datasets, scenario runs and verification.

Exit codes: 0 success, 2 configuration error, 3 verification failure,
4 integrator, truncation or steady-state solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .figures import (FigureDataset, fig3a_vector_field, fig3b_ellipses, fig4a_rates,
                      fig4b_variance_derivatives)
from .lindblad import CutoffError, DegenerateSteadyStateError, spin_liouvillian, steady_state
from .moments import (OscillatorMoments, SpinMoments, SqueezingParams, gardiner_solution,
                      minimal_m, oscillator_solution)
from .ode import IntegrationError, _output_times
from .spin_algebra import DickeSpace, QuantumState, build_collective_ops, expectation
from .verification import SCOPES, verify

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_INTEGRATOR = 4


class ConfigError(ValueError):
    pass


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {kind.__name__} list {text!r}") from exc


def _squeezing(args) -> SqueezingParams:
    nbar = args.squeezing_n
    if args.squeezing_m == "minimal":
        m = minimal_m(nbar)
    else:
        try:
            m = float(args.squeezing_m)
        except ValueError as exc:
            raise ConfigError(f"--squeezing-m must be a number or 'minimal', "
                              f"got {args.squeezing_m!r}") from exc
    try:
        return SqueezingParams(nbar=nbar, m_corr=m, gamma_p=1.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(dataset: FigureDataset, args) -> int:
    _write(dataset.to_csv() if args.format == "csv" else dataset.to_json(), args.out)
    return EXIT_OK


def _subcommand(sub, name: str, summary: str, func, default_n: float, theta: str | None = None,
                phi: bool = True, squeezing_m: bool = False, fmt: bool = True):
    """A subparser with the bath and output flags that ``func`` reads, and no others."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(func=func)
    parser.add_argument("--squeezing-n", type=float, default=default_n,
                        help="mean reservoir photon number")
    if squeezing_m:
        parser.add_argument("--squeezing-m", default="minimal",
                            help="squeezing correlation, or 'minimal'")
    if theta is not None:
        parser.add_argument("--theta", default=theta,
                            help="comma-separated polar angles in units of pi")
    if phi:
        parser.add_argument("--phi", type=float, default=None,
                            help="azimuthal angle (radians); default is a grid")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if fmt:
        parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _thetas(args) -> list[float]:
    """The --theta list in radians; an empty list is a configuration error."""
    values = _parse_list(args.theta)
    if not values:
        raise ConfigError("--theta must name at least one angle")
    return [t * math.pi for t in values]


def _phi(args, default: float | None = None) -> float | None:
    """The --phi angle, or ``default`` when it is not given; a non-finite angle is a configuration error."""
    if args.phi is None:
        return default
    if not math.isfinite(args.phi):
        raise ConfigError(f"--phi must be finite, got {args.phi}")
    return args.phi


def _phi_grid(args, points: int) -> list[float]:
    phi = _phi(args)
    if phi is not None:
        return [phi]
    return [2 * math.pi * k / points for k in range(points)]


def _spins_list(text: str, expand_single: bool = False) -> list[int]:
    values = _parse_list(text, int)
    if not values or any(v < 1 for v in values):
        raise ConfigError("--spins must be positive integers")
    if expand_single and len(values) == 1:
        return list(range(1, values[0] + 1))
    return values


def cmd_fig3a(args) -> int:
    n_list = _spins_list(args.spins)
    thetas = _thetas(args)
    dataset = fig3a_vector_field(n_list, args.squeezing_n, thetas, _phi_grid(args, 16))
    return _emit(dataset, args)


def cmd_fig3b(args) -> int:
    n_list = _spins_list(args.spins)
    thetas = _thetas(args)
    dataset = fig3b_ellipses(n_list, args.squeezing_n, thetas, _phi_grid(args, 12))
    return _emit(dataset, args)


def cmd_fig4a(args) -> int:
    n_values = _spins_list(args.spins, expand_single=True)
    thetas = _thetas(args)
    return _emit(fig4a_rates(n_values, args.squeezing_n, thetas), args)


def cmd_fig4b(args) -> int:
    n_values = _spins_list(args.spins, expand_single=True)
    thetas = _thetas(args)
    phi = _phi(args, 0.0)
    dataset = fig4b_variance_derivatives(n_values, args.squeezing_n, thetas, phi=phi)
    return _emit(dataset, args)


def _emit_trajectory(figure: str, columns: list[str], solution, metadata: dict, args) -> int:
    """Emit solution(times), one row per time of a 201-point grid on [0, --t-final]."""
    with np.errstate(invalid="ignore"):  # _output_times rejects the nan times of --t-final inf
        times = _output_times(np.linspace(0.0, args.t_final, 201))
    rows = [(t,) + tuple(state) for t, state in zip(times, solution(times))]
    return _emit(FigureDataset(figure, ["t"] + columns, rows, metadata), args)


def cmd_single_spin(args) -> int:
    params = _squeezing(args)
    thetas = _thetas(args)
    if len(thetas) != 1:
        raise ConfigError("single-spin expects a single --theta value")
    theta = thetas[0]
    phi = _phi(args, 0.0)
    m0 = SpinMoments(math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta))
    return _emit_trajectory("single-spin", ["mean_x", "mean_y", "mean_z"],
                            lambda t: gardiner_solution(m0, params, t),
                            {"squeezing_nbar": params.nbar, "squeezing_m": params.m_corr,
                             "theta": theta, "phi": phi}, args)


def cmd_oscillator(args) -> int:
    params = _squeezing(args)
    phi = _phi(args, 0.0)
    m0 = OscillatorMoments(2.0 * math.cos(phi), 2.0 * math.sin(phi))
    return _emit_trajectory("oscillator", ["mean_x", "mean_y", "var_x", "var_y", "cov_xy"],
                            lambda t: oscillator_solution(m0, params, t),
                            {"squeezing_nbar": params.nbar, "squeezing_m": params.m_corr,
                             "phi": phi}, args)


def cmd_steady_state(args) -> int:
    params = _squeezing(args)
    n_list = _spins_list(args.spins)
    if len(n_list) != 1:
        raise ConfigError("steady-state expects a single --spins value")
    n = n_list[0]
    ops = build_collective_ops(DickeSpace(n))
    rho = steady_state(spin_liouvillian(ops, params))
    state = QuantumState(rho, "matrix")
    payload = {"n": n, "squeezing_nbar": params.nbar, "squeezing_m": params.m_corr,
               "mean_x": expectation(ops.sx, state).real,
               "mean_y": expectation(ops.sy, state).real,
               "mean_z": expectation(ops.sz, state).real,
               "purity": expectation(rho, state).real}
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify(scope=args.scope, seed=args.seed)
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezelax",
        description="Collective spin relaxation in a broadband squeezed bath")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "fig3a", "decay vector field on the lower hemisphere", cmd_fig3a,
                    0.5, theta="0.55,0.65,0.75,0.85,0.95")
    p.add_argument("--spins", default="1,5,15")

    p = _subcommand(sub, "fig3b", "uncertainty ellipses before/after a short evolution",
                    cmd_fig3b, 5.0, theta="0.55,0.75,0.87")
    p.add_argument("--spins", default="1,5,15")

    p = _subcommand(sub, "fig4a", "transverse decay rates versus spin count", cmd_fig4a,
                    0.05, theta="0.55,0.75,0.87", phi=False)
    p.add_argument("--spins", default="40", help="n_max, or an explicit list")

    p = _subcommand(sub, "fig4b", "covariance derivatives versus spin count", cmd_fig4b,
                    0.05, theta="0.55,0.75,0.87")
    p.add_argument("--spins", default="40", help="n_max, or an explicit list")

    p = _subcommand(sub, "single-spin", "Gardiner mean-value trajectory", cmd_single_spin,
                    0.5, theta="0.5", squeezing_m=True)
    p.add_argument("--t-final", type=float, default=3.0)

    p = _subcommand(sub, "oscillator", "oscillator moment trajectory", cmd_oscillator,
                    1.0, squeezing_m=True)
    p.add_argument("--t-final", type=float, default=20.0)

    p = _subcommand(sub, "steady-state", "exact collective steady state", cmd_steady_state,
                    0.5, phi=False, squeezing_m=True, fmt=False)
    p.add_argument("--spins", default="2")

    p = sub.add_parser("verify", help="oracle-vs-formula and invariant checks")
    p.add_argument("--scope", choices=SCOPES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` and kept: parsing never changes it.

    Building every subcommand's parser takes about a millisecond, which a
    caller that runs ``main`` once per operation would pay each time.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateSteadyStateError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught before the config branch
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, CutoffError) as exc:
        print(f"integration error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


if __name__ == "__main__":
    sys.exit(main())
