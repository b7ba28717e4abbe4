"""Span recording around the public calls of squeezelax, from outside the package.

A Recorder replaces public functions and methods of squeezelax with thin
wrappers that append one span per call: name, parent span, start, end and an
optional attribute taken from the call (a dimension, a byte count, the
trajectory diagnostics). Nothing inside the package is edited; the wrappers
are installed on the module attributes and classes and removed afterwards.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans under a root add up to the root's
duration exactly.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# Span record layout: [name, parent index (-1 for none), start, end, attribute]
NAME, PARENT, START, END, ATTR = range(5)

ROOT = "bench.op"
FUNCTIONALS = ("spin_algebra.expectation", "spin_algebra.sym_covariance",
               "spin_algebra.third_moment")
MODULES = ("bench", "cli", "figures", "lindblad", "ode", "moments", "spin_algebra")


def _evolve_attr(_args, traj):
    return {"diagnostics": traj.diagnostics,
            "bytes": int(traj.states.nbytes + traj.times.nbytes)}


def _dim_attr(args, _result):
    return int(args[0].dim)


def _nbytes_attr(_args, result):
    return int(result.nbytes)


def _csv_attr(_args, text):
    return len(text.encode())


def _targets():
    """(span name, owner, attribute, attribute extractor) for every traced call."""
    from squeezelax import cli, figures, lindblad, moments, ode, spin_algebra

    return [
        ("cli.main", cli, "main", None),
        ("figures.fig3b_ellipses", figures, "fig3b_ellipses", None),
        ("figures.fig4a_rates", figures, "fig4a_rates", None),
        ("figures.fig4b_variance_derivatives", figures,
         "fig4b_variance_derivatives", None),
        ("figures.to_csv", figures.FigureDataset, "to_csv", _csv_attr),
        ("lindblad.oscillator_oracle", lindblad, "oscillator_oracle", None),
        ("lindblad.evolve", lindblad, "evolve", _evolve_attr),
        ("lindblad.steady_state", lindblad, "steady_state", _dim_attr),
        ("lindblad.superoperator", lindblad.Liouvillian, "superoperator",
         _nbytes_attr),
        ("lindblad.apply", lindblad.Liouvillian, "apply", _dim_attr),
        ("ode.integrate", ode, "integrate", None),
        ("moments.collective_cov_rhs", moments, "collective_cov_rhs", None),
        ("moments.spin_moments_from_state", moments, "spin_moments_from_state", None),
        ("spin_algebra.build_collective_ops", spin_algebra, "build_collective_ops",
         None),
        ("spin_algebra.spin_coherent_state", spin_algebra, "spin_coherent_state",
         None),
        ("spin_algebra.expectation", spin_algebra, "expectation", None),
        ("spin_algebra.sym_covariance", spin_algebra, "sym_covariance", None),
        ("spin_algebra.third_moment", spin_algebra, "third_moment", None),
    ]


class Recorder:
    """Collects spans for one operation while its wrappers are installed.

    With ``full=False`` only ``evolve`` is wrapped, which is enough to read
    every trajectory's diagnostics for the correctness gate at negligible
    cost (one span per trajectory). With ``full=True`` every target above is
    wrapped and ``ode.integrate`` also wraps the RHS it is given, so RK45
    overhead can be separated from the RHS calls.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if attr is not None:
                span[ATTR] = attr(args, result)
            return result

        return traced

    def _wrap_integrate(self, fn):
        # integrate calls itself once to move complex states onto a real
        # array; that inner call is part of the outer span, not a new one.
        traced = self._wrap("ode.integrate", fn, None)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def integrate(rhs, *args, **kwargs):
            if stack and spans[stack[-1]][NAME] == "ode.integrate":
                return fn(rhs, *args, **kwargs)
            return traced(self._wrap("ode.rhs", rhs, None), *args, **kwargs)

        return integrate

    def install(self):
        targets = _targets()
        if not self.full:
            targets = [t for t in targets if t[0] == "lindblad.evolve"]
        modules = [m for key, m in sys.modules.items()
                   if key == "squeezelax" or key.startswith("squeezelax.")]
        for name, owner, attr_name, attr in targets:
            original = getattr(owner, attr_name)
            if name == "ode.integrate":
                wrapper = self._wrap_integrate(original)
            else:
                wrapper = self._wrap(name, original, attr)
            if isinstance(owner, type):
                owners = [owner]
            else:
                # the package imports functions by name, so every module that
                # holds a reference to the original gets the wrapper
                owners = [m for m in modules if getattr(m, attr_name, None) is original]
            for holder in owners:
                self._restore.append((holder, attr_name, original))
                setattr(holder, attr_name, wrapper)

    def uninstall(self):
        for holder, attr_name, original in reversed(self._restore):
            setattr(holder, attr_name, original)
        self._restore.clear()

    def run(self, fn):
        """Call fn() under a root span with the wrappers installed."""
        root = self._wrap(ROOT, fn, None)
        self.install()
        try:
            return root()
        finally:
            self.uninstall()


def span_cost_s(calls: int = 20000) -> float:
    """Time one span adds to a call, measured on a wrapped no-op.

    Tracing overhead is estimated as spans times this cost: the difference
    between a traced and an untraced operation is smaller than the
    run-to-run noise of a shared machine.
    """
    def noop():
        return None

    wrapped = Recorder(full=True)._wrap("noop", noop, lambda _args, _result: 0)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced operation, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i][END] - spans[i][START] for i in idx(name))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def apply_p50_us(dim):
        durs = [spans[i][END] - spans[i][START] for i in idx("lindblad.apply")
                if spans[i][ATTR] == dim]
        return 1e6 * statistics.median(durs) if durs else 0.0

    def steady_s(n):
        return sum(spans[i][END] - spans[i][START] for i in idx("lindblad.steady_state")
                   if spans[i][ATTR] == n + 1)

    evolves = [spans[i][ATTR] for i in idx("lindblad.evolve")]
    accepted = sum(e["diagnostics"]["accepted"] for e in evolves)
    rejected = sum(e["diagnostics"]["rejected"] for e in evolves)
    functional = [i for name in FUNCTIONALS for i in idx(name)]
    outer_functional = [i for i in functional
                        if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] not in FUNCTIONALS]
    oracle_spans = set(idx("lindblad.oscillator_oracle"))

    metrics = {
        "ode.rhs_evals": sum(e["diagnostics"]["rhs_evals"] for e in evolves),
        "ode.accepted_steps": accepted,
        "ode.rejected_steps": rejected,
        "ode.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "ode.integrate_self_s": self_total("ode.integrate"),
        "lindblad.apply_calls": len(idx("lindblad.apply")),
        "lindblad.apply_s": total("lindblad.apply"),
        "lindblad.apply_us_p50.dim16": apply_p50_us(16),
        "lindblad.apply_us_p50.dim59": apply_p50_us(59),
        "lindblad.evolve_self_s": self_total("lindblad.evolve"),
        "lindblad.trajectory_bytes": sum(e["bytes"] for e in evolves),
        "lindblad.superoperator_s": total("lindblad.superoperator"),
        "lindblad.superoperator_bytes": sum(spans[i][ATTR] for i in idx("lindblad.superoperator")),
        "lindblad.steady_state_s.n10": steady_s(10),
        "lindblad.steady_state_s.n20": steady_s(20),
        "lindblad.steady_state_s.n40": steady_s(40),
        "lindblad.cutoffs_tried": sum(1 for i in idx("lindblad.evolve")
                                      if spans[i][PARENT] in oracle_spans),
        "spin_algebra.functional_calls": len(functional),
        "spin_algebra.functional_s": sum(spans[i][END] - spans[i][START]
                                         for i in outer_functional),
        "spin_algebra.build_s": total("spin_algebra.build_collective_ops"),
        "moments.cov_rhs_calls": len(idx("moments.collective_cov_rhs")),
        "moments.cov_rhs_self_s": self_total("moments.collective_cov_rhs"),
        "figures.to_csv_s": total("figures.to_csv"),
        "figures.csv_bytes": sum(spans[i][ATTR] for i in idx("figures.to_csv")),
        "trace.spans": len(spans),
        "trace.wall_s": total(ROOT),
    }
    for module in MODULES:
        metrics[f"self_s.{module}"] = sum(own[i] for i, s in enumerate(spans)
                                          if _module(s[NAME]) == module)
    return metrics
