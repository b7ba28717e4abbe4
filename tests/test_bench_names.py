"""The package names the benchmark's traced run wraps must stay.

``bench/spans.py`` replaces package functions and methods, found with
``getattr``, by span-recording wrappers. If a change to the package removes
or renames one of them, every operation of a ``--trace 1`` run fails, and
the tests under ``bench/`` are not part of the tier-1 suite, so this test
reads the benchmark's list of targets and resolves each of them here.
"""

import importlib.util
from pathlib import Path

from squeezelax import cli
from squeezelax.lindblad import Liouvillian

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_spans()._targets()
    assert targets
    missing = [name for name, owner, attr, _extract in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_dimension_the_span_attributes_read_resolves():
    # the apply and steady_state spans record the generator's dim
    assert isinstance(Liouvillian.dim, property)


def test_fig4b_calls_the_traced_covariance_rhs_and_a_functional(capsys):
    # the moment-curves workload counts moments.cov_rhs_calls and
    # spin_algebra.functional_calls on fig4b, and bench/test_bench.py asserts both > 0
    spans = _load_spans()
    recorder = spans.Recorder(full=True)
    assert recorder.run(lambda: cli.main(["fig4b", "--spins", "3"])) == cli.EXIT_OK
    capsys.readouterr()
    names = [span[spans.NAME] for span in recorder.spans]
    assert "moments.collective_cov_rhs" in names
    assert any(name in spans.FUNCTIONALS for name in names)
