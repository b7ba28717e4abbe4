"""Correctness gates applied to every benchmark operation.

Each gate returns a list of failure messages; an empty list means the
output passed. Datasets are compared by value against reference outputs
recorded from the seed commit (reference.json.gz, written by
record_reference.py), never by bytes, so a change that reorders arithmetic
can pass while one that changes the physics cannot.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json.gz"

# trajectory witnesses (no renormalization happens in the oracle)
MAX_TRACE_DRIFT = 1e-8
MAX_HERMITICITY = 1e-8
MIN_EIGENVALUE = -1e-7
# oscillator: final quadrature variances against the input-field variances
OSC_VARIANCE_TOL = 1e-6
# steady states
MAX_RESIDUAL = 1e-10
PURITY_TOL = 1e-8
STEADY_REF_TOL = 1e-8
# datasets: |value - reference| <= DATASET_ATOL + DATASET_RTOL * |reference|;
# tilt angles are compared modulo pi, the period of an ellipse orientation
DATASET_RTOL = 1e-7
DATASET_ATOL = 1e-9

# key columns identify a row; every other column is compared by value
KEY_COLUMNS = {
    "fig3b": ("system", "n", "theta", "phi", "stage"),
    "fig4a": ("n", "theta"),
    "fig4b": ("system", "n", "theta", "phi"),
}
TEXT_COLUMNS = ("system", "stage")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def trajectory_failures(diag: dict) -> list[str]:
    out = []
    if not diag["max_trace_drift"] <= MAX_TRACE_DRIFT:
        out.append(f"trace drift {diag['max_trace_drift']:.3e} > {MAX_TRACE_DRIFT:.0e}")
    if not diag["max_hermiticity_residual"] <= MAX_HERMITICITY:
        out.append(f"hermiticity residual {diag['max_hermiticity_residual']:.3e} "
                   f"> {MAX_HERMITICITY:.0e}")
    if not diag["min_eigenvalue"] >= MIN_EIGENVALUE:
        out.append(f"min eigenvalue {diag['min_eigenvalue']:.3e} < {MIN_EIGENVALUE:.0e}")
    return out


def oscillator_failures(final_state: np.ndarray, target: tuple[float, float]) -> list[str]:
    """Final quadrature variances of the oscillator against their fixed point."""
    dim = final_state.shape[0]
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)
    x = a + a.conj().T
    y = 1j * (a.conj().T - a)
    out = []
    for label, q, want in (("x", x, target[0]), ("y", y, target[1])):
        mean = np.trace(q @ final_state).real
        var = np.trace(q @ q @ final_state).real - mean ** 2
        if not abs(var - want) <= OSC_VARIANCE_TOL:
            out.append(f"var_{label} {var:.12g} differs from {want:.12g} "
                       f"by more than {OSC_VARIANCE_TOL:.0e}")
    return out


def steady_state_failures(rho: np.ndarray, residual: float, expect_pure: bool,
                          reference: dict, sz: np.ndarray) -> list[str]:
    """Residual, purity and reference moments of one steady state."""
    out = []
    if not residual <= MAX_RESIDUAL:
        out.append(f"residual {residual:.3e} > {MAX_RESIDUAL:.0e}")
    purity = float(np.trace(rho @ rho).real)
    mean_z = float(np.trace(sz @ rho).real)
    if expect_pure and not abs(purity - 1.0) <= PURITY_TOL:
        out.append(f"purity {purity:.15f} is not 1 within {PURITY_TOL:.0e}")
    for label, got in (("purity", purity), ("mean_z", mean_z)):
        want = reference[label]
        if not abs(got - want) <= STEADY_REF_TOL * max(1.0, abs(want)):
            out.append(f"{label} {got:.15g} differs from the reference {want:.15g}")
    return out


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a FigureDataset CSV; numbers become floats."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row {line!r} does not have {len(columns)} cells")
        rows.append([c if col in TEXT_COLUMNS else float(c)
                     for col, c in zip(columns, cells)])
    return columns, rows


def _key(figure: str, columns: list[str], row: list) -> tuple:
    out = []
    for col in KEY_COLUMNS[figure]:
        v = row[columns.index(col)]
        out.append(v if isinstance(v, str) else round(v, 12))
    return tuple(out)


def dataset_failures(figure: str, text: str, reference: dict, select) -> list[str]:
    """Compare a produced CSV with the reference rows that ``select`` keeps.

    ``select(row_dict)`` picks the reference rows that the run's inputs
    should produce; the produced rows must match those keys one to one.
    """
    try:
        columns, rows = parse_csv(text)
    except (ValueError, IndexError) as exc:
        return [f"{figure}: unreadable CSV: {exc}"]
    ref = reference[figure]
    if columns != ref["columns"]:
        return [f"{figure}: columns {columns} differ from {ref['columns']}"]
    expected = {}
    for row in ref["rows"]:
        if select(dict(zip(columns, row))):
            expected[_key(figure, columns, row)] = row
    got = {_key(figure, columns, row): row for row in rows}
    if len(got) != len(rows):
        return [f"{figure}: duplicate rows"]
    if set(got) != set(expected):
        missing = len(set(expected) - set(got))
        extra = len(set(got) - set(expected))
        return [f"{figure}: {missing} reference rows missing, {extra} unexpected rows"]
    out = []
    for key, row in got.items():
        want = expected[key]
        for col, a, b in zip(columns, row, want):
            if col in KEY_COLUMNS[figure]:
                continue
            if isinstance(b, str):
                bad = a != b
            else:
                diff = abs(math.remainder(a - b, math.pi) if col == "tilt" else a - b)
                bad = not diff <= DATASET_ATOL + DATASET_RTOL * abs(b)
            if bad:
                out.append(f"{figure} row {key}: {col} = {a!r}, reference {b!r}")
    return out
