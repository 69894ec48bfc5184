"""Self-test of the correctness gate: rounding-level changes pass, real ones fail.

    PYTHONPATH=src python -m pytest -q bench/tests

The rounding model here is written from the quantities' definitions, not
from ``gate.references``: every field a cell is computed from moves by
``ULPS`` units in the last place of its norm, and derived cells are
recomputed from the moved ones.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402

ULPS = 16
DELTA = ULPS * np.finfo(float).eps
# route_d3 runs d = 3 at the default period 4 and time step 1/256.
CONFIG = {"volume": (2.0 * math.pi * 4.0) ** 3, "dt": 1.0 / 256.0}
FILES = sorted(
    (path.parent.name, path.name) for path in gate.BASELINE.glob("*/*.csv")
)


def _fmt(value: float) -> str:
    return f"{value:.16e}"


def _flip(label: str) -> str:
    """The direction label of -e."""
    return "(" + " ".join(f"{-float(c):+.3f}" for c in label[1:-1].split()) + ")"


def rounded(name: str, body: list) -> list:
    """``body`` with every field moved by a few ulps of its norm."""
    header, rows = body[0], [list(row) for row in body[1:]]
    col = {c: i for i, c in enumerate(header)}
    if name.startswith("picard_amp"):
        sup = [float(row[col["sup_hsigma0"]]) for row in rows]
        diff = [float(row[col["diff_hsigma0"]]) for row in rows]
        data_norm = diff[0] / float(rows[0][col["ratio"]])
        moved = [d + DELTA * s for d, s in zip(diff, sup)]
        for row, s, d, prev in zip(rows, sup, moved, [data_norm] + moved[:-1]):
            row[col["sup_hsigma0"]] = _fmt(s * (1.0 + DELTA))
            row[col["diff_hsigma0"]] = _fmt(d)
            row[col["ratio"]] = _fmt(d / prev)
        return [header] + rows
    field = math.sqrt(CONFIG["volume"])
    if name == "compare.csv":
        for row in rows:
            row[col["h1_distance"]] = _fmt(float(row[col["h1_distance"]]) + DELTA * field)
        return [header] + rows
    if name == "gronwall.csv":
        energy = np.array([float(row[col["energy"]]) for row in rows])
        energy = (np.sqrt(energy) + DELTA * field) ** 2
        de = (-energy[4:] + 8.0 * energy[3:-1] - 8.0 * energy[1:-3] + energy[:-4]) / (
            12.0 * CONFIG["dt"]
        )
        rate = np.full(energy.shape, np.nan)
        rate[2:-2] = de / energy[2:-2]
        for row, e, r in zip(rows, energy, rate):
            row[col["energy"]] = _fmt(e)
            row[col["rate"]] = _fmt(r)
        return [header] + rows
    if name == "lemma_diagnostics.csv":
        total, xk = {}, {}
        for member, k, quantity, _, value in rows:
            if quantity == "Xk":
                xk[member, k] = float(value)
                total[member] = total.get(member, 0.0) + float(value) ** 2
        maxima = {}
        for row in rows:
            member, k, quantity, direction, value = row
            norm = math.sqrt(total.get(member, 0.0))
            if quantity == "Xk":
                row[4] = _fmt(float(value) + DELTA * norm)
            elif member == "max":
                row[4] = _fmt(maxima[k, quantity])
            elif quantity in ("R1", "R2", "R3", "R4"):
                moved = float(value) / (1.0 + DELTA * norm / xk[member, k])
                maxima[k, quantity] = max(maxima.get((k, quantity), 0.0), moved)
                row[4] = _fmt(moved)
            else:
                row[4] = _fmt(float(value) * (1.0 + DELTA))
            if direction.startswith("("):
                row[3] = _flip(direction)
        return [header] + rows
    for row in rows:
        for i, cell in enumerate(row):
            if header[i] not in ("m", "n", "k", "phi_id", "passed", "check"):
                row[i] = _fmt(float(cell) * (1.0 + DELTA))
    return [header] + rows


@pytest.mark.parametrize("workload,name", FILES)
def test_baseline_matches_itself(workload, name):
    body = gate.read_body(gate.BASELINE / workload / name)
    assert gate.compare_bodies(name, body, body, CONFIG) == []


@pytest.mark.parametrize("workload,name", FILES)
def test_rounding_level_change_passes(workload, name):
    body = gate.read_body(gate.BASELINE / workload / name)
    moved = rounded(name, body)
    assert moved != body
    assert gate.compare_bodies(name, moved, body, CONFIG) == []


@pytest.mark.parametrize(
    "workload,name,row,column,change",
    [
        ("chart_sweep", "picard_amp4.csv", 3, "diff_hsigma0", 1e-9),
        ("chart_sweep", "picard_amp2.csv", 2, "ratio", 1e-7),
        ("route_d3", "compare.csv", 64, "h1_distance", 1e-5),
        ("route_d3", "gronwall.csv", 64, "energy", 1e-5),
        ("route_d3", "evolve.csv", 64, "t", 1e-9),
        ("lemma_norms", "lemma_diagnostics.csv", 1, "value", 1e-9),
        ("lemma_norms", "lemma_diagnostics.csv", 3, "value", 1e-9),
        ("lemma_norms", "lemma_diagnostics.csv", 226, "value", 1e-9),
        ("lemma_norms", "linear_estimate.csv", 1, "fsigma_upper", 1e-9),
    ],
)
def test_real_change_fails(workload, name, row, column, change):
    body = gate.read_body(gate.BASELINE / workload / name)
    moved = [list(r) for r in body]
    i = body[0].index(column)
    moved[row][i] = _fmt(float(body[row][i]) * (1.0 + change))
    problems = gate.compare_bodies(name, moved, body, CONFIG)
    assert len(problems) == 1 and f"row {row} {column}" in problems[0]


def test_direction_labels_compare_as_axes():
    header = ["trajectory_id", "k", "quantity", "direction", "value"]
    base = [header, ["a", "2", "Xk", "-", "1.0"], ["a", "2", "R2", "(+0.000 +1.000)", "0.5"]]
    same_axis = [header, base[1], ["a", "2", "R2", "(-0.000 -1.000)", "0.5"]]
    other_axis = [header, base[1], ["a", "2", "R2", "(+1.000 +0.000)", "0.5"]]
    assert gate.compare_bodies("lemma_diagnostics.csv", same_axis, base, CONFIG) == []
    assert gate.compare_bodies("lemma_diagnostics.csv", other_axis, base, CONFIG) != []
