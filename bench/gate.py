"""Correctness gate for the CSV reports a workload pass writes.

At the baseline seed every CSV body (the file without its ``#`` comment
line, which carries a timestamp) must match the body stored under
``bench/baseline/<workload>/`` cell by cell; text cells match exactly.
A number ``a`` matches its baseline ``b`` when

    |a - b| <= REL_TOL * max(|a|, |b|, ref)

where ``ref`` is the magnitude of what the cell is computed from
(``references``). For a cell that is a difference of O(1) fields, or a
ratio over a near-empty shell, that is the field's norm rather than the
cell, so a change that only alters rounding passes:

* ``picard_amp<i>.csv``: ``diff_hsigma0`` against the row's iterate norm
  ``sup_hsigma0``; ``ratio = diff_n / diff_(n-1)`` with both relative
  errors propagated (``diff_0`` is the data norm);
* ``compare.csv`` ``h1_distance``: against sqrt(volume), the L2 norm of a
  unit-sphere field;
* ``gronwall.csv``: ``energy = ||q||^2`` with ``q`` resolved to that field
  floor, and ``rate`` propagated through its five-point stencil;
* ``lemma_diagnostics.csv``: ``Xk`` against the member's total shell norm,
  and R1-R4 (shell sums over ``Xk``) propagated through ``1 / Xk``. Direction
  labels compare as axes: ``e`` and ``-e`` give the same fibers, so which of
  the two wins a tie is rounding.

Cells that sit at rounding level by construction are held to their
invariant instead: ``evolve.csv`` ``norm_defect`` to ``10 * inner_tol`` and
``verify.csv`` ``value`` to each check's threshold.

At any seed the invariants, the row counts fixed by the config, and finite
numbers are checked; the converged Picard row must meet ``tol`` with a ratio
in [0, 1). ``check`` returns a list of problems; empty means the command's
outputs are correct.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-12
BASELINE = Path(__file__).resolve().parent / "baseline"
# Config fields the gate reads; the worker records them from the loaded config,
# together with the grid ``volume``.
CONFIG_KEYS = ("amplitudes", "T", "dt", "tol", "inner_tol", "snapshot_stride")


def command_files(cmd: str, config: dict) -> list:
    """CSV files a command writes into its output directory."""
    if cmd == "picard":
        return [f"picard_amp{i}.csv" for i in range(len(config["amplitudes"]))]
    return {
        "evolve": ["evolve.csv"],
        "compare": ["compare.csv", "gronwall.csv"],
        "verify": ["verify.csv"],
        "norms": ["lemma_diagnostics.csv", "linear_estimate.csv"],
    }[cmd]


def read_body(path) -> list:
    """Rows of a CSV report without its comment lines; row 0 is the header."""
    lines = Path(path).read_text().splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")]


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float, ref: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), ref)


def _axis(label: str):
    """A direction label such as ``(+0.707 -0.707)`` as an axis: e and -e agree."""
    if not (label.startswith("(") and label.endswith(")")):
        return None
    try:
        e = [float(c) for c in label[1:-1].split()]
    except ValueError:
        return None
    sign = next((math.copysign(1.0, c) for c in e if c != 0.0), 1.0)
    return tuple(sign * c for c in e)


def _same(cell: str, want: str, ref: float) -> bool:
    a, b = _num(cell), _num(want)
    if a is not None and b is not None:
        return _close(a, b, ref)
    return cell == want or (_axis(cell) is not None and _axis(cell) == _axis(want))


def _exempt(name: str, column: str) -> bool:
    return (name, column) in (("evolve.csv", "norm_defect"), ("verify.csv", "value"))


def references(name: str, expected: list, config: dict) -> list:
    """Per data row, ``{column: magnitude}`` the cell's rounding error scales with.

    Computed from the baseline body; a column without an entry uses the
    cell's own magnitude.
    """
    header, rows = expected[0], expected[1:]
    nums = {c: [_num(row[i]) for row in rows] for i, c in enumerate(header)}
    if name.startswith("picard_amp"):
        sup, diff = nums["sup_hsigma0"], nums["diff_hsigma0"]
        refs = []
        for s, d, prev, q in zip(sup, diff, [sup[0]] + diff[:-1], nums["ratio"]):
            ratio_ref = abs(q) * s * (1.0 / d + 1.0 / prev) if d and prev else math.inf
            refs.append({"diff_hsigma0": s, "ratio": ratio_ref})
        return refs
    field = math.sqrt(config["volume"])
    if name == "compare.csv":
        return [{"h1_distance": field} for _ in rows]
    if name == "gronwall.csv":
        energy = nums["energy"]
        e_ref = [2.0 * math.sqrt(abs(e)) * field + REL_TOL * field**2 for e in energy]
        refs = []
        for m, (e, q) in enumerate(zip(energy, nums["rate"])):
            stencil = max(e_ref[max(m - 2, 0) : m + 3])
            rate_ref = (abs(q) + 1.5 / config["dt"]) * stencil / e if e else math.inf
            refs.append({"energy": e_ref[m], "rate": rate_ref})
        return refs
    if name == "lemma_diagnostics.csv":
        # Rows of trajectory "max" repeat the largest member ratio per (k, R).
        xk, total, ratio_refs = {}, {}, {}
        for member, k, quantity, _, value in rows:
            if quantity == "Xk":
                xk[member, k] = float(value)
                total[member] = total.get(member, 0.0) + float(value) ** 2
        refs = []
        for member, k, quantity, _, value in rows:
            norm = math.sqrt(total.get(member, 0.0))
            if quantity == "Xk":
                refs.append({"value": norm})
            elif member == "max":
                candidates = ratio_refs.get((k, quantity, value), [0.0])
                refs.append({"value": max(candidates)})
            elif quantity in ("R1", "R2", "R3", "R4"):
                ref = 2.0 * abs(float(value)) * norm / xk[member, k]
                ratio_refs.setdefault((k, quantity, value), []).append(ref)
                refs.append({"value": ref})
            else:
                refs.append({})
        return refs
    return [{} for _ in rows]


def compare_bodies(name: str, body: list, expected: list, config: dict) -> list:
    if body[0] != expected[0]:
        return [f"{name}: header {body[0]} != {expected[0]}"]
    if len(body) != len(expected):
        return [f"{name}: {len(body) - 1} rows, baseline has {len(expected) - 1}"]
    refs = references(name, expected, config)
    problems = []
    for r, (row, want_row, ref) in enumerate(zip(body[1:], expected[1:], refs), start=1):
        for column, cell, want in zip(expected[0], row, want_row):
            if not _exempt(name, column) and not _same(cell, want, ref.get(column, 0.0)):
                problems.append(f"{name} row {r} {column}: {cell} != baseline {want}")
    return problems


def invariants(name: str, body: list, config: dict) -> list:
    header, rows = body[0], body[1:]
    if not rows:
        return [f"{name}: no data rows"]
    col = {c: [row[i] for row in rows] for i, c in enumerate(header)}
    nums = {c: [_num(v) for v in vals] for c, vals in col.items()}
    steps = round(config["T"] / config["dt"])
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{name}: {what}")

    if name.startswith("picard_amp"):
        index = int(name.removeprefix("picard_amp").removesuffix(".csv"))
        amplitude = config["amplitudes"][index]
        need(nums["n"] == [float(i) for i in range(1, len(rows) + 1)], "iterations not 1..N")
        need(all(map(math.isfinite, nums["sup_hsigma0"])), "non-finite sup norm")
        limit = config["tol"] * amplitude * (1 + 1e-9)
        need(nums["diff_hsigma0"][-1] < limit, f"last diff not below {limit:.3e}")
        need(0.0 <= nums["ratio"][-1] < 1.0, "converged ratio outside [0, 1)")
    elif name == "evolve.csv":
        need(len(rows) == steps + 1, f"{len(rows)} rows, expected {steps + 1}")
        need(max(nums["norm_defect"]) <= 10 * config["inner_tol"], "sphere constraint")
    elif name == "verify.csv":
        for check, value, threshold, passed in rows:
            need(passed == "true" and float(value) <= float(threshold), f"check {check} failed")
    elif name in ("compare.csv", "gronwall.csv"):
        need(len(rows) == steps + 1, f"{len(rows)} rows, expected {steps + 1}")
        values = nums["h1_distance" if name == "compare.csv" else "energy"]
        need(all(math.isfinite(v) and v >= 0.0 for v in values), "negative or non-finite")
    elif name == "lemma_diagnostics.csv":
        need(all(math.isfinite(v) and v >= 0.0 for v in nums["value"]), "bad ratio value")
        r1 = [v for q, v in zip(col["quantity"], nums["value"]) if q == "R1"]
        need(bool(r1) and max(r1) <= 1.0 + REL_TOL, "R1 above 1")
    elif name == "linear_estimate.csv":
        for fs, hs, ratio in zip(nums["fsigma_upper"], nums["hsigma"], nums["ratio"]):
            need(hs > 0.0 and _close(fs / hs, ratio), "ratio != fsigma_upper / hsigma")
    return problems


def snapshot_problems(cmd: str, out: Path, config: dict) -> list:
    """The snapshot files a command must leave behind."""
    if cmd == "evolve":
        steps = round(config["T"] / config["dt"])
        stride = config["snapshot_stride"]
        want = {f"evolve_{m:06d}.fld" for m in range(steps + 1) if m % stride == 0 or m == steps}
    elif cmd == "picard":
        want = {f"picard_amp{i}_final.fld" for i in range(len(command_files(cmd, config)))}
    else:
        return []
    missing = sorted(f for f in want if not (out / f).is_file())
    return [f"missing snapshot {f}" for f in missing]


def check(workload: str, cmd: str, out, config: dict, seed: int, baseline_seed: int) -> list:
    """Problems with the outputs ``cmd`` wrote into ``out`` (empty if correct)."""
    out = Path(out)
    problems = snapshot_problems(cmd, out, config)
    for name in command_files(cmd, config):
        path = out / name
        if not path.is_file():
            problems.append(f"missing {name}")
            continue
        body = read_body(path)
        if not body:
            problems.append(f"{name}: empty")
            continue
        try:
            problems += invariants(name, body, config)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"{name}: malformed report ({type(exc).__name__}: {exc})")
        if seed == baseline_seed:
            expected = read_body(BASELINE / workload / name)
            problems += compare_bodies(name, body, expected, config)
    return problems
