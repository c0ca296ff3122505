"""Correctness gate: every measured output is checked before a run counts.

- Reference outputs (captured at `workloads.DEFAULT_SEED`) are compared
  column by column with relative tolerance REL_TOL; values whose magnitude
  is below ABS_FLOOR on both sides are rounding noise and compare equal.
- Diagnostic columns that are differences of nearly equal numbers
  (DIAGNOSTIC_BOUNDS) are not compared with the reference: at every seed they
  must stay under a stated bound instead.
- Outputs that do not depend on the workload seed are compared with the
  reference at every seed; for `estimate` that is the `p0` column.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_FLOOR = 1e-12

# Column -> largest allowed value, for every row at every seed.
# route_deviation: spread of the four QFI routes; at most 1.5e-6 on the
# generated configs of 12 seeds. norm_drift and eta_residual: at most 5.1e-14
# and 1.4e-15 on the generated dilations of 12 seeds, near-EP ones included.
DIAGNOSTIC_BOUNDS = {
    "route_deviation": 1e-5,
    "norm_drift": 1e-10,
    "eta_residual": 1e-10,
}
# Next to the exceptional point (ep_demo, alpha >= 0.78) the routes part by
# up to 5.8e-4 at late times: the adaptive quadrature stops at its node cap
# without converging (ROADMAP 4a). The bound there still fails a wrong answer.
NEAR_EP_ROUTE_DEVIATION = 1e-2
# Post-selecting the dilation recovers the direct evolution: 1 - fidelity.
FIDELITY_DEFECT_MAX = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as handle:
        return json.load(handle)


def write_reference(workload: str, outputs: dict) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(outputs, sort_keys=True, indent=0)
    path.write_bytes(gzip.compress(text.encode(), mtime=0))
    return path


def parse_csv(text: str):
    lines = text.splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) or math.isnan(y):
        return False
    scale = max(abs(x), abs(y))
    return scale < ABS_FLOOR or abs(x - y) <= REL_TOL * scale


def compare(name: str, got: str, ref: str, columns=None) -> list:
    """Differences between two CSVs, restricted to `columns` if given."""
    head, rows = parse_csv(got)
    ref_head, ref_rows = parse_csv(ref)
    if head != ref_head:
        return [f"{name}: header {head} != reference {ref_head}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    wanted = [i for i, col in enumerate(head)
              if (columns is None or col in columns) and col not in DIAGNOSTIC_BOUNDS]
    errors = []
    for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for i in wanted:
            if not _close(row[i], ref_row[i]):
                errors.append(f"{name} row {r} {head[i]}: {row[i]} != reference {ref_row[i]}")
    return errors[:5]


def check_bounds(name: str, text: str, near_ep: bool = False) -> list:
    head, rows = parse_csv(text)
    errors = []
    for i, col in enumerate(head):
        limit = DIAGNOSTIC_BOUNDS.get(col)
        if near_ep and col == "route_deviation":
            limit = NEAR_EP_ROUTE_DEVIATION
        if col == "fidelity":
            bad = [v for v in (row[i] for row in rows)
                   if v != "nan" and not 1.0 - float(v) <= FIDELITY_DEFECT_MAX]
            errors += [f"{name}: fidelity {v} below 1 - {FIDELITY_DEFECT_MAX:g}" for v in bad]
        elif limit is not None:
            bad = [v for v in (row[i] for row in rows)
                   if v != "nan" and not float(v) <= limit]
            errors += [f"{name}: {col} {v} above {limit:g}" for v in bad]
    return errors[:5]
