"""Output checks for one benchmark call.

Every check returns a list of problems; an empty list means the call's
output is correct.  Analytic sweep rows are checked for shape, finiteness and
sign only, so that a change to the closed forms does not fail the benchmark;
simulated rows must also fall inside the reference band (see ``in_band``).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import OPTIMIZE_N, Workload

# A simulated cell passes when it lies within BAND_Z standard deviations of the
# reference mean, the deviation taken across the reference seeds, so it covers
# both Monte-Carlo noise and the seed's random surface state.  Edge-user cells
# owe most of their spread to the surface state and are skewed (gamma-like, up
# to 0.64 sd/mean); 8 sd keeps a spurious failure below about 1e-4 per seed.
BAND_Z = 8.0
# The final PGAM objective may fall at most this share below the reference.
OBJECTIVE_REL = 0.01
STATE_HEADER = ["element", "rho_t", "rho_r", "phi_t", "phi_r"]
TRACE_HEADER = ["iteration", "objective"]


def read_sweep(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def cell_key(row: dict) -> str:
    return f"{row['sweep_var']}|{row['value']}|{row['role']}"


def in_band(value: float, ref: dict) -> bool:
    return abs(value - ref["mean"]) <= BAND_Z * ref["sd"]


def check_sweep(wl: Workload, path: Path, seed: int, validate_table, band: dict | None) -> list[str]:
    """Schema, shape, finiteness, sign and (when band is given) the statistical band."""
    try:
        validate_table(str(path))
        rows = read_sweep(path)
    except (OSError, ValueError, KeyError, StopIteration) as exc:
        return [f"{path.name}: unreadable table: {exc}"]
    problems = []
    expected = {(*cell, method) for cell in wl.cells() for method in ("analytic", "simulated")}
    seen = [(r["sweep_var"], r["value"], r["role"], r["method"]) for r in rows]
    if len(rows) != len(expected) or set(seen) != expected:
        problems.append(f"{path.name}: expected {len(expected)} rows over the workload grid, got {len(rows)}")
    for r in rows:
        where = f"{path.name}: {cell_key(r)} {r['method']}"
        try:
            rate = float(r["rate"])
            err = float(r["stderr"]) if r["stderr"] else 0.0
        except ValueError:
            problems.append(f"{where}: non-numeric rate or stderr")
            continue
        if not (math.isfinite(rate) and rate >= 0.0 and math.isfinite(err) and err >= 0.0):
            problems.append(f"{where}: rate {rate!r} / stderr {err!r} not finite and >= 0")
        elif r["seed"] != str(seed):
            problems.append(f"{where}: seed column {r['seed']!r} != {seed}")
        elif band is not None and r["method"] == "simulated":
            ref = band.get(cell_key(r))
            if ref is None or not in_band(rate, ref):
                problems.append(f"{where}: {rate!r} outside the reference band {ref}")
    return problems


def rate_gap(path: Path) -> float:
    """Largest |analytic - simulated| rate over the sweep's cells, in bits/s/Hz."""
    by_cell: dict[str, dict] = {}
    for r in read_sweep(path):
        by_cell.setdefault(cell_key(r), {})[r["method"]] = float(r["rate"])
    return max(abs(v["analytic"] - v["simulated"]) for v in by_cell.values())


def read_trace(path: Path) -> list[float]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != TRACE_HEADER:
        raise ValueError("bad trace header")
    if [int(r[0]) for r in rows[1:]] != list(range(len(rows) - 1)):
        raise ValueError("trace iterations are not 0, 1, 2, ...")
    return [float(r[1]) for r in rows[1:]]


def check_optimize(state_path: Path, trace_path: Path, reference: dict | None) -> list[str]:
    """Energy split, phase range, monotone finite trace and (when given) the objective floor."""
    problems = []
    try:
        with open(state_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        trace = read_trace(trace_path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable optimize output: {exc}"]
    if not rows or rows[0] != STATE_HEADER or len(rows) != OPTIMIZE_N + 1:
        return [f"{state_path.name}: expected the header and {OPTIMIZE_N} element rows"]
    for i, row in enumerate(rows[1:]):
        try:
            element, rho_t, rho_r, phi_t, phi_r = int(row[0]), *map(float, row[1:])
        except ValueError:
            problems.append(f"{state_path.name}: row {i} is not numeric")
            continue
        if element != i:
            problems.append(f"{state_path.name}: row {i} names element {element}")
        if not (0.0 <= rho_t <= 1.0 and 0.0 <= rho_r <= 1.0 and abs(rho_t + rho_r - 1.0) <= 1e-12):
            problems.append(f"{state_path.name}: element {i} breaks rho_t + rho_r = 1")
        if not all(0.0 <= p < 2.0 * math.pi for p in (phi_t, phi_r)):
            problems.append(f"{state_path.name}: element {i} has a phase outside [0, 2pi)")
    if not trace or not all(math.isfinite(v) for v in trace):
        problems.append(f"{trace_path.name}: empty or non-finite trace")
    elif any(b < a for a, b in zip(trace, trace[1:])):
        problems.append(f"{trace_path.name}: objective trace is not monotone")
    elif reference is not None and trace[-1] < reference["objective"] * (1.0 - OBJECTIVE_REL):
        problems.append(f"{trace_path.name}: objective {trace[-1]!r} below reference {reference['objective']!r}")
    return problems


def check_identical(first: list[Path], again: list[Path]) -> list[str]:
    """The reproducibility contract: one seed gives byte-identical outputs."""
    return [f"{b.name} differs from the first call's bytes"
            for a, b in zip(first, again) if a.read_bytes() != b.read_bytes()]
