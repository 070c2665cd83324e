"""The benchmark's own tests: metric names, output checks and trace robustness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import tracer
from workloads import OPTIMIZE_N, WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_names_its_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _sweep_csv(path, wl, seed=7, corrupt=None):
    """A well-formed table over the workload grid; corrupt(rows) may damage it."""
    rows = [[*cell, method, repr(0.5), "" if method == "analytic" else repr(0.01), str(seed)]
            for cell in wl.cells() for method in ("analytic", "simulated")]
    if corrupt:
        corrupt(rows)
    path.write_text("sweep_var,value,role,method,rate,stderr,seed\n" + "".join(",".join(r) + "\n" for r in rows))
    return path


def _set(col, value, method="simulated"):
    def corrupt(rows):
        next(r for r in rows if r[3] == method)[col] = value
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _set(4, "nan"), _set(4, "-0.1"), _set(4, "inf", "analytic"), _set(6, "8"), _set(4, ""),
    lambda rows: rows.pop(), lambda rows: rows.append(list(rows[0])),
], ids=["nan", "negative", "inf-analytic", "seed", "missing", "short", "duplicate"])
def test_corrupted_sweep_is_rejected(tmp_path, corrupt):
    from starnoma.cli import validate_table

    wl = WORKLOADS["snr-sweep"]
    assert checks.check_sweep(wl, _sweep_csv(tmp_path / "ok.csv", wl), 7, validate_table, None) == []
    assert checks.check_sweep(wl, _sweep_csv(tmp_path / "bad.csv", wl, corrupt=corrupt), 7, validate_table, None)


def test_simulated_row_outside_band_is_rejected(tmp_path):
    from starnoma.cli import validate_table

    wl = WORKLOADS["cluster-vs-pair"]
    path = _sweep_csv(tmp_path / "t.csv", wl)
    band = {"|".join(cell): {"mean": 0.5, "sd": 0.001} for cell in wl.cells()}
    assert checks.check_sweep(wl, path, 7, validate_table, band) == []
    band[next(iter(band))]["mean"] = 0.3
    assert len(checks.check_sweep(wl, path, 7, validate_table, band)) == 1


def _optimize_files(tmp_path, trace, rho_t=0.25, phi=1.0):
    state = tmp_path / "state.csv"
    state.write_text("element,rho_t,rho_r,phi_t,phi_r\n" + "".join(
        f"{n},{rho_t!r},0.75,{phi!r},0.5\n" for n in range(OPTIMIZE_N)))
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("iteration,objective\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(trace)))
    return state, trace_path


def test_optimize_check(tmp_path):
    assert checks.check_optimize(*_optimize_files(tmp_path, [0.1, 0.2, 0.2]), {"objective": 0.2}) == []
    assert checks.check_optimize(*_optimize_files(tmp_path, [0.1, 0.3, 0.2]), None)
    assert checks.check_optimize(*_optimize_files(tmp_path, [0.1, 0.15]), {"objective": 0.2})
    assert checks.check_optimize(*_optimize_files(tmp_path, [0.1], rho_t=0.3), None)
    assert checks.check_optimize(*_optimize_files(tmp_path, [0.1], phi=2 * math.pi), None)


def test_differing_bytes_are_rejected(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text("x\n")
    b.write_text("x\n")
    assert checks.check_identical([a], [b]) == []
    b.write_text("y\n")
    assert checks.check_identical([a], [b])


def test_missing_layer_function_is_noted_not_raised(monkeypatch):
    import starnoma.cli  # noqa: F401  loads every layer module
    from starnoma import rates

    for name, mod in list(sys.modules.items()):
        if name.startswith("starnoma"):
            for qualname in tracer.TRACED:
                fname = qualname.split(".")[1]
                if hasattr(mod, fname):
                    monkeypatch.setattr(mod, fname, getattr(mod, fname))
    monkeypatch.delattr(rates, "surface_terms")
    rec = tracer.Recorder()
    notes = tracer.install(rec)
    assert notes == ["starnoma.rates.surface_terms not found; its metrics read 0"]
    rates.expectation_terms(starnoma.cli.baseline_config())
    metrics = tracer.layer_metrics(rec.spans, 0)
    assert metrics["rates.surface_terms_calls"] == 0
    assert metrics["rates.expectation_terms_calls"] == 1
    assert metrics["geometry.position_term_calls"] == 8
