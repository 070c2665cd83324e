"""Benchmark of the starnoma CLI: end-to-end timings, output checks and a layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload snr-sweep --seed 1 --seconds 30 --trace 0

Each CLI call runs in a fresh interpreter (``child.py``), one process at a
time, with the BLAS thread variables set to 1.  A run first starts five
interpreters that only import the CLI (set-up probes), then repeats the CLI
call, always with the same seed, while the next call is expected to end
within --seconds of the start.  At least three calls are made, so a run
whose calls are slow (cluster-vs-pair, about 15 s each) lasts longer than
--seconds.  With --trace 0 the last stdout line reports
the end-to-end metrics; with --trace 1, untraced and traced calls alternate
and it reports the per-layer metrics.  Every call's output is checked; a call
that exits non-zero or fails a check counts in ``failed``.  The lines above the
JSON line are a readable summary, and the full record with its manifest is
written to .perfbench_work/.  --smoke runs tiny trial counts and skips the
reference band, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_identical, check_optimize, check_sweep, rate_gap, read_trace
from manifest import THREAD_VARS, build_manifest
from tracer import layer_metrics, median_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
# At least three calls, so the median is not an average of two and the
# byte-identity check compares more than one pair.
MIN_CALLS = 3
SETUP_PROBES = 5
# Every process the benchmark starts must end within this many seconds of its start.
HARD_LIMIT_S = 170.0
MAX_PRINTED = 10

# Units of the JSON metrics come from BENCHMARK.json; the summary-only values are listed here.
SUMMARY_UNITS = {"failed_frac": "fraction", "trials_per_s": "1/s", "rate_gap": "bits/s/Hz",
                 "objective": "bits/s/Hz"}


class Runner:
    """Starts child processes one at a time and collects their timings."""

    def __init__(self, work: Path, hard_deadline: float):
        self.work = work
        self.hard_deadline = hard_deadline
        self.env = {**os.environ, **{v: "1" for v in THREAD_VARS}, "PYTHONPATH": str(ROOT / "src")}

    def spawn(self, tag: str, argv: list[str] | None, trace: bool) -> tuple[dict | None, str]:
        """Run one child; returns (timings, problem) with exactly one of them set."""
        call_dir = self.work / tag
        call_dir.mkdir(parents=True, exist_ok=True)
        spec = {"argv": argv, "trace": trace, "result": str(call_dir / "result.json"),
                "spans": str(call_dir / "spans.json")}
        t0 = time.monotonic()
        with open(call_dir / "log.txt", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                      cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.hard_deadline - t0))
            except subprocess.TimeoutExpired:
                return None, "timed out"
        if proc.returncode != 0 or not Path(spec["result"]).is_file():
            return None, f"child exited {proc.returncode} (see {call_dir / 'log.txt'})"
        res = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        if not Path(res["module"]).resolve().is_relative_to(ROOT / "src"):
            return None, f"imported starnoma from {res['module']}, outside this checkout"
        if argv is not None and res["exit_code"] != 0:
            return None, f"CLI exited {res['exit_code']} (see {call_dir / 'log.txt'})"
        res["setup_s"] = res["setup_end"] - t0
        res["wall_s"] = time.monotonic() - t0
        res["spans"] = spec["spans"]
        return res, ""


def check_call(wl, out_dir: Path, seed: int, reference: dict | None, validate_table) -> list[str]:
    if wl.kind == "optimize":
        return check_optimize(out_dir / "state.csv", out_dir / "trace.csv", reference)
    return check_sweep(wl, out_dir / "sweep.csv", seed, validate_table, reference and reference["band"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny trial counts, no reference band")
    args = parser.parse_args()

    if not (ROOT / "src" / "starnoma" / "cli.py").is_file():
        print(f"error: no starnoma sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})
    sys.path.insert(0, str(ROOT / "src"))
    from starnoma.cli import validate_table

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | SUMMARY_UNITS
    reference = None
    if not args.smoke:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))["workloads"][wl.name]

    start = time.monotonic()
    deadline = start + args.seconds
    work = WORK_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(work, start + HARD_LIMIT_S)

    # set-up probes first: each is a fresh interpreter that only imports the CLI
    problems, setups = [], []
    for i in range(0 if args.trace else SETUP_PROBES):
        res, problem = runner.spawn(f"setup{i}", None, False)
        if res is None:
            problems.append(f"setup{i}: {problem}")
        else:
            setups.append(res["setup_s"])

    # then CLI calls, while the next one is expected to end before the deadline
    calls, notes, first_outputs = [], set(), None
    last_wall = 0.0
    while len(calls) < MIN_CALLS or time.monotonic() + last_wall <= deadline:
        if time.monotonic() + last_wall > runner.hard_deadline:
            break  # a much slower program gets fewer calls, not a timeout
        tag = f"call{len(calls)}"
        traced = bool(args.trace) and len(calls) % 2 == 1
        out_dir = work / tag
        argv = wl.argv(args.seed, out_dir, args.smoke)
        res, problem = runner.spawn(tag, argv, traced)
        found = [problem] if res is None else check_call(wl, out_dir, args.seed, reference, validate_table)
        if res is not None and not found:
            if first_outputs is None:
                first_outputs = wl.outputs(out_dir)
            else:
                found = check_identical(first_outputs, wl.outputs(out_dir))
        problems += [f"{tag}: {p}" for p in found]
        calls.append({"argv": argv, "traced": traced, "ok": not found, "out_dir": out_dir, **(res or {})})
        if res is None:
            break
        last_wall = res["wall_s"]
        notes.update(res.get("notes", []))

    # timings come from every call that ran to the end, even if its output
    # failed a check: such a run still reports, with "correct": false
    ran = [c for c in calls if "run_s" in c]
    untraced = [c for c in ran if not c["traced"]]
    traced = [c for c in ran if c["traced"]]
    if not untraced or (args.trace and not traced):
        print("error: no call ran to the end:", *problems, sep="\n  ", file=sys.stderr)
        return 1

    # output-derived values repeat exactly across passing calls (byte-identical outputs)
    good = [c for c in calls if c["ok"]]
    gap = objective = steps = 0
    if good and wl.kind == "sweep":
        gap = rate_gap(good[0]["out_dir"] / "sweep.csv")
    elif good:
        trace_values = read_trace(good[0]["out_dir"] / "trace.csv")
        objective, steps = trace_values[-1], len(trace_values) - 1
    run_s = statistics.median(c["run_s"] for c in untraced)

    summary = {"failed_frac": (len(calls) - len(good)) / len(calls)}
    if wl.kind == "sweep":
        summary.update(trials_per_s=wl.points * wl.call_trials(args.smoke) / run_s, rate_gap=gap)
    else:
        summary["objective"] = objective

    if args.trace:
        per_call = [layer_metrics(json.loads(Path(c["spans"]).read_text(encoding="utf-8")), steps) for c in traced]
        metrics = median_metrics(per_call)
        metrics["trace.overhead_s"] = statistics.median(c["run_s"] for c in traced) - run_s
        metrics["rates.rate_gap"] = gap
        metrics["design.objective"] = objective
        samples = {"traced_calls": len(traced), "untraced_calls": len(untraced)}
    else:
        setups += [c["setup_s"] for c in ran]
        metrics = {
            "run_s": run_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
        }
        samples = {"run_s": len(untraced), "setup_s": len(setups), "peak_rss_mb": len(untraced)}

    failed = len(calls) - len(good)
    record = {
        "manifest": build_manifest(ROOT, wl, args.seed, args.smoke, calls[0]["argv"]),
        "metrics": metrics, "summary": summary, "samples": samples,
        "problems": problems, "notes": sorted(notes),
        "calls": [{k: (str(v) if isinstance(v, Path) else v) for k, v in c.items()} for c in calls],
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} calls={len(calls)} failed={failed} "
          f"record={(work / 'result.json').relative_to(ROOT)}")
    print("  samples: " + " ".join(f"{k}={v}" for k, v in samples.items()))
    for name, value in {**metrics, **summary}.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    for line in problems[:MAX_PRINTED] + sorted(notes):
        print(f"  ! {line}")
    if len(problems) > MAX_PRINTED:
        print(f"  ! ... {len(problems) - MAX_PRINTED} more in the record")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
