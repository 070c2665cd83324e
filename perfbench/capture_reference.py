"""Capture the output-check reference from the current source tree.

Usage, from the repository root:

    python3 perfbench/capture_reference.py

Runs every sweep workload once per reference seed and stores, per simulated
cell, the mean, standard deviation, minimum and maximum over the seeds, plus
the final objective of the optimize workload.  The result,
``perfbench/reference.json``, defines the band that ``checks.in_band`` applies.
Re-capture only when a change is meant to move the simulated rates.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import cell_key, read_sweep, read_trace  # noqa: E402
from manifest import source_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# checks.BAND_Z is tuned for the spread over exactly these 20 seeds.
SEEDS = range(1000, 1020)


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from starnoma.cli import main as cli_main

    reference = {"source_sha256": source_digest(ROOT), "seeds": list(SEEDS), "workloads": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp)
        for wl in WORKLOADS.values():
            if wl.kind == "optimize":
                if cli_main(wl.argv(SEEDS[0], out)) != 0:
                    raise SystemExit(f"{wl.name} failed")
                reference["workloads"][wl.name] = {"objective": read_trace(out / "trace.csv")[-1]}
                continue
            samples: dict[str, list[float]] = {}
            for seed in SEEDS:
                if cli_main(wl.argv(seed, out)) != 0:
                    raise SystemExit(f"{wl.name} failed on seed {seed}")
                for r in read_sweep(out / "sweep.csv"):
                    if r["method"] == "simulated":
                        samples.setdefault(cell_key(r), []).append(float(r["rate"]))
                print(f"{wl.name} seed {seed} done", file=sys.stderr)
            reference["workloads"][wl.name] = {"band": {
                key: {"mean": statistics.fmean(v), "sd": statistics.stdev(v), "min": min(v), "max": max(v)}
                for key, v in sorted(samples.items())
            }}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
