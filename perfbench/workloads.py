"""The benchmark's workloads: which CLI call each one makes and what it must produce.

Each workload is one ``starnoma`` CLI call whose only varying input is the
workload seed, passed through as ``--seed``.  README.md in this directory
says why each workload was chosen and which layer it stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
OPTIMIZE_CONFIG = HERE / "optimize_n64.yaml"

# Default grids of the CLI at the commit the benchmark was defined on; the
# output check compares against these, so a changed default shows as a failure.
SNR_GRID = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
XIS = (0.0, 0.1)
ROLES = ("DL1", "DL2", "DL3", "UL1", "UL2", "UL3")
PAIR_ROLES = ("dl_sum_clustering", "ul_sum_clustering", "dl_sum_pairing", "ul_sum_pairing")
OPTIMIZE_N = 64
# Ascent-step cap of the optimize call.  The CLI default (60) runs 49 steps,
# about 8 s, so only three or four calls fit in a run, and single calls on a
# 2-core machine vary by up to 30 %.  Every step costs the same (12N + 1
# objective evaluations), so a shorter call measures the same work per step
# and leaves room for about ten calls, whose median is steadier.
OPTIMIZE_ITERS = 16
SMOKE_TRIALS = 2_000
SMOKE_ITERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str | None   # the sweep experiment; None for the optimize workload
    trials: int = 0          # Monte-Carlo trials per sweep point

    @property
    def kind(self) -> str:
        return "optimize" if self.experiment is None else "sweep"

    def call_trials(self, smoke: bool = False) -> int:
        return SMOKE_TRIALS if smoke and self.trials else self.trials

    def argv(self, seed: int, out_dir: Path, smoke: bool = False) -> list[str]:
        """CLI arguments of one call, writing its outputs under out_dir."""
        if self.experiment is None:
            return ["optimize", "--config", str(OPTIMIZE_CONFIG), "--seed", str(seed),
                    "--iters", str(SMOKE_ITERS if smoke else OPTIMIZE_ITERS),
                    "--out", str(out_dir / "state.csv"), "--trace", str(out_dir / "trace.csv")]
        return ["sweep", "--experiment", self.experiment, "--trials", str(self.call_trials(smoke)),
                "--seed", str(seed), "--out", str(out_dir / "sweep.csv")]

    def outputs(self, out_dir: Path) -> list[Path]:
        if self.experiment is None:
            return [out_dir / "state.csv", out_dir / "trace.csv"]
        return [out_dir / "sweep.csv"]

    @property
    def grid(self) -> dict:
        if self.experiment is None:
            return {"N": OPTIMIZE_N, "iters": OPTIMIZE_ITERS}
        if self.experiment == "cluster-vs-pair":
            return {"snr_db": SNR_GRID, "xi_sic": XIS}
        return {"snr_db": SNR_GRID}

    @property
    def points(self) -> int:
        """Sweep points, each simulated with `trials` trials (0 for optimize)."""
        return 0 if self.experiment is None else math.prod(len(v) for v in self.grid.values())

    def cells(self) -> list[tuple[str, str, str]]:
        """Every (sweep_var, value, role) a sweep must report, once per method."""
        if self.experiment == "cluster-vs-pair":
            return [("snr_db", repr(s), f"{r}[xi={xi:g}]") for xi in XIS for s in SNR_GRID for r in PAIR_ROLES]
        return [("snr_db", repr(s), r) for s in SNR_GRID for r in ROLES]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("snr-sweep", "rates-vs-snr", 100_000),
        Workload("cluster-vs-pair", "cluster-vs-pair", 20_000),
        Workload("optimize-n64", None),
    )
}
