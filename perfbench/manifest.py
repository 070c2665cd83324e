"""What a benchmark result was measured on: code, toolchain, machine and inputs."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, for checkouts that carry no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "starnoma").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def simulator_block_size() -> int | None:
    """Default Monte-Carlo block size, part of the reproducibility key."""
    from starnoma import simulator

    plan = getattr(simulator, "SimPlan", None)
    fields = dataclasses.fields(plan) if dataclasses.is_dataclass(plan) else ()
    return next((f.default for f in fields if f.name == "block_size"), None)


def build_manifest(root: Path, workload, seed: int, smoke: bool, argv: list[str]) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": workload.name,
        "seed": seed,
        "trials": workload.call_trials(smoke),
        "grid": workload.grid,
        "smoke": smoke,
        "argv": argv,
        "block_size": simulator_block_size(),
    }
