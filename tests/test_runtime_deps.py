"""The runtime path needs numpy and pyyaml only: every CLI command runs with scipy unimportable,
and importing the CLI loads neither concurrent.futures nor logging.  Nor does any CLI path load
numpy.polynomial or call an eigen-solver: the Gauss rules are built by Newton's method and the
power policy's quadratic is solved in closed form.

The check runs in a fresh interpreter whose import system refuses every
scipy module, as if scipy were not installed, and whose numpy eigen-solvers
and np.roots raise.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import importlib.abc
    import sys


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r} (refused)", name=name)
            return None


    def loaded_scipy():
        return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))


    sys.meta_path.insert(0, RefuseScipy())
    out = sys.argv[1]

    import numpy as np

    # LAPACK's eigen-solvers (numpy.polynomial's Gauss rules call eigvalsh, np.roots eigvals)
    def refuse(*args, **kwargs):
        raise AssertionError("an eigen-solver was called")


    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        setattr(np.linalg, name, refuse)
    np.roots = refuse

    import starnoma.cli
    assert loaded_scipy() == [], loaded_scipy()
    # the simulator's block threads use plain threading: these cost set-up time
    assert "concurrent.futures" not in sys.modules
    assert "logging" not in sys.modules
    assert "numpy.polynomial" not in sys.modules

    assert starnoma.cli.main(["sweep", "--experiment", "rates-vs-snr", "--trials", "500", "--seed", "1",
                              "--out", f"{out}/snr.csv"]) == 0
    assert starnoma.cli.main(["sweep", "--experiment", "cluster-vs-pair", "--trials", "500", "--seed", "1",
                              "--out", f"{out}/sweep.csv"]) == 0
    assert starnoma.cli.main(["optimize", "--iters", "2", "--seed", "1",
                              "--out", f"{out}/state.csv", "--trace", f"{out}/trace.csv"]) == 0
    assert "numpy.polynomial" not in sys.modules

    from starnoma.channel import StarRisState
    from starnoma.config import baseline_config, default_power_allocation
    from starnoma.design import min_power_allocation
    from starnoma.rates import rate_report

    cfg = baseline_config()
    state = StarRisState.random(cfg.N, np.random.default_rng(1))
    targets = rate_report(cfg, default_power_allocation(cfg), state).rates
    back = rate_report(cfg, min_power_allocation(targets, cfg, state), state).rates
    assert max(abs(back[r] - targets[r]) for r in targets) <= 1e-6
    assert loaded_scipy() == [], loaded_scipy()
    print("ok")
""")


def test_cli_runs_without_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "ok"
    assert (tmp_path / "snr.csv").stat().st_size > 0
    assert (tmp_path / "sweep.csv").stat().st_size > 0
    assert (tmp_path / "state.csv").stat().st_size > 0
