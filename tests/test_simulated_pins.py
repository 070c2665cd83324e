"""Bit-for-bit pins of the Monte-Carlo layer.

simulated_pins.json holds, as hex floats, what the cluster simulator, the
pairing simulator and the term oracle return at small trial counts that end
in a partial block, and the text of the `starnoma cluster` tables.  Each
pin is checked on one worker thread, whose later blocks, the partial one
included, run in the first block's memory, and on two.  A change that must
keep every simulated byte keeps these values; a change that moves the draw
stream on purpose recaptures them with

    PYTHONPATH=src python tests/test_simulated_pins.py > tests/simulated_pins.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from starnoma import StarRisState, baseline_config, default_power_allocation, simulator
from starnoma.cli import main
from starnoma.comparison import pair_power_policy, simulate_pair_sums
from starnoma.simulator import simulate_clusters

from oracles import estimate_expectation

PINS = Path(__file__).with_name("simulated_pins.json")

TRIALS, BLOCK = 5_000, 2_048   # three blocks, the last one partial
# one key of each of the oracle's draws: an ordered position, a product of
# surface losses, the two disk laws, a leaf and a hub-hub cascade, the
# self-reflection and a strong user's log-mean
ORACLE_KEYS = ("x1_u1d", "y2_u1d", "y1", "q_center", "omega_u1d_u3u", "omega_u3d_u3u", "y3", "log_u1d")
SCHEMES = ("cluster", "pair")
WORKERS = (1, 2)   # worker threads of the block loop; neither may move a bit


def _setup():
    cfg = baseline_config()
    return cfg, StarRisState.random(cfg.N, np.random.default_rng(1))


def _hex(values: dict) -> dict:
    return {k: float(v).hex() for k, v in values.items()}


def clusters_pin() -> dict:
    cfg, state = _setup()
    reports, totals = simulate_clusters(cfg, default_power_allocation(cfg), state, TRIALS, 3, block_size=BLOCK)
    out = {str(j): {"rates": _hex(r.rates), "stderr": _hex(r.stderr)} for j, r in reports.items()}
    out["totals"] = _hex(totals)
    return out


def pairs_pin() -> dict:
    cfg, state = _setup()
    return _hex(simulate_pair_sums(cfg, pair_power_policy(cfg, state), state, TRIALS, 4, block_size=BLOCK))


def oracle_pin(key: str) -> list:
    cfg, state = _setup()
    return [v.hex() for v in estimate_expectation(key, cfg, state, trials=TRIALS, seed=5, block_size=BLOCK)]


def table_pin(scheme: str) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["cluster", "--scheme", scheme, "--seed", "3"]) == 0
    return out.getvalue()


def capture() -> dict:
    return {
        "clusters": clusters_pin(),
        "pairs": pairs_pin(),
        "oracle": {key: oracle_pin(key) for key in ORACLE_KEYS},
        "tables": {scheme: table_pin(scheme) for scheme in SCHEMES},
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


@pytest.fixture
def on_each_worker_count(monkeypatch):
    """pin(*args) once per worker count of WORKERS: {workers: result}."""
    def run(pin, *args):
        got = {}
        for workers in WORKERS:
            monkeypatch.setattr(simulator, "_cores", lambda: workers)
            got[workers] = pin(*args)
        return got

    return run


def test_cluster_simulator_pins(pins, on_each_worker_count):
    assert on_each_worker_count(clusters_pin) == dict.fromkeys(WORKERS, pins["clusters"])


def test_pairing_simulator_pins(pins, on_each_worker_count):
    assert on_each_worker_count(pairs_pin) == dict.fromkeys(WORKERS, pins["pairs"])


@pytest.mark.parametrize("key", ORACLE_KEYS)
def test_term_oracle_pins(pins, on_each_worker_count, key):
    assert on_each_worker_count(oracle_pin, key) == dict.fromkeys(WORKERS, pins["oracle"][key])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_cluster_table_pins(pins, on_each_worker_count, scheme):
    assert on_each_worker_count(table_pin, scheme) == dict.fromkeys(WORKERS, pins["tables"][scheme])


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1)
    sys.stdout.write("\n")
