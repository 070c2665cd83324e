import csv
import dataclasses
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from starnoma.channel import StarRisState
from starnoma.cli import DEFAULT_N_GRID, DEFAULT_SNR_GRID, N_SWEEP_SNR_DB, SWEEPS, XIS, main, validate_table
from starnoma.config import baseline_config, default_power_allocation, dump_config
from starnoma.design import aligned_state
from starnoma.rates import ROLES, rate_report
from starnoma.simulator import SimPlan, simulate


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.yaml"
    dump_config(baseline_config(), str(path))
    return str(path)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestCommands:
    def test_analytic(self, cfg_path, tmp_path):
        out = str(tmp_path / "a.csv")
        assert main(["analytic", "--config", cfg_path, "--out", out]) == 0
        validate_table(out)
        rows = _rows(out)
        assert len(rows) == 6
        assert {r["role"] for r in rows} == {"DL1", "DL2", "DL3", "UL1", "UL2", "UL3"}

    def test_simulate(self, cfg_path, tmp_path):
        out = str(tmp_path / "s.csv")
        assert main(["simulate", "--config", cfg_path, "--out", out, "--trials", "4000"]) == 0
        rows = _rows(out)
        assert len(rows) == 6
        assert list(rows[0]) == ["role", "rate", "stderr", "trials", "seed"]
        assert all(r["trials"] == "4000" and float(r["stderr"]) >= 0 for r in rows)

    def test_cluster_plan(self, cfg_path, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main(["cluster", "--config", cfg_path, "--out", out]) == 0
        rows = _rows(out)
        assert list(rows[0]) == ["group", "role", "user", "distance"]
        assert len(rows) == 18  # 3 clusters x 6 roles
        assert {r["role"] for r in rows} == set(ROLES)

    def test_cluster_rejects_nonuniform_counts(self, tmp_path):
        path = tmp_path / "bad.yaml"
        dump_config(baseline_config(K_ed=4), str(path))
        assert main(["cluster", "--config", str(path)]) == 2

    def test_pair_plan(self, cfg_path, tmp_path):
        out = str(tmp_path / "p.csv")
        assert main(["cluster", "--config", cfg_path, "--scheme", "pair", "--out", out]) == 0
        rows = _rows(out)
        assert len(rows) == 18  # 4 pairs and the lone median slot, per direction
        assert [r["role"] for r in rows if r["group"] == "5"] == ["DL1", "UL1"]

    def test_pairing_rejects_overlapping_disks(self, tmp_path, capsys):
        path = str(tmp_path / "near.yaml")
        dump_config(baseline_config(d_br=60.0), path)
        for command in (["cluster", "--scheme", "pair"], ["sweep", "--experiment", "cluster-vs-pair", "--trials", "100"]):
            capsys.readouterr()
            assert main([*command, "--config", path]) == 1
            assert "d_br - R_r = 30 must be at least R = 50" in capsys.readouterr().err
        assert main(["cluster", "--config", path, "--out", str(tmp_path / "c.csv")]) == 0   # the clusters still run

    def test_optimize(self, cfg_path, tmp_path):
        out = str(tmp_path / "state.csv")
        trace = str(tmp_path / "trace.csv")
        assert main([
            "optimize", "--config", cfg_path, "--out", out, "--trace", trace, "--iters", "3",
        ]) == 0
        rows = _rows(out)
        assert len(rows) == 10
        split = [float(r["rho_t"]) + float(r["rho_r"]) for r in rows]
        assert split == pytest.approx([1.0] * 10)
        with open(trace, newline="") as fh:
            tr = list(csv.DictReader(fh))
        vals = [float(r["objective"]) for r in tr]
        assert vals == sorted(vals)

    def test_optimize_objective_is_ratio_of_means(self, cfg_path, tmp_path):
        # the CLI reproduces the paper's design problem, posed on its closed forms
        import numpy as np

        from starnoma.channel import StarRisState
        from starnoma.config import default_power_allocation
        from starnoma.rates import build_rate_inputs, weighted_sum_rate

        out, trace = str(tmp_path / "state.csv"), str(tmp_path / "trace.csv")
        assert main(["optimize", "--config", cfg_path, "--out", out, "--trace", trace, "--iters", "2"]) == 0
        rows = _rows(out)
        state = StarRisState(*(np.array([float(r[c]) for r in rows]) for c in ("rho_t", "rho_r", "phi_t", "phi_r")))
        cfg = baseline_config()
        inputs = build_rate_inputs(cfg, default_power_allocation(cfg), state)
        final = float(_rows(trace)[-1]["objective"])
        assert weighted_sum_rate(inputs, model="ratio-of-means") == pytest.approx(final, rel=1e-12, abs=0)

    def test_bad_config_path_fails_cleanly(self, tmp_path):
        assert main(["analytic", "--config", str(tmp_path / "missing.yaml")]) == 1

    def test_aligned_state_works_for_any_N(self, cfg_path, tmp_path):
        # baseline N=10 fills no square grid; the aligned state lays it out in rows of 4, 4 and 2
        out = str(tmp_path / "a.csv")
        for command in (["analytic"], ["simulate", "--trials", "500"]):
            assert main([*command, "--config", cfg_path, "--state", "aligned", "--out", out]) == 0
            assert len(_rows(out)) == 6
        assert main(["optimize", "--config", cfg_path, "--state", "aligned", "--iters", "1", "--out", out]) == 0
        assert len(_rows(out)) == 10

    def test_simulate_other_cluster(self, cfg_path, tmp_path):
        out = str(tmp_path / "c2.csv")
        assert main(["simulate", "--config", cfg_path, "--out", out,
                     "--trials", "2000", "--cluster", "2"]) == 0
        assert len(_rows(out)) == 6


class TestSweep:
    def test_rates_vs_snr_row_count(self, cfg_path, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main([
            "sweep", "--experiment", "rates-vs-snr", "--config", cfg_path,
            "--out", out, "--trials", "2000",
        ]) == 0
        validate_table(out)
        rows = _rows(out)
        assert len(rows) == 72  # 6 roles x 2 methods x 6 grid points

    def test_byte_identical_reruns(self, cfg_path, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["sweep", "--experiment", "rates-vs-snr", "--config", cfg_path,
                "--trials", "1000", "--grid", "10", "30", "--seed", "7"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_custom_sweep(self, cfg_path, tmp_path):
        out = str(tmp_path / "c.csv")
        assert main([
            "sweep", "--experiment", "custom", "--param", "xi_sic",
            "--grid", "0.0", "0.2", "--config", cfg_path, "--out", out, "--trials", "1000",
        ]) == 0
        validate_table(out)
        assert len(_rows(out)) == 24

    def test_custom_sweep_needs_param(self, cfg_path):
        assert main(["sweep", "--experiment", "custom", "--config", cfg_path]) == 2

    def test_custom_sweep_of_a_count_field(self, cfg_path, tmp_path, capsys):
        # an integral value reaches K_ed as an integer; 2.5 is rejected, not truncated to 2
        out = str(tmp_path / "k.csv")
        args = ["sweep", "--experiment", "custom", "--param", "K_ed", "--config", cfg_path, "--trials", "200"]
        assert main([*args, "--grid", "2", "--out", out]) == 0
        cfg = baseline_config(K_ed=2)
        want = rate_report(cfg, default_power_allocation(cfg), StarRisState.random(cfg.N, np.random.default_rng(0)))
        rows = [r for r in _rows(out) if r["method"] == "analytic"]
        assert {r["value"] for r in rows} == {"2.0"}
        assert {r["role"]: float(r["rate"]) for r in rows} == want.rates
        capsys.readouterr()
        assert main([*args, "--grid", "2.5"]) == 1
        assert "K_ed must be an integer, got 2.5" in capsys.readouterr().err

    def test_custom_sweep_of_the_element_count(self, cfg_path, tmp_path):
        # every point draws the random state of its own N from the run's seed
        out = str(tmp_path / "n.csv")
        args = ["sweep", "--experiment", "custom", "--param", "N", "--grid", "9", "16",
                "--config", cfg_path, "--trials", "200", "--seed", "3", "--out", out]
        assert main(args) == 0
        validate_table(out)
        rows = _rows(out)
        assert {(r["value"], r["method"]) for r in rows} == {
            (v, m) for v in ("9.0", "16.0") for m in ("analytic", "simulated")
        }
        for n in (9, 16):
            cfg = baseline_config(N=n)
            state = StarRisState.random(n, np.random.default_rng(3))
            want = rate_report(cfg, default_power_allocation(cfg), state).rates
            got = {r["role"]: float(r["rate"]) for r in rows if r["value"] == f"{n}.0" and r["method"] == "analytic"}
            assert got == want

    @pytest.mark.parametrize("param", ["weights_dl", "allocation", "angle_map", "nope"])
    def test_custom_sweep_rejects_a_non_scalar_param(self, cfg_path, capsys, param):
        assert main(["sweep", "--experiment", "custom", "--param", param, "--grid", "1", "--config", cfg_path]) == 1
        assert f"--param {param!r} is not a scalar numeric config field" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_rejected(self, cfg_path, capsys, trials):
        args = ["sweep", "--experiment", "rates-vs-snr", "--config", cfg_path, "--grid", "10", "--trials", trials]
        assert main(args) == 1
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_non_finite_snr_rejected_by_name(self, cfg_path, capsys):
        assert main(["sweep", "--experiment", "rates-vs-snr", "--config", cfg_path, "--grid", "nan"]) == 1
        assert "snr_db must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [["--state", "uniform"], ["--cluster", "2"]])
    def test_options_no_experiment_reads_are_rejected(self, cfg_path, option):
        with pytest.raises(SystemExit):
            main(["sweep", "--experiment", "rates-vs-snr", "--config", cfg_path, *option])

    def test_rates_vs_n(self, cfg_path, tmp_path):
        out = str(tmp_path / "n.csv")
        assert main([
            "sweep", "--experiment", "rates-vs-N", "--config", cfg_path,
            "--grid", "4", "16", "--out", out, "--trials", "1000",
        ]) == 0
        validate_table(out)
        assert len(_rows(out)) == 24

    def test_sic_ablation(self, cfg_path, tmp_path):
        out = str(tmp_path / "sic.csv")
        assert main([
            "sweep", "--experiment", "sic-ablation", "--config", cfg_path,
            "--grid", "10", "--out", out, "--trials", "500",
        ]) == 0
        validate_table(out)
        rows = _rows(out)
        assert len(rows) == 24  # 2 SIC factors x 6 roles x 2 methods x 1 grid point
        assert {r["role"] for r in rows} == {f"{role}{tag}" for role in ROLES for tag in ("[xi=0]", "[xi=0.1]")}

    def test_si_ablation(self, cfg_path, tmp_path):
        out = str(tmp_path / "si.csv")
        assert main([
            "sweep", "--experiment", "si-ablation", "--config", cfg_path,
            "--grid", "10", "--out", out, "--trials", "500",
        ]) == 0
        validate_table(out)
        rows = _rows(out)
        assert len(rows) == 24  # 2 SI levels x 6 roles x 2 methods x 1 grid point
        tags = ("[beta=0.001,lambda=0.1]", "[beta=1,lambda=0.4]")
        assert {r["role"] for r in rows} == {f"{role}{tag}" for role in ROLES for tag in tags}

    def test_cluster_vs_pair(self, cfg_path, tmp_path):
        out = str(tmp_path / "cvp.csv")
        assert main([
            "sweep", "--experiment", "cluster-vs-pair", "--config", cfg_path,
            "--grid", "10", "30", "--out", out, "--trials", "500",
        ]) == 0
        validate_table(out)
        rows = _rows(out)
        assert len(rows) == 32  # 2 SIC factors x 4 sums x 2 methods x 2 grid points
        sums = ("dl_sum_clustering", "ul_sum_clustering", "dl_sum_pairing", "ul_sum_pairing")
        assert {r["role"] for r in rows} == {f"{s}[xi={xi}]" for s in sums for xi in ("0", "0.1")}
        # every simulated row reports its standard error, and no analytic row has one
        assert all(float(r["stderr"]) > 0 for r in rows if r["method"] == "simulated")
        assert all(r["stderr"] == "" for r in rows if r["method"] == "analytic")

    def test_cluster_vs_pair_builds_its_tables_once_per_schedule(self, monkeypatch):
        # the sweep's points differ in point fields only, so each reader builds every group's
        # role table and position terms once for all points: the calls do not grow with the grid
        from starnoma import cli, comparison, design, rates, simulator

        counts = Counter()
        for name in ("noma_roles", "positions"):
            original = getattr(rates, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for module in (rates, simulator, comparison, cli, design):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

        def calls(grid):
            counts.clear()
            cli.experiment_cluster_vs_pair(baseline_config(), 1, 1, grid)
            return dict(counts)

        two = calls((10.0, 30.0))
        assert two == calls(DEFAULT_SNR_GRID)
        assert two["noma_roles"] > 0 and two["positions"] > 0


def _sweep_points(experiment, seed):
    """(sweep_var, value, cfg, state, role tag) of every point of a named sweep, built by hand."""
    cfg = baseline_config()
    state = StarRisState.random(cfg.N, np.random.default_rng(seed))
    if experiment == "rates-vs-snr":
        return [("snr_db", snr, cfg.with_snr(snr), state, "") for snr in DEFAULT_SNR_GRID]
    if experiment == "sic-ablation":
        return [
            ("snr_db", snr, dataclasses.replace(cfg.with_snr(snr), xi_sic=xi), state, f"[xi={xi:g}]")
            for xi in XIS for snr in DEFAULT_SNR_GRID
        ]
    points = [dataclasses.replace(cfg.with_snr(N_SWEEP_SNR_DB), N=n) for n in DEFAULT_N_GRID]
    return [("N", p.N, p, aligned_state(p), "") for p in points]


class TestSharedDrawRows:
    @pytest.mark.parametrize("experiment", ["rates-vs-snr", "sic-ablation", "rates-vs-N"])
    def test_simulated_rows_match_per_point_calls(self, cfg_path, tmp_path, experiment):
        # a sweep simulates its grid from one draw; every simulated cell must be
        # the one a separate simulate call per point writes
        out = str(tmp_path / "sweep.csv")
        assert main([
            "sweep", "--experiment", experiment, "--config", cfg_path,
            "--trials", "1500", "--seed", "3", "--out", out,
        ]) == 0
        got = {
            (r["sweep_var"], r["value"], r["role"]): (r["rate"], r["stderr"])
            for r in _rows(out) if r["method"] == "simulated"
        }
        want = {}
        for var, value, point, state, tag in _sweep_points(experiment, seed=3):
            plan = SimPlan(cfg=point, power=default_power_allocation(point), state=state, trials=1500, seed=3)
            report = simulate(plan)
            for role in ROLES:
                want[(var, str(value), role + tag)] = (repr(report.rates[role]), repr(report.stderr[role]))
        assert got == want


class TestBlasThreads:
    def test_blas_thread_count_changes_no_byte(self, tmp_path):
        # the simulator's denominators are BLAS matrix products: a sweep's bytes
        # must not depend on how many threads the BLAS library runs them on
        src = Path(__file__).resolve().parents[1] / "src"
        out = {}
        for threads in ("1", "2"):
            out[threads] = tmp_path / f"sweep-{threads}.csv"
            env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from starnoma.cli import main; sys.exit(main(sys.argv[1:]))",
                 "sweep", "--experiment", "cluster-vs-pair", "--trials", "3000", "--seed", "5", "--out", str(out[threads])],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        assert out["1"].read_bytes() == out["2"].read_bytes()


class TestInputsAreNeverIgnored:
    """An input a command cannot use is rejected by name, not dropped or replaced by a default."""

    @pytest.mark.parametrize("command", [["analytic"], ["sweep", "--experiment", "rates-vs-snr", "--trials", "10"]],
                             ids=lambda c: c[0])
    def test_missing_config_path_is_named(self, tmp_path, capsys, command):
        path = str(tmp_path / "nope.yaml")
        assert main([*command, "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"cannot read config file '{path}'" in err
        assert "mapping" not in err

    def test_param_rejected_outside_the_custom_sweep(self, cfg_path, capsys):
        args = ["sweep", "--experiment", "rates-vs-snr", "--param", "N", "--grid", "10", "--trials", "10"]
        assert main([*args, "--config", cfg_path]) == 2
        assert "--param applies to the custom sweep only" in capsys.readouterr().err

    def test_empty_grid_rejected(self, cfg_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--experiment", "rates-vs-snr", "--grid", "--trials", "10", "--config", cfg_path])
        assert exc.value.code == 2
        assert "argument --grid: expected at least one argument" in capsys.readouterr().err


class TestSeedOption:
    """numpy seeds only from nonnegative integers, so every subcommand rejects any other --seed by name."""

    @pytest.mark.parametrize("command", [
        ["analytic"], ["simulate", "--trials", "10"], ["cluster"], ["optimize", "--iters", "1"],
        ["sweep", "--experiment", "rates-vs-snr", "--grid", "10", "--trials", "10"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("seed", ["-1", "-3", "1.5", "x"])
    def test_bad_seed_rejected_by_name(self, cfg_path, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", cfg_path, "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err


class TestTrialsOption:
    """Only the simulating commands take --trials; the others reject it by name rather than ignore it."""

    @pytest.mark.parametrize("command", [["analytic"], ["cluster"], ["optimize", "--iters", "1"]], ids=lambda c: c[0])
    def test_trials_rejected_where_nothing_is_simulated(self, cfg_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--config", cfg_path, "--trials", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trials 5" in capsys.readouterr().err


def test_optimize_has_no_restarts_option(cfg_path, capsys):
    # the ascent runs from one start, the one --state names
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--config", cfg_path, "--iters", "1", "--restarts", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --restarts 2" in capsys.readouterr().err


class TestSettledOncePerSweep:
    """The analytic phase reads each geometry's links and each (geometry, state)'s surface terms
    from one evaluation, however many points and readers a sweep has."""

    @staticmethod
    def _count(monkeypatch, name, key):
        """Count the calls of channel/rates function `name` under every binding a starnoma module holds,
        by key(args); the memos start empty, so each call is a real evaluation."""
        from starnoma import channel, rates

        monkeypatch.setattr(channel, "_LINKS", {})
        monkeypatch.setattr(rates, "_SURFACE", {})
        original = getattr(channel if name == "build_links" else rates, name)
        calls = Counter()

        def counted(*args, **kwargs):
            calls[key(*args)] += 1
            return original(*args, **kwargs)

        for module in [m for n, m in sys.modules.items() if n == "starnoma" or n.startswith("starnoma.")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("experiment,geometries", [("cluster-vs-pair", 1), ("rates-vs-N", len(DEFAULT_N_GRID))])
    def test_links_and_surface_terms_once(self, monkeypatch, experiment, geometries):
        from starnoma.channel import link_key

        links = self._count(monkeypatch, "build_links", link_key)
        surface = self._count(monkeypatch, "surface_terms",
                              lambda cfg, coeffs, *rest: (link_key(cfg), np.asarray(coeffs).tobytes()))
        run, grid = SWEEPS[experiment]
        run(baseline_config(), 1, 200, grid)
        assert len(links) == geometries and set(links.values()) == {1}
        # one state per geometry (rates-vs-N aligns each N's surface)
        assert len(surface) == geometries and set(surface.values()) == {1}
