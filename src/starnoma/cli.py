"""Batch experiment runner.

Subcommands wire the library into reproducible CSV tables:

* analytic   -- closed-form per-role rates of one cluster (exact-signal model)
* simulate   -- Monte-Carlo per-role rates with standard errors
* cluster    -- print the users of every clustering or pairing group the
                rates rate, resolved on one seeded drop of the
                scheme's simulator layout
* optimize   -- run the projected-gradient surface design on the paper's
                ratio-of-means sum rate
* sweep      -- the named figure experiments (rates-vs-snr, sic-ablation,
                si-ablation, cluster-vs-pair, rates-vs-N, custom)

Every table is a function of (config, seed, trials) only; rows are sorted
before writing so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields, replace

import numpy as np
import numpy.random  # numpy loads it lazily; importing it here keeps that cost out of the first command

from .channel import StarRisState
from .comparison import (
    cluster_power_policy,
    pair_groups,
    pair_power_policy,
    pair_schedule,
    ranked_layout,
)
from .config import SystemConfig, baseline_config, default_power_allocation, load_config
from .design import PgamSettings, aligned_state, pgam_optimize
from .rates import ROLES, cluster_group, noma_roles, rate_report
from .simulator import SimPlan, cluster_schedule, draw_key, rate_groups, simulate, simulate_groups, sorted_layout

CSV_COLUMNS = ("sweep_var", "value", "role", "method", "rate", "stderr", "seed")
DEFAULT_SNR_GRID = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)
DEFAULT_N_GRID = (4, 16, 36, 64)
XIS = (0.0, 0.1)                        # SIC error factors of sic-ablation and cluster-vs-pair
SI_LEVELS = ((0.001, 0.1), (1.0, 0.4))  # (beta_si, lambda_si) pairs of si-ablation
N_SWEEP_SNR_DB = 40.0                   # transmit SNR of rates-vs-N


def _load(args) -> SystemConfig:
    return load_config(args.config) if args.config else baseline_config()


def _pick_state(cfg: SystemConfig, kind: str, seed: int) -> StarRisState:
    if kind == "random":
        return StarRisState.random(cfg.N, np.random.default_rng(seed))
    if kind == "aligned":
        return aligned_state(cfg)
    if kind == "uniform":
        return StarRisState.uniform(cfg.N)
    raise ValueError(f"unknown state kind {kind!r}")


@contextmanager
def _csv_out(path):
    """A CSV writer on the file at path, or on stdout when path is empty."""
    with open(path, "w", encoding="utf-8", newline="") if path else nullcontext(sys.stdout) as stream:
        yield csv.writer(stream, lineterminator="\n")


def _write_rows(rows, out_path):
    rows = sorted(rows, key=lambda r: tuple(str(r[c]) for c in CSV_COLUMNS))
    with _csv_out(out_path) as writer:
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(row[c])) if isinstance(row[c], float) else row[c] for c in CSV_COLUMNS])


def _row(*cells) -> dict:
    return dict(zip(CSV_COLUMNS, cells))


def _role_rows(method, rates, sweep_var, value, seed, tag=""):
    """One row per role: rates maps it to its analytic rate or to its simulated (mean, stderr)."""
    rows = []
    for role in ROLES:
        rate, stderr = (float(rates[role]), "") if method == "analytic" else map(float, rates[role])
        rows.append(_row(sweep_var, value, role + tag, method, rate, stderr, seed))
    return rows


def validate_table(path: str) -> None:
    """Schema check of an emitted CSV: column names, no missing cells, numeric rates."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"bad header: {header}")
        for i, row in enumerate(reader):
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"row {i}: wrong cell count")
            if any(cell == "" for cell in row[:5]):
                raise ValueError(f"row {i}: missing cell")
            float(row[4])  # rate parses
            if row[5] != "":
                float(row[5])


# -- experiments --------------------------------------------------------------


def _point_rows(points, seed, trials):
    """Analytic and simulated rows of cluster 1 at every (sweep_var, value, cfg, state, tag) point.

    Points that share a draw (simulator.draw_key) and a state form one
    schedule; a geometry sweep makes one schedule per point.  Every schedule
    is rated by simulator.rate_groups, and all of them run in one block queue.
    """
    shared = {}
    for point in points:
        shared.setdefault((draw_key(point[2]), id(point[3])), []).append(point)
    draws = list(shared.values())
    schedules = []
    for draw in draws:
        cfgs = [cfg for _, _, cfg, _, _ in draw]
        schedules.append(cluster_schedule(cfgs, [default_power_allocation(c) for c in cfgs], draw[0][3], clusters=[1]))
    rows = []
    for draw, analytic, simulated in zip(draws, rate_groups(schedules), simulate_groups(schedules, trials, seed)):
        for (sweep_var, value, _, _, tag), ([rates], _), ([sims], _) in zip(draw, analytic, simulated):
            rows += _role_rows("analytic", rates, sweep_var, value, seed, tag)
            rows += _role_rows("simulated", sims, sweep_var, value, seed, tag)
    return rows


def _snr_points(cfg, seed, grid, variants):
    """Every (tag, config fields) variant at every SNR of the grid, on one random state."""
    state = _pick_state(cfg, "random", seed)
    return [
        ("snr_db", snr, replace(cfg.with_snr(snr), **fields), state, tag) for tag, fields in variants for snr in grid
    ]


def experiment_rates_vs_snr(cfg, seed, trials, grid=DEFAULT_SNR_GRID):
    return _point_rows(_snr_points(cfg, seed, grid, [("", {})]), seed, trials)


def experiment_sic_ablation(cfg, seed, trials, grid=DEFAULT_SNR_GRID):
    variants = [(f"[xi={xi:g}]", {"xi_sic": xi}) for xi in XIS]
    return _point_rows(_snr_points(cfg, seed, grid, variants), seed, trials)


def experiment_si_ablation(cfg, seed, trials, grid=DEFAULT_SNR_GRID):
    variants = [(f"[beta={beta:g},lambda={lam:g}]", {"beta_si": beta, "lambda_si": lam}) for beta, lam in SI_LEVELS]
    return _point_rows(_snr_points(cfg, seed, grid, variants), seed, trials)


def experiment_rates_vs_N(cfg, seed, trials, grid=DEFAULT_N_GRID):
    configs = [replace(cfg.with_snr(N_SWEEP_SNR_DB), N=n) for n in grid]
    return _point_rows([("N", c.N, c, aligned_state(c), "") for c in configs], seed, trials)


def experiment_cluster_vs_pair(cfg, seed, trials, grid=DEFAULT_SNR_GRID):
    state = _pick_state(cfg, "random", seed)
    cells = [(xi, snr) for xi in XIS for snr in grid]
    points = [replace(cfg.with_snr(snr), xi_sic=xi) for xi, snr in cells]
    # each policy builds its tables once for all points, and takes its edge targets from the reference split
    schedules = [cluster_schedule(points, cluster_power_policy(points, state), state),
                 pair_schedule(points, pair_power_policy(points, state), state)]
    rows = []
    for scheme, analytic, simulated in zip(
            ("clustering", "pairing"), rate_groups(schedules), simulate_groups(schedules, trials, seed)):
        for (xi, snr), (_, ana), (_, sim) in zip(cells, analytic, simulated):
            for d in ("dl", "ul"):
                role = f"{d}_sum_{scheme}[xi={xi:g}]"
                rows.append(_row("snr_db", snr, role, "analytic", float(ana[f"{d}_sum"]), "", seed))
                rows.append(_row("snr_db", snr, role, "simulated", float(sim[f"{d}_sum"]),
                                 float(sim[f"{d}_sum_stderr"]), seed))
    return rows


def experiment_custom(cfg, seed, trials, param, values):
    """Rows at every value of one scalar numeric config field; a count field
    (config.COUNT_FIELDS) takes integral values only, which the config checks."""
    numeric = [f.name for f in fields(cfg) if isinstance(getattr(cfg, f.name), (int, float))]
    if param not in numeric:
        raise ValueError(f"--param {param!r} is not a scalar numeric config field; choose one of {numeric}")
    configs = [replace(cfg, **{param: float(v)}) for v in values]
    # one random state per element count, so that points of one N share it (and a draw)
    states = {c.N: _pick_state(c, "random", seed) for c in configs}
    return _point_rows([(param, v, c, states[c.N], "") for v, c in zip(values, configs)], seed, trials)


# the grid sweeps: experiment -> (rows function, default grid)
SWEEPS = {
    "rates-vs-snr": (experiment_rates_vs_snr, DEFAULT_SNR_GRID),
    "sic-ablation": (experiment_sic_ablation, DEFAULT_SNR_GRID),
    "si-ablation": (experiment_si_ablation, DEFAULT_SNR_GRID),
    "cluster-vs-pair": (experiment_cluster_vs_pair, DEFAULT_SNR_GRID),
    "rates-vs-N": (experiment_rates_vs_N, DEFAULT_N_GRID),
}
EXPERIMENTS = (*SWEEPS, "custom")


# -- entry points --------------------------------------------------------------


def _cmd_analytic(args):
    cfg = _load(args)
    state = _pick_state(cfg, args.state, args.seed)
    report = rate_report(cfg, default_power_allocation(cfg), state, cluster=args.cluster)
    _write_rows(_role_rows("analytic", report.rates, "snr_db", cfg.snr_db, args.seed), args.out)
    return 0


def _cmd_simulate(args):
    cfg = _load(args)
    state = _pick_state(cfg, args.state, args.seed)
    plan = SimPlan(
        cfg=cfg, power=default_power_allocation(cfg), state=state,
        trials=args.trials, seed=args.seed, cluster=args.cluster,
    )
    report = simulate(plan)
    with _csv_out(args.out) as writer:
        writer.writerow(["role", "rate", "stderr", "trials", "seed"])
        for role in ROLES:
            writer.writerow([role, repr(float(report.rates[role])),
                             repr(float(report.stderr[role])), args.trials, args.seed])
    return 0


def _cmd_cluster(args):
    """One row per user of every group the scheme's rates rate: its group, NOMA
    role, id ({dl|ul}_{c|e}{rank}) and the distance its rank is taken over."""
    cfg = _load(args)
    if args.scheme == "cluster":
        if not cfg.uniform_clusters():
            print(
                "error: user counts do not form uniform 3-member clusters "
                "(need K_d1 = K_d2 = K_ed = M_d and the UL analogue)",
                file=sys.stderr,
            )
            return 2
        groups = [cluster_group(cfg, j) for j in range(1, min(cfg.M_d, cfg.M_u) + 1)]
        layout = sorted_layout(cfg)
    else:
        groups, layout = pair_groups(cfg), ranked_layout(cfg)
    users = [u for dl, ul in groups for u in (*dl, *ul)]
    geo = layout(np.random.default_rng(args.seed), 1, users)(users)
    with _csv_out(args.out) as writer:
        writer.writerow(["group", "role", "user", "distance"])
        for g, (dl, ul) in enumerate(groups, 1):
            for role, u in zip(noma_roles(cfg, dl, ul), (*dl, *ul)):
                _, d_bs, d_surface = geo[u]
                distance = d_surface if d_bs is None else d_bs
                writer.writerow([g, role.name, f"{u.direction.lower()}_{u.kind[0]}{u.order}", repr(float(distance[0]))])
    return 0


def _cmd_optimize(args):
    cfg = _load(args)
    state, trace = pgam_optimize(
        cfg, default_power_allocation(cfg), PgamSettings(max_iters=args.iters),
        initial=_pick_state(cfg, args.state, args.seed), model="ratio-of-means",
    )
    with _csv_out(args.out) as writer:
        writer.writerow(["element", "rho_t", "rho_r", "phi_t", "phi_r"])
        for n in range(cfg.N):
            writer.writerow([n, repr(float(state.rho_t[n])), repr(float(state.rho_r[n])),
                             repr(float(state.phi_t[n])), repr(float(state.phi_r[n]))])
    if args.trace:
        with _csv_out(args.trace) as writer:
            writer.writerow(["iteration", "objective"])
            for i, v in enumerate(trace):
                writer.writerow([i, repr(float(v))])
    return 0


def _cmd_sweep(args):
    if args.param and args.experiment != "custom":
        print(f"error: --param applies to the custom sweep only; {args.experiment} sweeps its own variable",
              file=sys.stderr)
        return 2
    cfg = _load(args)
    if args.experiment != "custom":
        run, default_grid = SWEEPS[args.experiment]
        rows = run(cfg, args.seed, args.trials, args.grid or default_grid)
    elif args.param and args.grid:
        rows = experiment_custom(cfg, args.seed, args.trials, args.param, args.grid)
    else:
        print("error: custom sweep needs --param and --grid", file=sys.stderr)
        return 2
    _write_rows(rows, args.out)
    return 0


def _seed(text: str) -> int:
    """A --seed value: numpy seeds only from nonnegative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starnoma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trials=None):
        p.add_argument("--config", help="YAML config path (defaults to the baseline)")
        p.add_argument("--seed", type=_seed, default=0)
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--out", help="output CSV path (default stdout)")

    # the sweeps fix their own states and rate cluster 1, so only these two take both
    for name, help_, fn, trials in (("analytic", "closed-form per-role rates", _cmd_analytic, None),
                                    ("simulate", "Monte-Carlo per-role rates", _cmd_simulate, 200_000)):
        p = sub.add_parser(name, help=help_)
        common(p, trials)
        p.add_argument("--state", default="random", choices=("random", "aligned", "uniform"),
                       help="surface state used for the evaluation")
        p.add_argument("--cluster", type=int, default=1)
        p.set_defaults(fn=fn)

    p = sub.add_parser("cluster", help="print the users of every clustering or pairing group")
    common(p)
    p.add_argument("--scheme", default="cluster", choices=("cluster", "pair"))
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser(
        "optimize",
        help="projected gradient surface design on the paper's ratio-of-means sum rate",
        description="Projected gradient surface design.  The objective is the paper's closed-form "
                    "(ratio-of-means) weighted sum rate, so the design reproduces the paper's; "
                    "analytic rate tables use the exact-signal model instead.",
    )
    common(p)
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--state", default="aligned", choices=("random", "aligned", "uniform"))
    p.add_argument("--trace", help="objective trace CSV path")
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("sweep", help="named figure experiments")
    common(p, trials=100_000)
    p.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p.add_argument("--grid", type=float, nargs="+", help="sweep grid values")
    p.add_argument("--param", help="config field for the custom sweep")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
