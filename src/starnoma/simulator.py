"""Monte-Carlo ground truth for the closed-form rate analysis.

Each trial drops fresh user positions, sorts and clusters them, draws every
fading realization, and evaluates the exact per-role SINRs; rates accumulate
as (1/M) * log2(1 + SINR).  The SINRs are those of the role table
(rates.noma_roles): sample_gains() draws one per-trial array per gain key,
once per block and group, and role_sinrs() combines them with the table's
coefficients, so imperfect SIC enters exactly as in the closed forms.  The
residual self-interference is drawn per trial as a CN(0, beta * P_b^lambda)
scalar.  simulate_groups() is the one block loop: the clusters here and the
pairing baseline (comparison.simulate_pair_sums) differ only in its schedule
of groups, time shares and layout.

Block seeds are spawned from one SeedSequence, so a block's draws depend on
the seed, the trial count and the block size alone.  The blocks run on one
thread per core this process may use (numpy's generators and array
arithmetic release the interpreter lock), each returning only its moments
(n, sum r, sum r^2) per point, group and role and of each point's DL and UL
totals; these are merged in block order, the float additions of a serial
loop, so the bytes of a run do not depend on the core count.  Each block in
flight holds about 21 MB at N = 10 and the default 16,384 trials per block.

The loop runs a whole grid of points at once.  A draw depends only on the
geometry, N, the user counts, the Rician factors, the bearings, the surface
state, the seed, the trial count and the block size; SNR, the SIC and SI
impairments, the powers and the noise reach the simulator only through the
bound role coefficients and the SI scale (POINT_FIELDS).  So every point of
a grid reads the same draw of each block: the layout, the block's shared
draws and each group's gains are drawn once, then every point evaluates its
own SINRs from them, with the arithmetic and the accumulation order of a
one-point run.  A points call therefore returns, bit for bit, what one call
per point returns.  Points that differ in a field of the draw are rejected.

estimate_expectation() evaluates exactly the random quantity behind each
closed-form expectation term, which is what makes the term-level oracle
checks agree to within Monte-Carlo error (no log, no ratio approximation).
The same holds for the strong users' log-means of the exact-signal model
(LOG_MEAN_KEYS): the log of their SINR with the interference at its mean,
averaged over their position and fading.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields

import numpy as np

from .channel import StarRisState, build_links, sample_rician
from .config import PowerAllocation, SystemConfig, default_power_allocation
from .geometry import sample_disk
from .rates import (
    BS,
    RateReport,
    ROLES,
    _OMEGA_PATHS,
    bind,
    build_rate_inputs,
    check_state_size,
    cluster_members,
    cluster_orders,
    cluster_roles,
    dl_strong_scales,
    expectation_terms,
    pathloss,
    power_vector,
    role_rates,
    si_variance,
    surface_terms,
    table_keys,
    ul_strong_scale,
)

__all__ = [
    "SimPlan",
    "sample_gains",
    "role_sinrs",
    "simulate",
    "simulate_clusters",
    "simulate_groups",
    "as_points",
    "draw_key",
    "POINT_FIELDS",
    "estimate_expectation",
    "analytic_expectation",
    "EXPECTATION_KEYS",
    "LOG_MEAN_KEYS",
]

_DEFAULT_BLOCK = 1 << 14


@dataclass(frozen=True)
class SimPlan:
    """One simulation request: what to run and how to seed it."""

    cfg: SystemConfig
    power: PowerAllocation
    state: StarRisState
    trials: int = 200_000
    seed: int = 0
    cluster: int = 1
    block_size: int = _DEFAULT_BLOCK

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _draw_power(rng: np.random.Generator, shape) -> np.ndarray:
    """|CN(0, 1)|^2 draws, filled in place with the bits of
    np.abs((x + 1j * y) / np.sqrt(2.0)) ** 2 (as channel.sample_rician)."""
    z = np.empty(shape, dtype=complex)
    for part in (z.real, z.imag):
        part[...] = rng.standard_normal(shape)
        part *= 1.0 / np.sqrt(2.0)
    power = np.abs(z)
    return np.square(power, out=power)


def _moments(values: np.ndarray) -> tuple:
    """(n, sum, sum of squares) of per-trial values."""
    return values.size, float(np.sum(values)), float(np.sum(values * values))


class _Accumulator:
    """Streaming mean/stderr, merged from per-block moments."""

    def __init__(self):
        self.n = 0
        self.s = 0.0
        self.s2 = 0.0

    def merge(self, moments: tuple):
        n, s, s2 = moments
        self.n += n
        self.s += s
        self.s2 += s2

    def add(self, values: np.ndarray):
        self.merge(_moments(values))

    @property
    def mean(self) -> float:
        return self.s / self.n

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return float("nan")
        var = max(self.s2 / self.n - self.mean**2, 0.0) * self.n / (self.n - 1)
        return math.sqrt(var / self.n)


def _blocks(trials: int, seed: int, block_size: int):
    """(size, generator) of each block; the seeds are spawned from one SeedSequence."""
    nblocks = (trials + block_size - 1) // block_size
    for b, block_seed in enumerate(np.random.SeedSequence(seed).spawn(nblocks)):
        yield min(block_size, trials - b * block_size), np.random.default_rng(block_seed)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_blocks(run, blocks) -> list:
    """[run(B, rng) for each block], in block order, on one thread per core.

    The calling thread takes blocks 0, w, 2w, ... of w workers and thread i
    blocks i, i + w, ...; each writes only its own slots.  An exception in
    any block stops the others at their next block and is raised here once
    every thread has ended.
    """
    blocks = list(blocks)
    workers = min(_cores(), len(blocks))
    results = [None] * len(blocks)
    errors = []

    def work(first):
        try:
            for i in range(first, len(blocks), workers):
                if errors:
                    return
                results[i] = run(*blocks[i])
        except BaseException as exc:   # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


@dataclass(frozen=True)
class BlockDraws:
    """What one block of trials shares across its groups and points: the
    BS-surface vector, the BS's own signal off the surface and the unit
    residual SI |CN(0, 1)|^2, which each point scales by its si_variance."""

    g_br: np.ndarray
    bounce: np.ndarray
    si: np.ndarray
    coeffs: dict      # face -> element coefficients rho * exp(j*phi)
    l_br: float
    m: float

    @classmethod
    def draw(cls, cfg, state, links, rng, B):
        g_br = sample_rician(links["b,r"], rng, trials=B)
        si = _draw_power(rng, B)
        c = {side: state.coefficients(side) for side in ("t", "r")}
        l_br = pathloss(cfg.d_br, cfg.m)
        bounce = l_br * l_br * np.abs(np.sum(np.abs(g_br) ** 2 * c["t"], axis=-1)) ** 2
        return cls(g_br, bounce, si, c, l_br, cfg.m)


def _scalar_rank(key) -> int:
    # the Rayleigh scalars of a group are one block, in this column order: DL direct
    # links, cross links, UL direct links (the order fixes every seed's numbers)
    return 1 if key[0] == "cross" else 0 if key[1].direction == "DL" else 2


def _cascade_power(g_out, c, g_in) -> np.ndarray:
    """|sum_n g_out[n] c[n] g_in[n]|^2 per trial, with one (trials, N) temporary."""
    t = g_out * c
    t *= g_in
    return np.abs(np.sum(t, axis=-1)) ** 2


def sample_gains(roles, members, geo, links, rng, block: BlockDraws) -> dict:
    """One per-trial array for every gain key of a role table.

    geo maps each user to its (position, BS distance, surface distance)
    arrays.  The ("si",) gain is the block's unit draw, before any point's
    SI scale.  The Rayleigh scalars of the direct and cross keys are drawn
    first, as one block, then one fading vector per user that a cascade
    reaches, in the order of members.  A cascade is evaluated as soon as
    both its vectors are drawn, and a vector is dropped after its last
    cascade, so few (trials, N) vectors are alive at once.
    """
    keys = table_keys(roles)
    B = len(block.si)
    scalar = sorted((k for k in keys if k[0] in ("direct", "cross")), key=_scalar_rank)
    h = _draw_power(rng, (B, len(scalar)))

    def surface_loss(u):
        return block.l_br if u.kind == "bs" else pathloss(geo[u][2], block.m)

    gains = {("bounce",): block.bounce, ("si",): block.si}
    for col, key in enumerate(scalar):
        if key[0] == "direct":
            loss = pathloss(geo[key[1]][1], block.m)
        else:
            loss = pathloss(np.linalg.norm(geo[key[1]][0] - geo[key[2]][0], axis=-1), block.m)
        gains[key] = loss * h[:, col]
    del h
    pending = [k for k in keys if k[0] == "cascade"]
    vec = {BS: block.g_br}
    for u in members:
        if any(u in k[2:] for k in pending):
            vec[u] = sample_rician(links[u.link], rng, trials=B)
        for key in [k for k in pending if k[2] in vec and k[3] in vec]:
            pending.remove(key)
            _, side, out, inp = key
            gains[key] = surface_loss(out) * surface_loss(inp) * _cascade_power(vec[out], block.coeffs[side], vec[inp])
        for v in [v for v in vec if v != BS and not any(v in k[2:] for k in pending)]:
            del vec[v]
    return gains


def role_sinrs(bound, gains) -> dict:
    """Per-trial SINR of every bound role (rates.bind), from sampled gains."""
    out = {}
    for role in bound:
        den = sum(t.coef * gains[t.key] for t in role.interference) + role.noise
        out[role.name] = role.signal.coef * gains[role.signal.key] / den
    return out


# SystemConfig fields that may differ between the points of one draw: they reach
# the simulator only through the bound role coefficients and the SI scale
POINT_FIELDS = frozenset({"xi_sic", "beta_si", "lambda_si", "sigma2", "P_b", "p_um", "weights_dl", "weights_ul",
                          "allocation"})


def draw_key(cfg: SystemConfig) -> tuple:
    """The (field, value) pairs of every config field that fixes a draw, hashable:
    points with equal keys (and one surface state) can share one draw."""
    key = []
    for f in fields(cfg):
        if f.name not in POINT_FIELDS:
            value = getattr(cfg, f.name)
            key.append((f.name, tuple(sorted(value.items())) if isinstance(value, dict) else value))
    return tuple(key)


def _shared_draw(cfgs) -> SystemConfig:
    """The first config, once every other one is known to fix the same draw."""
    key = draw_key(cfgs[0])
    for cfg in cfgs[1:]:
        for (name, want), (_, got) in zip(key, draw_key(cfg)):
            if got != want:
                raise ValueError(f"points cannot share a draw: they differ in {name} ({want!r} vs {got!r})")
    return cfgs[0]


def simulate_groups(points, state, shares, layout, trials, seed, block_size=_DEFAULT_BLOCK):
    """The block loop: every NOMA group of a schedule, at every point of a grid,
    off one network realization per trial.

    points holds (cfg, schedule) per point, the configs differing in
    POINT_FIELDS only; a schedule holds (users, bound) per group: its users
    in sampling order, the same at every point, and its role table bound to
    the point's variables (rates.bind).  shares maps "DL" and "UL" to the
    time-share divisor of that direction.  layout(rng, B, users) draws a
    block's positions and returns {user: (position, BS distance, surface
    distance)} for the given users.  Each block draws the layout, its
    BlockDraws, then each group's gains in schedule order; every point
    evaluates its SINRs from them.  The blocks run concurrently (_map_blocks)
    and their moments merge in block order.  Returns one ([{role:
    accumulator} per group], {dl_sum, ul_sum and their stderrs}) per point.
    """
    cfg = _shared_draw([c for c, _ in points])
    check_state_size(cfg, state.N)
    links = build_links(cfg)
    first = points[0][1]
    users = [u for group_users, _ in first for u in group_users]
    si_scales = [si_variance(c) for c, _ in points]

    def run_block(B, rng):
        """Moments of one block: ([{role: moments} per group], {direction: moments}) per point."""
        geo = layout(rng, B, users)
        block = BlockDraws.draw(cfg, state, links, rng, B)
        si = [scale * block.si for scale in si_scales]
        out = [([{} for _ in first], {"DL": np.zeros(B), "UL": np.zeros(B)}) for _ in points]
        for g, (group_users, bound) in enumerate(first):
            gains = sample_gains(bound, group_users, geo, links, rng, block)
            for (_, schedule), point_si, (moments, tot) in zip(points, si, out):
                gains[("si",)] = point_si
                for name, sinr in role_sinrs(schedule[g][1], gains).items():
                    r = np.log2(1.0 + sinr) / shares[name[:2]]
                    moments[g][name] = _moments(r)
                    tot[name[:2]] += r
        return [(moments, {d: _moments(total) for d, total in tot.items()}) for moments, tot in out]

    acc = [[{role.name: _Accumulator() for role in bound} for _, bound in schedule] for _, schedule in points]
    acc_sum = [{"DL": _Accumulator(), "UL": _Accumulator()} for _ in points]
    for block in _map_blocks(run_block, _blocks(trials, seed, block_size)):
        for (moments, sums), point_acc, point_sum in zip(block, acc, acc_sum):
            for group_moments, group_acc in zip(moments, point_acc):
                for name, m in group_moments.items():
                    group_acc[name].merge(m)
            for d, m in sums.items():
                point_sum[d].merge(m)
    out = []
    for point_acc, point_sum in zip(acc, acc_sum):
        dl, ul = point_sum["DL"], point_sum["UL"]
        out.append((point_acc, {"dl_sum": dl.mean, "dl_sum_stderr": dl.stderr,
                                "ul_sum": ul.mean, "ul_sum_stderr": ul.stderr}))
    return out


def as_points(cfg, setting) -> tuple:
    """([(cfg, setting) per point], one): a simulator's config and power arguments as points.

    cfg is one SystemConfig with setting its powers (one is then True), or a
    sequence of configs with setting a sequence of the same length.
    """
    if isinstance(cfg, SystemConfig):
        return [(cfg, setting)], True
    cfg, setting = list(cfg), list(setting)
    if not cfg or len(cfg) != len(setting):
        raise ValueError(f"points need one setting per config, got {len(cfg)} configs and {len(setting)} settings")
    return list(zip(cfg, setting)), False


def _sorted_layout(cfg):
    """Cluster layout: each user class dropped and sorted by distance to its anchor
    (BS or surface).  The drops are freed once the users are resolved."""
    sc = np.array([cfg.d_br, 0.0])
    counts = {
        ("center", "DL"): cfg.K_cd, ("center", "UL"): cfg.K_cu, ("edge", "DL"): cfg.K_ed, ("edge", "UL"): cfg.K_eu,
    }

    def layout(rng, B, users):
        rows, geo, drops = np.arange(B), {}, {}
        for (kind, direction), count in counts.items():
            radius, anchor = (cfg.R, np.zeros(2)) if kind == "center" else (cfg.R_r, sc)
            pts = sample_disk(rng, B * count, radius, center=anchor).reshape(B, count, 2)
            dist = np.linalg.norm(pts - anchor, axis=-1)
            drops[kind, direction] = pts, dist, np.argsort(dist, kind="stable", axis=-1)
        for (kind, direction), (pts, dist, order) in drops.items():
            for u in users:
                if (u.kind, u.direction) == (kind, direction):
                    idx = order[:, u.order - 1]
                    pos, d = pts[rows, idx], dist[rows, idx]
                    geo[u] = (pos, d, np.linalg.norm(pos - sc, axis=-1)) if kind == "center" else (pos, None, d)
        return geo

    return layout


def simulate_clusters(
    cfg: SystemConfig,
    powers,
    state: StarRisState,
    trials: int,
    seed: int,
    clusters=None,
    block_size: int = _DEFAULT_BLOCK,
):
    """Simulate the requested clusters off one shared network realization per trial.

    powers may be a single PowerAllocation or a {cluster: PowerAllocation}
    map.  Returns ({cluster: RateReport}, totals) where totals carries the
    per-trial network sums over all simulated clusters.

    For a grid, cfg is a list of configs (differing in POINT_FIELDS only) and
    powers a list of the same length: every point reads the same draw, and
    the result is the list of what one call per point returns.
    """
    points, one = as_points(cfg, powers)
    cfg = points[0][0]
    if clusters is None:
        clusters = list(range(1, min(cfg.M_d, cfg.M_u) + 1))
    clusters = sorted(int(j) for j in clusters)
    members = [cluster_members(cfg, j) for j in clusters]

    def schedule(point, power):
        if isinstance(power, PowerAllocation):
            power = {j: power for j in clusters}
        return [
            (users, tuple(bind(r, power_vector(power[j])) for r in cluster_roles(point, j)))
            for j, users in zip(clusters, members)
        ]

    results = simulate_groups(
        [(point, schedule(point, power)) for point, power in points], state, {"DL": cfg.M_d, "UL": cfg.M_u},
        _sorted_layout(cfg), trials, seed, block_size,
    )
    out = []
    for acc, sums in results:
        reports = {}
        for j, group_acc in zip(clusters, acc):
            rates, stderr = ({role: getattr(group_acc[role], stat) for role in ROLES} for stat in ("mean", "stderr"))
            reports[j] = RateReport(rates=rates, stderr=stderr, method="simulated", cluster=j, trials=trials, seed=seed)
        out.append((reports, sums))
    return out[0] if one else out


def simulate(plan: SimPlan) -> RateReport:
    """Monte-Carlo rate report for one cluster of the plan's config."""
    reports, _ = simulate_clusters(
        plan.cfg, plan.power, plan.state, plan.trials, plan.seed,
        clusters=[plan.cluster], block_size=plan.block_size,
    )
    return reports[plan.cluster]


# -- term-level oracle ------------------------------------------------------

EXPECTATION_KEYS = (
    "x1_u1d", "x1_u2d", "x1_u3d", "x1_u3u", "chi_u1u", "chi_u2u",
    "y1", "q_center", "y2_u1d", "y1_u3d", "y2_u3d",
    "omega_u1d_u3u", "omega_u2d_u3u", "omega_u3d_br", "omega_u3d_u1u",
    "omega_u3d_u2u", "omega_u3d_u3u", "omega_br_u3u", "y3",
)

# E log2(1 + SINR) of the DL and UL strong user at the config's default
# power allocation, interference at its mean: M times the exact-signal rate
LOG_MEAN_KEYS = ("log_u1d", "log_u1u")

_ORDER_KEY = {
    "x1_u1d": ("k_cd1", "K_cd", "R"),
    "x1_u2d": ("k_cd2", "K_cd", "R"),
    "x1_u3d": ("k_ed3", "K_ed", "R_r"),
    "x1_u3u": ("k_eu3", "K_eu", "R_r"),
    "chi_u1u": ("k_cu1", "K_cu", "R"),
    "chi_u2u": ("k_cu2", "K_cu", "R"),
}

def _ordered_draw(rng, B, k, K, radius, m):
    r = np.sort(radius * np.sqrt(rng.random((B, K))), axis=1)[:, k - 1]
    return pathloss(r, m)


def _outside_draw(rng, B, cfg):
    pts = sample_disk(rng, B, cfg.R)
    d = np.linalg.norm(pts - np.array([cfg.d_br, 0.0]), axis=-1)
    return pathloss(d, cfg.m)


def estimate_expectation(
    key: str,
    cfg: SystemConfig,
    state: StarRisState,
    trials: int = 1_000_000,
    seed: int = 0,
    cluster: int = 1,
    block_size: int = 1 << 16,
):
    """Monte-Carlo estimate (mean, stderr) of one closed-form expectation term.

    Each key names exactly the random quantity whose mean the corresponding
    closed form claims, so agreement is exact up to Monte-Carlo error.
    """
    if key not in EXPECTATION_KEYS + LOG_MEAN_KEYS:
        raise KeyError(f"unknown expectation key {key!r}")
    k = cluster_orders(cfg, cluster)
    links = build_links(cfg)
    if key in LOG_MEAN_KEYS:
        inputs = build_rate_inputs(cfg, default_power_allocation(cfg), state, cluster)
    acc = _Accumulator()
    for B, rng in _blocks(trials, seed, block_size):
        if key in _ORDER_KEY:
            kname, Kname, Rname = _ORDER_KEY[key]
            vals = _ordered_draw(rng, B, k[kname], getattr(cfg, Kname), getattr(cfg, Rname), cfg.m)
        elif key == "y1":
            p1 = sample_disk(rng, B, cfg.R)
            p2 = sample_disk(rng, B, cfg.R)
            vals = pathloss(np.linalg.norm(p1 - p2, axis=-1), cfg.m)
        elif key == "q_center":
            vals = _outside_draw(rng, B, cfg)
        elif key == "y2_u1d":
            vals = _ordered_draw(rng, B, k["k_eu3"], cfg.K_eu, cfg.R_r, cfg.m) * _outside_draw(rng, B, cfg)
        elif key == "y1_u3d":
            vals = _ordered_draw(rng, B, k["k_ed3"], cfg.K_ed, cfg.R_r, cfg.m) * _outside_draw(rng, B, cfg)
        elif key == "y2_u3d":
            vals = _ordered_draw(rng, B, k["k_ed3"], cfg.K_ed, cfg.R_r, cfg.m) * _ordered_draw(
                rng, B, k["k_eu3"], cfg.K_eu, cfg.R_r, cfg.m
            )
        elif key in _OMEGA_PATHS:
            out_lbl, side, in_lbl = _OMEGA_PATHS[key]
            go = sample_rician(links[out_lbl], rng, trials=B)
            gi = sample_rician(links[in_lbl], rng, trials=B)
            vals = np.abs(np.sum(go * state.coefficients(side) * gi, axis=-1)) ** 2
        elif key == "y3":
            g = sample_rician(links["b,r"], rng, trials=B)
            vals = np.abs(np.sum(np.abs(g) ** 2 * state.coefficients("t"), axis=-1)) ** 2
        elif key == "log_u1d":
            gain = _ordered_draw(rng, B, k["k_cd1"], cfg.K_cd, cfg.R, cfg.m) * _draw_power(rng, B)
            total, residual = dl_strong_scales(inputs)
            vals = np.log2(1.0 + total * gain) - np.log2(1.0 + residual * gain)
        elif key == "log_u1u":
            gain = _ordered_draw(rng, B, k["k_cu1"], cfg.K_cu, cfg.R, cfg.m) * _draw_power(rng, B)
            vals = np.log2(1.0 + ul_strong_scale(inputs) * gain)
        acc.add(np.asarray(vals, dtype=float))
    return acc.mean, acc.stderr


def analytic_expectation(key: str, cfg: SystemConfig, state: StarRisState, cluster: int = 1) -> float:
    """Closed-form value matching estimate_expectation's key."""
    if key not in EXPECTATION_KEYS + LOG_MEAN_KEYS:
        raise KeyError(f"unknown expectation key {key!r}")
    if key in LOG_MEAN_KEYS:
        rates = role_rates(build_rate_inputs(cfg, default_power_allocation(cfg), state, cluster))
        return cfg.M_d * rates["DL1"] if key == "log_u1d" else cfg.M_u * rates["UL1"]
    t = expectation_terms(cfg, cluster)
    if key in _ORDER_KEY or key in ("y1", "q_center", "y2_u1d", "y1_u3d", "y2_u3d"):
        return getattr(t, key)
    s = surface_terms(cfg, state)
    if key == "y3":
        return s.y3_raw
    return getattr(s, key)
