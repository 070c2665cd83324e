"""Clustering-versus-pairing comparison harness.

Rates the near-far pairing baseline (2-user groups) with the same role table
as the 3-user clusters: each pair, and the lone median user's slot, is a
NOMA group of rates.noma_roles.  Its Schedule (pair_schedule) is read by the
clusters' closed-form reader (simulator.rate_groups) and run through their
block loop (simulator.simulate_groups) with a layout of its own; a grid of
points shares one draw there, as the clusters' does.

Also implements the power policy of the comparison experiment, one body
(_group_powers) for clusters and pairs alike: spend whatever power the
cell-edge users need to reach their target rates, and split the rest over
the cell-center users at the best ratio-of-means sum rate, in closed form
(_center_split).  cluster_power_policy and pair_power_policy only choose
the groups, the time shares and the DL edge floor.

Pairing order approximations mirror the cluster analysis: center users are
ranked by BS distance (exact), edge users by surface distance standing in for
their BS ranking; the simulated pairing ranks by realized BS distance.  Both
hold only while every center user is nearer the BS than every edge user,
which pair_groups requires of the geometry.  The same requirement makes the
simulated layout exact class by class (ranked_layout): the joint BS-distance
ranks of a direction are its center users' ranks, then its edge users', so
the center users are drawn at their ranks as the clusters' are, and only the
few edge users are sorted.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import StarRisState
from .config import PowerAllocation, SystemConfig
from .rates import (
    Member,
    _is_rate,
    bind,
    cached_surface_terms,
    cluster_group,
    group_tables,
    mean_signal_and_denominator,
    solve_sinr,
)
from .simulator import (
    _DEFAULT_BLOCK,
    Schedule,
    as_points,
    class_layout,
    cluster_schedule,
    rate_groups,
    simulate_groups,
)

__all__ = [
    "pair_groups",
    "ranked_layout",
    "pair_schedule",
    "pair_rate_sums",
    "simulate_pair_sums",
    "reference_edge_targets",
    "cluster_power_policy",
    "pair_power_policy",
]


def pair_groups(cfg: SystemConfig) -> list:
    """The pairing schedule as NOMA groups (dl users, ul users), strong first.

    Pair j holds the users of BS-distance ranks j and K + 1 - j of each
    direction's K users; ranks 1..K_center are center users, the rest edge
    users ordered from the nearest.  An odd K leaves the median user a lone
    slot, last.  Both directions share the schedule, so their totals must be
    equal.  Bearings: an edge user has the edge users' (r,u3d / r,u3u), a
    weak center member the mid users' (r,u2d / r,u2u), any other center user
    the strong users' (r,u1d / r,u1u).  The ranks assume every center user
    nearer the BS than every edge user, so the disks must not overlap:
    d_br - R_r >= R.
    """
    if cfg.d_br - cfg.R_r < cfg.R:
        raise ValueError(
            f"the pairing needs the edge disk outside the center disk: d_br - R_r = {cfg.d_br - cfg.R_r:g} "
            f"must be at least R = {cfg.R:g} (d_br = {cfg.d_br:g}, R_r = {cfg.R_r:g})"
        )
    K = cfg.K_cd + cfg.K_ed
    if cfg.K_cu + cfg.K_eu != K:
        raise ValueError(
            f"same pair count per direction required, and a lone median slot in both or neither: K_cd + K_ed = "
            f"{cfg.K_cd} + {cfg.K_ed} = {K} but K_cu + K_eu = {cfg.K_cu} + {cfg.K_eu} = {cfg.K_cu + cfg.K_eu}"
        )
    centers = {"DL": cfg.K_cd, "UL": cfg.K_cu}

    def member(direction, q, weak=False):
        kind, order = ("center", q) if q <= centers[direction] else ("edge", q - centers[direction])
        index = 3 if kind == "edge" else 2 if weak else 1
        return Member(kind, direction, order, f"r,u{index}{direction[0].lower()}")

    groups = [
        tuple([member(d, j), member(d, K + 1 - j, weak=True)] for d in ("DL", "UL")) for j in range(1, K // 2 + 1)
    ]
    if K % 2 == 1:
        groups.append(tuple([member(d, K // 2 + 1)] for d in ("DL", "UL")))
    return groups


def _slot_powers(cfg: SystemConfig, allocations, groups) -> list:
    """The allocation of every slot: one given per pair, then the lone slot's at full power."""
    if len(allocations) != sum(len(dl) == 2 for dl, _ in groups):
        raise ValueError("one allocation per pair required")
    return [*allocations] + [PowerAllocation((1.0,), (cfg.p_um,))] * (len(groups) - len(allocations))


def pair_rate_sums(cfg: SystemConfig, allocations, state: StarRisState):
    """Analytic DL and UL sum rates of the pairing baseline.

    allocations is one PowerAllocation per pair (applied to both directions).
    Returns (dl_sum, ul_sum) over all slots, each carrying a 1/n_slots time
    share; with an odd user count the last slot holds the lone median user at
    full power.  As in rate_report's default (exact-signal) model, a strong
    member that is a center user, decoded first, has its log averaged
    exactly over its direct-link signal, its interference held at the mean.
    """
    sums = rate_groups([pair_schedule([cfg], [allocations], state)])[0][0][1]
    return sums["dl_sum"], sums["ul_sum"]


def ranked_layout(cfg: SystemConfig):
    """Pairing layout (simulator.class_layout): each direction's users ranked by
    BS distance, its center class first.

    pair_groups requires d_br - R_r >= R, so every center user is nearer the
    BS than every edge user, and the joint BS-distance ranks 1..K_center are
    the center users' own ranks, the rest the edge users' in order.  So the
    center users are drawn at the ranks asked for, as the clusters' are, and
    only the K_edge edge users of a direction are drawn whole and sorted: at
    surface distance r and bearing t, an edge user's squared BS distance is
    d_br^2 + r^2 + 2 d_br r cos t.  An edge user's position is not handed
    out (only center users have cross keys), but its BS distance is, as
    `starnoma cluster` prints it.  The ranked rows are one (ranks, B) array
    each; the bearings t are rng.uniform(0, 2 pi)'s values, drawn as 2 pi
    times rng.random().
    """
    def edge(ranks, K):
        cols = np.subtract(ranks, 1)

        def draw(rng, B):
            r = rng.random((B, K))
            r = np.sqrt(r, out=r)
            r *= cfg.R_r
            d2 = rng.random((B, K))
            d2 *= 2.0 * np.pi
            d2 = np.cos(d2, out=d2)
            d2 *= 2.0 * cfg.d_br
            d2 += r
            d2 *= r
            d2 += cfg.d_br**2
            d_bs, surface = np.empty((len(ranks), B)), np.empty((len(ranks), B))
            ranked = np.argsort(d2, kind="stable", axis=-1)[:, cols]
            d_bs[:] = np.take_along_axis(d2, ranked, axis=-1).T
            surface[:] = np.take_along_axis(r, ranked, axis=-1).T
            return np.sqrt(d_bs, out=d_bs), surface

        return draw

    return class_layout(cfg, [("center", "DL"), ("edge", "DL"), ("center", "UL"), ("edge", "UL")], edge)


def pair_schedule(cfgs, allocations, state: StarRisState) -> Schedule:
    """The pairing's request to the block loop at every point of cfgs, all off one draw,
    as simulator.cluster_schedule; allocations gives each point's list, one
    PowerAllocation per pair, and a lone median slot sends at full power."""
    points = as_points(cfgs, allocations)
    cfg = points[0][0]
    groups = pair_groups(cfg)
    return Schedule(
        [(point, _slot_powers(point, allocs, groups)) for point, allocs in points], groups,
        {"DL": len(groups), "UL": len(groups)}, ranked_layout(cfg), state,
    )


def simulate_pair_sums(
    cfg: SystemConfig,
    allocations,
    state: StarRisState,
    trials: int,
    seed: int,
    block_size: int = _DEFAULT_BLOCK,
):
    """Monte-Carlo DL and UL pairing sum rates with realized orderings.

    allocations is one PowerAllocation per pair.  Returns {dl_sum, ul_sum}
    and their standard errors.
    """
    return simulate_groups([pair_schedule([cfg], [allocations], state)], trials, seed, block_size)[0][0][1]


# -- shared power policy ------------------------------------------------------


def _edge_power(role, means: dict, g: float, v0, dv, lo: float, hi: float) -> float:
    """The step at which the edge role's SINR reaches g (rates.solve_sinr), clamped to [lo, hi];
    with a zero signal mean (a dark surface face), lo for a zero target and hi for a positive one."""
    if means[role.signal.key] == 0.0:
        return lo if g == 0.0 else hi
    return min(max(solve_sinr(role, means, g, v0, dv), lo), hi)


def _center_split(roles, means: dict, x_at, lo: float = 0.02, hi: float = 0.48) -> float:
    """The f in [lo, hi] with the best ratio-of-means sum rate of two roles bound at x_at(f).

    f is the strong member's share of the center DL budget, below half by
    default to keep the NOMA ordering.

    x_at is affine in f, so each role's mean signal S and denominator D are
    too, and d/df ln(1 + S/D) = k / ((D + S) D) with k = S'D - S D' constant:
    the stationary points are the real zeros of the quadratic k1 (D2 + S2) D2
    + k2 (D1 + S1) D1 (the cubic of the four log terms loses its leading
    term), solved in closed form by _quadratic_roots.  The objective is
    compared at lo, hi and the zeros between.
    """
    lines, polys = [], []   # each role's (S, S', D, D'); its k and (D + S) D, ascending in f
    for role in roles:
        (s, d), (s1, d1) = (mean_signal_and_denominator(bind(role, x_at(f)), means) for f in (0.0, 1.0))
        ds, dd = s1 - s, d1 - d
        lines.append((s, ds, d, dd))
        polys.append((ds * d - s * dd, np.array([(s + d) * d, (s + d) * dd + (ds + dd) * d, (ds + dd) * dd])))
    (k1, q1), (k2, q2) = polys
    roots = [r for r in _quadratic_roots(*map(float, k1 * q2 + k2 * q1)) if lo < r < hi]
    return max([lo, hi, *roots], key=lambda f: sum(math.log1p((s + f * ds) / (d + f * dd)) for s, ds, d, dd in lines))


def _quadratic_roots(c0: float, c1: float, c2: float) -> list:
    """The real zeros of c0 + c1 f + c2 f^2, without cancellation.

    q = -(c1 + sign(c1) sqrt(c1^2 - 4 c2 c0)) / 2 adds two terms of one sign,
    and the zeros are q / c2 and c0 / q (Numerical Recipes 5.6).  With c2 = 0
    the zero is -c0 / c1, or none if c1 = 0 too; a negative discriminant has
    none, and a double zero is returned twice.
    """
    if c2 == 0.0:
        return [] if c1 == 0.0 else [-c0 / c1]
    disc = c1 * c1 - 4.0 * c2 * c0
    if disc < 0.0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1))
    return [q / c2, c0 / q] if q != 0.0 else [0.0, 0.0]


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
    groups = rate_groups([cluster_schedule([cfg], [reference], state)])[0][0][0]
    clusters = range(1, min(cfg.M_d, cfg.M_u) + 1)
    return ({j: rates["DL3"] for j, rates in zip(clusters, groups)},
            {j: rates["UL3"] for j, rates in zip(clusters, groups)})


def _edge_targets(cfg, state, dl_edge_targets, ul_edge_targets):
    """DL and UL edge target maps: a scalar holds for every cluster, None takes the reference rates.

    A target that is not a finite nonnegative number, or an empty map, is rejected, naming its argument.
    """
    given = {"dl_edge_targets": dl_edge_targets, "ul_edge_targets": ul_edge_targets}
    reference = reference_edge_targets(cfg, state) if None in given.values() else (None, None)
    clusters = range(1, min(cfg.M_d, cfg.M_u) + 1)
    out = []
    for (name, t), ref in zip(given.items(), reference):
        if t is None:
            out.append(ref)
            continue
        values = list(t.values()) if isinstance(t, dict) else [t]
        if not values or not all(map(_is_rate, values)):
            raise ValueError(f"{name} must be a finite nonnegative rate or a nonempty map of them, got {t!r}")
        out.append(dict(t) if isinstance(t, dict) else dict.fromkeys(clusters, float(t)))
    return tuple(out)


def _group_powers(cfg, state, groups, shares, dl_floor, dl_edge_targets, ul_edge_targets) -> list:
    """The PowerAllocation of every NOMA group (dl users, ul users), strong first: the one power policy.

    Center UL users send at the cap.  A weakest member that is an edge user
    gets the power its target needs at a 1/shares[direction] time share
    (each SINR is linear in that power), clamped to [1e-9 p_um, p_um] (UL)
    or [dl_floor, 0.95] (DL).  Its target is that of its cluster, DL
    K_ed + 1 - order and UL order, or the smallest one if no cluster holds
    it.  The center DL members share the rest, two of them by _center_split.
    """
    dl_t, ul_t = _edge_targets(cfg, state, dl_edge_targets, ul_edge_targets)
    surface = cached_surface_terms(cfg, state)

    def gain(targets, cluster, share):
        return 2.0 ** (share * targets.get(cluster, min(targets.values()))) - 1.0

    out = []
    for (dl, ul), table in zip(groups, group_tables(cfg, groups)):
        roles, means = {r.name: r for r in table.roles}, table.means(surface)
        nd, nu = len(dl), len(ul)
        p = [cfg.p_um] * nu
        if ul[-1].kind == "edge":
            v0, dv = (0.0,) * nd + (*p[:-1], 0.0), (0.0,) * (nd + nu - 1) + (1.0,)
            g = gain(ul_t, ul[-1].order, shares["UL"])
            p[-1] = _edge_power(roles[f"UL{nu}"], means, g, v0, dv, 1e-9 * cfg.p_um, cfg.p_um)
        edge, rest = (), 1.0
        if dl[-1].kind == "edge":
            # the edge coefficient comes out of the strong member's, and only the center sum enters its SINR
            v0, dv = (1.0,) + (0.0,) * (nd - 1) + tuple(p), (-1.0,) + (0.0,) * (nd - 2) + (1.0,) + (0.0,) * nu
            g = gain(dl_t, cfg.K_ed + 1 - dl[-1].order, shares["DL"])
            edge = (_edge_power(roles[f"DL{nd}"], means, g, v0, dv, dl_floor, 0.95),)
            rest = 1.0 - edge[0]
        center = (rest,)
        if nd - len(edge) == 2:
            f = _center_split((roles["DL1"], roles["DL2"]), means, lambda f: (f * rest, rest - f * rest, *edge, *p, 1.0))
            center = (f * rest, (1 - f) * rest)
        out.append(PowerAllocation((*center, *edge), p))
    return out


def cluster_power_policy(cfg: SystemConfig, state: StarRisState, dl_edge_targets=None, ul_edge_targets=None) -> dict:
    """{cluster: PowerAllocation} of the shared policy (_group_powers).

    Targets may be a scalar, a {cluster: rate} map, or None for the
    reference-derived defaults.  Each direction's share is its cluster
    count, and the DL edge floor alpha3 >= 0.45 keeps the NOMA ordering.
    """
    clusters = range(1, min(cfg.M_d, cfg.M_u) + 1)
    groups = [cluster_group(cfg, j) for j in clusters]
    powers = _group_powers(cfg, state, groups, {"DL": cfg.M_d, "UL": cfg.M_u}, 0.45, dl_edge_targets, ul_edge_targets)
    return dict(zip(clusters, powers))


def pair_power_policy(cfg: SystemConfig, state: StarRisState, dl_edge_targets=None, ul_edge_targets=None) -> list:
    """[PowerAllocation] of the shared policy (_group_powers), one per pair, targets as for clusters.

    Pair j carries the same edge user as cluster j; a pair without one
    splits the full DL budget.  Known mismatch, kept until the benchmark's
    reference band is recaptured: the targets are inverted at a
    1/len(pairs) share (1/4 at baseline), but the pairing rates give all
    len(pair_groups(cfg)) = 5 slots 1/5, so edge users get 4/5 of them.
    """
    pairs = [group for group in pair_groups(cfg) if len(group[0]) == 2]
    share = len(pairs)   # the known mismatch, the one constant its fix changes
    return _group_powers(cfg, state, pairs, {"DL": share, "UL": share}, 0.55, dl_edge_targets, ul_edge_targets)
