"""The tests' oracles: the term oracle of the closed-form expectation terms and
the hypergeometric series that the disk path-loss rules are checked against.

estimate_expectation() evaluates exactly the random quantity behind each
closed-form expectation term, which is what makes the term-level oracle
checks agree to within Monte-Carlo error (no log, no ratio approximation).
The same holds for the strong users' log-means of the exact-signal model
(LOG_MEAN_KEYS): the log of their SINR with the interference at its mean,
averaged over their position and fading.  analytic_expectation() gives the
closed form of the same key.  The oracle runs on the simulator's own engine:
its blocks are seeded by simulator._blocks, served by _map_blocks' queue and
merged in block order (_merge), and it draws ordered distances, cascades and
surfaces as the simulator does (_rank_draw, _cascade_draw, Surface), so a
seed gives the same stream as the simulator's draws of the same law.

The hypergeometric series is the plain term-wise sum

    H({a}, {b}, x) = sum_{n>=0} [prod_i (a_i)_n / prod_j (b_j)_n] * x^n / n!

with Pochhammer symbols (a)_n.  No analytic continuation is attempted: if the
terms do not settle below the tolerance within the term cap, evaluation fails
loudly instead of returning a misleading partial sum.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from starnoma.channel import StarRisState, cached_links, sample_rician
from starnoma.config import SystemConfig, default_power_allocation
from starnoma.geometry import sample_disk
from starnoma.rates import (
    _OMEGA_PATHS,
    build_rate_inputs,
    cached_surface_terms,
    cluster_members,
    cluster_roles,
    expectation_terms,
    order_spec,
    pathloss,
    role_rates,
    table_keys,
    unit_gain_scales,
)
from starnoma.simulator import (
    Surface,
    _add_moments,
    _blocks,
    _cascade_draw,
    _estimate,
    _leaves,
    _map_blocks,
    _merge,
    _rank_draw,
)

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

# the cluster members (by index in rates.cluster_members) behind each position
# key: one member's own ordered path loss, or the product of two members'
# path losses to the surface
_POSITION_KEYS = {
    "x1_u1d": (0,), "x1_u2d": (1,), "x1_u3d": (2,), "chi_u1u": (3,), "chi_u2u": (4,), "x1_u3u": (5,),
    "y2_u1d": (5, 0), "y1_u3d": (2, 0), "y2_u3d": (2, 5),
}


def _ordered_draw(rng, B, spec, m):
    return pathloss(_rank_draw([spec.k], spec.K, spec.radius)(rng, B)[0], m)


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
    members = cluster_members(cfg, cluster)
    links = cached_links(cfg)
    if key in LOG_MEAN_KEYS:
        inputs = build_rate_inputs(cfg, default_power_allocation(cfg), state, cluster)
        role = inputs.bound[0 if key == "log_u1d" else 3]   # DL1 or UL1
        total, residual = unit_gain_scales(role, inputs.means())
        strong = order_spec(cfg, role.signal.key[1])
    if key in _OMEGA_PATHS:   # the cluster table's key of this path, drawn as the simulator draws it
        cascades = [k for k in table_keys(cluster_roles(cfg, cluster)) if k[0] == "cascade"]
        cascade = next(k for k in cascades if (k[2].link, k[1], k[3].link) == _OMEGA_PATHS[key])
        leaf = _leaves(cascades).get(cascade)
        faces = Surface.of(cfg, state, links).faces

    def member_draw(rng, B, u, at_surface):
        """A member's path loss to its anchor, or, at_surface, to the surface."""
        if at_surface and u.kind == "center":
            return _outside_draw(rng, B, cfg)
        return _ordered_draw(rng, B, order_spec(cfg, u), cfg.m)

    def draw(B, rng):
        """One block's moments of the key's random quantity."""
        if key in _POSITION_KEYS:
            users = [members[i] for i in _POSITION_KEYS[key]]
            vals = member_draw(rng, B, users[0], len(users) > 1)
            for u in users[1:]:
                vals = vals * member_draw(rng, B, u, True)
        elif key == "y1":
            p1 = sample_disk(rng, B, cfg.R)
            p2 = sample_disk(rng, B, cfg.R)
            vals = pathloss(np.linalg.norm(p1 - p2, axis=-1), cfg.m)
        elif key == "q_center":
            vals = _outside_draw(rng, B, cfg)
        elif key in _OMEGA_PATHS:
            vec = {u: sample_rician(links[u.link], rng, trials=B) for u in cascade[2:] if u != leaf}
            vals = _cascade_draw(cascade, leaf, vec, faces, rng, {})
        elif key == "y3":
            g = sample_rician(links["b,r"], rng, trials=B)
            vals = np.abs(np.sum(np.abs(g) ** 2 * state.coefficients("t"), axis=-1)) ** 2
        else:   # a strong user's log-mean, its SIC residual (none for UL1) on its own gain
            gain = _ordered_draw(rng, B, strong, cfg.m) * rng.standard_exponential(B)
            vals = np.log2(1.0 + total * gain) - np.log2(1.0 + residual * gain)
        moments = np.zeros(3)
        _add_moments(moments, np.asarray(vals, dtype=float))
        return moments

    jobs = [(draw, *block) for block in _blocks(trials, seed, block_size)]
    return _estimate(_merge(_map_blocks(jobs, [B for _, B, _ in jobs])))


def analytic_expectation(key: str, cfg: SystemConfig, state: StarRisState, cluster: int = 1) -> float:
    """Closed-form value matching estimate_expectation's key."""
    if key not in EXPECTATION_KEYS + LOG_MEAN_KEYS:
        raise KeyError(f"unknown expectation key {key!r}")
    if key in LOG_MEAN_KEYS:
        rates = role_rates(build_rate_inputs(cfg, default_power_allocation(cfg), state, cluster))
        return cfg.M_d * rates["DL1"] if key == "log_u1d" else cfg.M_u * rates["UL1"]
    pos = expectation_terms(cfg, cluster)
    if key in ("y1", "q_center"):
        return getattr(pos, key)
    if key in _POSITION_KEYS:
        users = [cluster_members(cfg, cluster)[i] for i in _POSITION_KEYS[key]]
        return pos.loss[users[0]] if len(users) == 1 else math.prod(pos.at_surface(u) for u in users)
    s = cached_surface_terms(cfg, state)
    if key == "y3":
        return s.y3_raw
    return getattr(s, key)


# -- hypergeometric series --------------------------------------------------

# Series controls: cap and tolerance for term-wise summation.
MAX_TERMS = 10_000
SERIES_RTOL = 1e-12


class SeriesConvergenceError(ArithmeticError):
    """Raised when term-wise summation fails to settle within the term cap."""


def hyp_pfq(upper: Sequence[float], lower: Sequence[float], x: float, rtol: float = SERIES_RTOL) -> float:
    """Term-wise sum of the generalized hypergeometric series H(upper, lower, x).

    Lower parameters must avoid non-positive integers, where every term past
    some index divides by zero.  The sum stops once the running term stays
    below rtol * |partial sum| for three consecutive terms; a terminating
    series (non-positive integer upper parameter) returns its finite sum
    exactly.
    """
    upper, lower, x = tuple(float(a) for a in upper), tuple(float(b) for b in lower), float(x)
    for b in lower:
        if b <= 0 and b.is_integer():
            raise ValueError(f"lower parameter {b} is a pole of the series")

    total = 0.0
    term = 1.0
    quiet = 0
    for n in range(MAX_TERMS):
        total += term
        ratio = 1.0
        for a in upper:
            ratio *= a + n
        if ratio == 0.0:  # terminating series: next and all later terms vanish
            return total
        for b in lower:
            ratio /= b + n
        term = term * ratio * x / (n + 1)
        if not math.isfinite(term):
            raise SeriesConvergenceError(
                f"series terms overflowed at n={n} "
                f"(upper={upper}, lower={lower}, x={x}); "
                "the argument is outside the term-wise convergence region"
            )
        if abs(term) <= rtol * abs(total):
            quiet += 1
            if quiet >= 3:
                return total + term
        else:
            quiet = 0
    raise SeriesConvergenceError(
        f"series did not settle within {MAX_TERMS} terms "
        f"(upper={upper}, lower={lower}, x={x}); "
        "the argument is likely outside the term-wise convergence region"
    )
