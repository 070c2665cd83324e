"""The simulator's stacked SINR pass against the per-point arithmetic it replaces.

The block loop evaluates each direction's roles of a group at every point at
once: the denominators are one matmul of the points' coefficient blocks with
the group's gain rows, one per block.  per_point_log1p below is the old
evaluation of one bound role at one point, kept here as the oracle:
coefficient times gain over the terms of nonzero coefficient, added in
table order, the residual SI (on the unit SI gain) and the noise (on the
row of ones) as any other term, then ln(1 + signal / denominator).  The two
differ only in rounding, so every trial of every role must agree to 1e-12
relative.
"""

import dataclasses

import numpy as np
import pytest

from starnoma import simulator
from starnoma.channel import build_links
from starnoma.comparison import pair_power_policy, pair_schedule
from starnoma.config import PowerAllocation
from starnoma.rates import bind_power, noma_roles
from starnoma.simulator import cluster_schedule

B = 2 * simulator._DEFAULT_BLOCK + 123   # a block larger than the default, in one pass all the same


def per_point_log1p(role, gains: dict) -> np.ndarray:
    """ln(1 + SINR) per trial of one bound role at one point, term by term."""
    den = np.zeros(len(gains[role.signal.key]))
    for t in role.interference:
        if t.coef != 0.0:
            den += gains[t.key] * t.coef
    return np.log1p(gains[role.signal.key] * role.signal.coef / den)


def stacked_groups(schedule, trials: int, seed: int):
    """Per group of the schedule, off one block's draw: (each point's bound role
    table, {gain key: per-trial gain}, the stacked values (points, roles, trials))."""
    cfg = schedule.points[0][0]
    links = build_links(cfg)
    rng = np.random.Generator(np.random.SFC64(seed))
    resolve = schedule.layout(rng, trials, [u for dl, ul in schedule.groups for u in (*dl, *ul)])
    block = simulator.BlockDraws.draw(simulator.Surface.of(cfg, schedule.state, links), links, rng, trials)
    out = []
    for g, (dl, ul) in enumerate(schedule.groups):
        tables = [bind_power(noma_roles(point, dl, ul), powers[g]) for point, powers in schedule.points]
        plan = simulator.gain_plan(tables[0], (*dl, *ul))
        gains = simulator.sample_gains(plan, resolve(plan.members), links, rng, block)
        got = np.full((len(tables), len(tables[0]), trials), np.nan)
        for stack in simulator._stacks(tables, {key: i for i, key in enumerate(plan.keys)}):
            got[:, stack.cells] = simulator._stack_pass(stack, gains, np.empty(stack.den[..., 0].size * trials))
        out.append((tables, dict(zip(plan.keys, gains)), got))
    return out


def _points(cfg):
    """Points at xi = 0 and xi > 0, with other noise and SI settings."""
    return [
        dataclasses.replace(cfg.with_snr(20.0), xi_sic=0.0),
        cfg.with_snr(30.0),
        dataclasses.replace(cfg.with_snr(40.0), xi_sic=0.3, sigma2=2.0, beta_si=1.0, lambda_si=0.4),
    ]


def _schedule(kind, cfg, state, points):
    if kind == "cluster":
        powers = [PowerAllocation((0.1, 0.3, 0.6), (0.3 * p.p_um, 0.6 * p.p_um, p.p_um)) for p in points]
        return cluster_schedule(points, powers, state)
    return pair_schedule(points, [pair_power_policy(p, state) for p in points], state)


@pytest.mark.parametrize("kind", ["cluster", "pair"])
@pytest.mark.parametrize("trials", [B, 1_000], ids=["partial-last-tile", "one-short-tile"])
def test_stacked_pass_matches_the_per_point_arithmetic(cfg, state, kind, trials):
    points = _points(cfg)
    zero_terms = 0
    for tables, gains, got in stacked_groups(_schedule(kind, cfg, state, points), trials, 11):
        for p, table in enumerate(tables):
            for i, role in enumerate(table):
                want = per_point_log1p(role, gains)
                np.testing.assert_allclose(got[p, i], want, rtol=1e-12, atol=0, err_msg=f"point {p} {role.name}")
                zero_terms += sum(t.coef == 0.0 for t in role.interference)
    assert zero_terms > 0   # the xi = 0 point's residual terms enter the matmul as zeros


@pytest.mark.parametrize("kind", ["cluster", "pair"])
def test_a_one_point_schedule_gives_each_point_its_bits(cfg, state, kind):
    # a point's stacked values do not depend on the other points of its schedule
    points = _points(cfg)
    grid = stacked_groups(_schedule(kind, cfg, state, points), B, 12)
    for p, point in enumerate(points):
        alone = stacked_groups(_schedule(kind, cfg, state, [point]), B, 12)
        for (_, _, got), (_, _, mine) in zip(grid, alone):
            assert np.array_equal(mine[0], got[p])
