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

The stacks' coefficient blocks come from one role table of all points, bound
to every point's allocation at once; per_point_den builds them from each
point's own table (bind_power(noma_roles(point, ...))), and the two must
agree bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from starnoma import simulator
from starnoma.channel import build_links
from starnoma.channel import StarRisState
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


def per_point_den(tables, rows: dict, run, span: slice) -> np.ndarray:
    """Oracle: the (points, roles, span rows) coefficient block of a stack's run of roles,
    from each point's own bound table: every term added into its key's row in term
    order, then the row divided by the role's signal coefficient."""
    den = np.zeros((len(tables), len(run), span.stop - span.start))
    for point, table in zip(den, tables):
        for coefs, i in zip(point, run):
            for t in table[i].interference:
                coefs[rows[t.key] - span.start] += t.coef
            coefs /= table[i].signal.coef
    return den


def group_stacks(schedule, g: int) -> tuple:
    """(each point's bound role table, the group's GainPlan, its Stacks) for group g of the
    schedule, the stacks made as the block loop makes them: from the table of all points,
    bound to each point's allocation at once."""
    dl, ul = schedule.groups[g]
    tables = [bind_power(noma_roles(point, dl, ul), powers[g]) for point, powers in schedule.points]
    bound = bind_power(noma_roles([point for point, _ in schedule.points], dl, ul),
                       [powers[g] for _, powers in schedule.points])
    plan = simulator.gain_plan(bound, (*dl, *ul))
    return tables, plan, simulator._stacks(bound, {key: i for i, key in enumerate(plan.keys)})


def stacked_groups(schedule, trials: int, seed: int):
    """Per group of the schedule, off one block's draw: (each point's bound role
    table, {gain key: per-trial gain}, the stacked values (points, roles, trials))."""
    cfg = schedule.points[0][0]
    links = build_links(cfg)
    rng = np.random.Generator(np.random.SFC64(seed))
    resolve = schedule.layout(rng, trials, [u for dl, ul in schedule.groups for u in (*dl, *ul)])
    block = simulator.BlockDraws.draw(simulator.Surface.of(cfg, schedule.state, links), links, rng, trials)
    out = []
    for g in range(len(schedule.groups)):
        tables, plan, stacks = group_stacks(schedule, g)
        gains = simulator.sample_gains(plan, resolve(plan.members), links, rng, block)
        got = np.full((len(tables), len(tables[0]), trials), np.nan)
        for stack in stacks:
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


@pytest.mark.parametrize("kind", ["cluster", "pair"])
@pytest.mark.parametrize("face", ["both", "transmission-only"])
def test_stacks_from_the_schedule_binding_match_each_points_table(cfg, state, kind, face):
    # every coefficient block, at xi = 0, the defaults and xi = 0.3 with other noise and SI, bit for bit;
    # a state that sends everything through one face moves the pairing's edge powers to their clamps
    if face == "transmission-only":
        state = StarRisState(np.ones(cfg.N), np.zeros(cfg.N), state.phi_t, state.phi_r)
    schedule = _schedule(kind, cfg, state, _points(cfg))
    for g in range(len(schedule.groups)):
        tables, plan, stacks = group_stacks(schedule, g)
        rows = {key: i for i, key in enumerate(plan.keys)}
        assert [stack.cells for stack in stacks] == [slice(0, len(schedule.groups[g][0])),
                                                      slice(len(schedule.groups[g][0]), len(tables[0]))]
        for stack in stacks:
            want = per_point_den(tables, rows, range(stack.cells.start, stack.cells.stop), stack.span)
            assert want.dtype == stack.den.dtype and np.array_equal(stack.den, want), (g, stack.cells)
            assert np.array_equal(np.signbit(stack.den), np.signbit(want))
