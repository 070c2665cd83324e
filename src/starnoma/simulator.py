"""Monte-Carlo ground truth for the closed-form rate analysis.

Each trial drops the users the rates read at their distance ranks, draws
their fading, and evaluates the exact per-role SINRs; rates are the means of
(1/M) * log2(1 + SINR).  The SINRs are those of the role table
(rates.noma_roles): sample_gains() draws one row of a (keys, trials) matrix
per gain key, once per block and group, and the stacked pass (_stack_pass)
combines the rows with the table's coefficients, so imperfect SIC, the
residual self-interference and the noise enter exactly as in the closed
forms: the unit SI |CN(0, 1)|^2 is drawn per trial, the noise's gain is a
row of ones, and the table's coefficients carry beta * P_b^lambda and
sigma2.  simulate_groups() is the one block loop: the clusters here and the
pairing baseline (comparison.simulate_pair_sums) differ only in their
Schedule of groups, time shares and layout, and one call takes any number
of schedules, which rate_groups() reads in closed form into results of the
same shape.

A block draws only what its rates read, each in its exact law, and forms
only the coordinates, losses and products a gain key reads:

* a Rayleigh power |h|^2 (the direct and cross links, the unit SI) is a
  unit exponential, as the squared modulus of a CN(0, 1) scalar is, and is
  drawn as one: one value, not two normals;
* both layouts are one class-by-class draw (class_layout): a center class
  is drawn at the sorted ranks asked for, from gamma increments
  (_rank_draw), not a whole sorted drop, each user at a uniform
  bearing; the schemes differ only in their class order and edge rule, the
  clusters' edge users drawn at their surface-distance ranks without a
  bearing, as no key reads it (sorted_layout), the pairing's drawn whole
  and sorted by BS distance (comparison.ranked_layout);
* a position is a (trials, 2) array whose x and y columns are each
  contiguous, and a distance is sqrt(dx*dx + dy*dy) of them;
* a leaf, a user whose fading vector a single cascade key reaches, is never
  drawn as a vector: its cascade is drawn given the other side's vector, as
  one complex Gaussian scalar per trial (_leaf_cascade_power); cascades
  between two hubs (users whose vectors several keys read, and the BS)
  multiply full vectors, which keeps their correlation through the shared
  hub;
* a user's surface path loss is formed once per group, and a hub's spread
  sum_n |g[n]|^2 |c[n]|^2 once per face, however many keys read them;
* the SINRs are evaluated for all points at once (the stacked pass below),
  the log as ln(1 + SINR), and the 1/(ln 2 * M) of each direction is
  applied once, to the merged moments (_estimate), not once per trial.

Each block draws from its own SFC64 generator, numpy's fastest bit generator
for these draws, its seed spawned from one SeedSequence per schedule, so a
block's draws depend on the seed, the trial count and the block size alone,
and not on the other schedules of the call.  The blocks of all schedules
form one queue, served by one thread per core this process may use (numpy's
generators and array arithmetic release the interpreter lock): a core that
ends a block takes the next one, whichever schedule it belongs to, so a
short last block of one schedule does not leave a core idle while another
schedule waits.  Meanwhile numpy's OpenBLAS runs one thread of its own
(_one_blas_thread), as the workers already take every core.  Each block
returns only its moments: one (points, cells, 3) array of (n, sum r,
sum r^2), a cell per group and role and one for each point's DL and UL
totals.  Each schedule's are merged in block order
(_merge), the float additions of a serial loop, so the bytes of a run do not
depend on the core count or the queue; _estimate turns a merged cell into
its (mean, stderr).  The tests' term oracle (tests/oracles.py) runs its
blocks on the same queue and merges them the same way.

A block holds only what the next step reads.  A center user keeps its radius
and bearing, each a row of its own, until its group is resolved, when its
position and distances are formed and its bearing is dropped; a group's
positions and BS distances are dropped once its direct and cross gains are
formed.  A group's gains are dropped before the next group's draw, a hub's
vector after its last cascade, a spread after the leaves of its step, which
come after that step's hub-hub products, and a surface loss after its one
use.  Complex Gaussian draws are written straight into their output
(channel.sample_rician), and a cascade between two hubs is one einsum into
a complex vector per trial.

Every array of a block is a plain numpy array, written in place wherever a
step allows (out=).  A worker's blocks ask for the same arrays in the same
order, so importing the module sets two malloc thresholds of the C library,
for the whole process (_keep_heap): the heap memory a worker's first block
pages in, the queue serving the largest blocks first, is kept and serves
every later block, which page-faults almost none of it in again.  An array
above 32 MiB, such as a fading vector at N > 512 and the default 4,096
trials per block (_DEFAULT_BLOCK), is still mapped afresh for every block.
At N = 10 and the default block, the traced peak of one block is 3.1 MB for
cluster 1 at one point, and 4.3 MiB (clusters) and 4.4 MiB (pairing) at the
12 points of the cluster-versus-pairing sweep: a quarter of what a block of
16,384 trials holds.

A schedule holds a whole grid of points (cluster_schedule, and
comparison.pair_schedule for the pairing; simulate_clusters and
comparison.simulate_pair_sums run one point).  A draw depends only on the
geometry, N, the user counts, the Rician factors, the bearings, the surface
state, the seed, the trial count and the block size; SNR, the SIC and SI
impairments, the powers and the noise reach the simulator only through the
bound role coefficients (POINT_FIELDS).  So every point of a grid reads the
same draw of each block: the layout, the block's shared draws and each
group's gains are drawn once, then every point evaluates its own SINRs from
them.  Points that differ in a field of the draw are rejected.

The plan of a schedule is made once (_schedule_run), not once per block, so
that a block carries little fixed work besides its draws.  It holds the
surface state as the draws read it (Surface: each face's coefficients, the
weights of its spreads and of the bounce, the terms of a leaf on each
link, the BS-surface path loss), the layout's classes (class_layout: which
ranks each draws and where each user's row is), and for each group the
GainPlan (the gain keys in row order, the members' turns, the path losses,
the rows copied from the block) and a Stack for each direction's run of
roles, made from the group's one role table of all points, bound to every
point's allocation at once: each point's (roles, keys) block of denominator
coefficients, 0 wherever a point's role has no such term, each row over the
role's signal coefficient, and the roles' signal rows.  A block draws each
group's (keys, trials) gain matrix once and then, for each stack, in one
pass over all of the block's trials:

1. the denominators of all roles and points, noise included, are one
   np.matmul, each point's coefficient block times the gain rows;
2. each role's signal row is divided by its denominators, one broadcast
   divide per role, and np.log1p is applied in place;
3. each row's sum and sum of squares (a dot product, so no square is
   stored) is added into the (points, cells, 3) moments, and the rows into
   each point's DL or UL totals, whose moments are added once per block.

The pass's scratch is points * roles * B floats, B the block's trials, so it
grows with the block like every other array of it: 1.2 MB at the default
block and the 12 points of the cluster-versus-pairing sweep.  The
denominators and the sums of squares are BLAS sums, so
their rounding, and with it the last bits of every simulated value and
standard error, depends on the BLAS build and the CPU it dispatches to; one
and two BLAS threads give the same bytes.  A zero coefficient enters the sum
as 0 * gain = +0.0, which moves no bit of a BLAS sum, so the points of a
stack may differ in which terms they have (a point without SIC error has no
residual terms) and still share one product.  The matmul is batched over the
points: numpy hands BLAS one product per point, each of the same shape
whatever the other points, so a schedule of points returns, bit for bit,
what one call per point returns.  One product of all points' rows at once
would not: a BLAS computes a row differently with the number of rows beside
it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, fields
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .channel import StarRisState, cached_links, sample_rician
from .config import PowerAllocation, SystemConfig, _count, _integer
from .rates import (
    BS,
    NOISE,
    RateReport,
    ROLES,
    bind_power,
    cached_surface_terms,
    check_state_size,
    cluster_group,
    group_tables,
    noma_roles,
    pathloss,
    read_rates,
    table_keys,
)

__all__ = [
    "SimPlan",
    "GainPlan",
    "gain_plan",
    "sample_gains",
    "simulate",
    "simulate_clusters",
    "simulate_groups",
    "rate_groups",
    "Schedule",
    "cluster_schedule",
    "class_layout",
    "sorted_layout",
    "as_points",
    "draw_key",
    "POINT_FIELDS",
]

_DEFAULT_BLOCK = 1 << 12


def _keep_heap() -> None:
    """Keep freed block memory in the process, where the C library has mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):   # no C library symbols to load, or no mallopt among them
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # Each block frees its arrays and the next one asks for the same sizes.  glibc
    # gives large arrays an mmap of their own and hands freed heap back to the
    # kernel, so every block would page-fault its working set in again (about
    # 1.1k minor faults a 4,096-trial block at N = 10).  Arrays below 32 MiB
    # come from the heap, and up to 256 MiB of it stays free for the next block.
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


_keep_heap()


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
        _count("trials", self.trials)
        _count("block_size", self.block_size)


def _add_moments(moments, values) -> None:
    """Add the (n, sum, sum of squares) of each row of values (..., n) into
    moments (..., 3); the sums of squares are dot products, so no square is
    stored."""
    moments[..., 0] += values.shape[-1]
    moments[..., 1] += np.add.reduce(values, axis=-1)
    moments[..., 2] += np.vecdot(values, values)


def _merge(blocks) -> np.ndarray:
    """The sum of the blocks' moment arrays, added in block order: the float
    additions of a serial loop, whatever served the blocks."""
    total = np.zeros_like(blocks[0])
    for moments in blocks:
        total += moments
    return total


def _estimate(moments, scale: float = 1.0) -> tuple:
    """(mean, stderr) of scale times per-trial values, from their merged
    (n, sum, sum of squares), so that a constant factor is applied once per
    result, not once per trial."""
    n, s, s2 = moments.tolist()
    mean = scale * s / n
    if n < 2:
        return mean, float("nan")
    raw = s / n
    var = max(s2 / n - raw**2, 0.0) * n / (n - 1)
    return mean, scale * math.sqrt(var / n)


def _blocks(trials: int, seed: int, block_size: int):
    """(size, generator) of each block: an SFC64 stream, its seed spawned from one SeedSequence."""
    trials, block_size = _count("trials", trials), _count("block_size", block_size)
    nblocks = (trials + block_size - 1) // block_size
    for b, block_seed in enumerate(np.random.SeedSequence(seed).spawn(nblocks)):
        yield min(block_size, trials - b * block_size), np.random.Generator(np.random.SFC64(block_seed))


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, through ctypes, or None
    where the library or either function is not found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):   # not loadable, or without the thread controls
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, and give it back its old count on the way out.

    The block workers already take one thread per core, and BLAS threads of
    their own would compete with them for those cores.  Nothing changes
    where the library's thread controls are not found.
    """
    controls = _blas_threads()
    if controls is None:
        yield
        return
    get, set_ = controls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _map_blocks(jobs, sizes) -> list:
    """[run(B, rng) for run, B, rng in jobs], in job order, on one thread per core.

    Every thread, the calling one included, takes the next job off one shared
    queue until none is left, so a core that ends a short block starts the
    next job at once, whichever schedule it belongs to; each writes only its
    own slot.  The queue holds the jobs largest first, by sizes (one per
    job), ties in job order, so a thread's first job pages in the most heap
    memory and its later ones reuse it (see _keep_heap).  An exception in any job stops the others before their next
    job and is raised here once every thread has ended.  With more than one
    thread, numpy's OpenBLAS runs one thread of its own meanwhile
    (_one_blas_thread); its sums round alike at any thread count.
    """
    workers = min(_cores(), len(jobs))
    results = [None] * len(jobs)
    errors = []
    queue, lock = iter(sorted(range(len(jobs)), key=lambda i: -sizes[i])), threading.Lock()

    def work():
        try:
            while not errors:
                with lock:
                    i = next(queue, None)
                if i is None:
                    return
                run, B, rng = jobs[i]
                results[i] = run(B, rng)
        except BaseException as exc:   # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=work, daemon=True) for _ in range(1, workers)]
    with _one_blas_thread() if threads else contextlib.nullcontext():
        for t in threads:
            t.start()
        work()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


class _Face(NamedTuple):
    """One surface face as a block's draws read it (Surface)."""

    c: np.ndarray       # element coefficients rho * exp(j*phi)
    spread: np.ndarray  # |c[n]|^2, each twice: _spread's weights over a vector's real and imaginary parts
    leaves: dict        # link label -> (sqrt(k/(k+1)) * c * los, (1/(k+1)) / 2) of a leaf on the link (_leaf_cascade_power)


def _face(c, links) -> _Face:
    """The _Face of element coefficients c, with the terms of a leaf on each of links."""
    leaves = {label: (np.sqrt(link.los_weight) * c * link.los, 0.5 * link.scatter_weight) for label, link in links.items()}
    return _Face(c, np.repeat(np.abs(c) ** 2, 2), leaves)


class Surface(NamedTuple):
    """What every block of one surface state reads of it, made once per schedule
    (Surface.of), not once per block: each face's _Face, the bounce's weights
    and the BS-surface path loss."""

    faces: dict         # "t" and "r" -> _Face
    bounce: tuple       # Re c and Im c of the t face, each entry twice: weights over g_br's parts
    l_br: float
    m: float

    @classmethod
    def of(cls, cfg, state, links) -> "Surface":
        """The Surface of a config's geometry, its surface state and its links."""
        faces = {side: _face(state.coefficients(side), links) for side in ("t", "r")}
        c = faces["t"].c
        return cls(faces, (np.repeat(c.real, 2), np.repeat(c.imag, 2)), pathloss(cfg.d_br, cfg.m), cfg.m)


@dataclass(frozen=True)
class BlockDraws:
    """What one block of trials shares across its groups and points: the
    BS-surface vector, the BS's own signal off the surface and the unit
    residual SI |CN(0, 1)|^2, the gain of the role table's ("si",) key,
    with the Surface they were drawn for."""

    g_br: np.ndarray
    bounce: np.ndarray
    si: np.ndarray
    surface: Surface

    @classmethod
    def draw(cls, surface: Surface, links, rng, B):
        """One block's draws for a schedule's Surface and links."""
        g_br = sample_rician(links["b,r"], rng, B)
        si = rng.standard_exponential(B)   # |CN(0, 1)|^2 is a unit exponential
        # |sum_n |g[n]|^2 c[n]|^2, its real and imaginary sums each one einsum over g's parts
        parts = g_br.view(float)
        re, im = (np.einsum("bk,bk,k->b", parts, parts, weights) for weights in surface.bounce)
        bounce = np.square(re, out=re)
        bounce += np.square(im, out=im)
        bounce *= surface.l_br * surface.l_br
        return cls(g_br, bounce, si, surface)


def _scalar_rank(key) -> int:
    # the Rayleigh scalars of a group are one block, in this row order: DL direct
    # links, cross links, UL direct links (the order fixes every seed's numbers)
    return 1 if key[0] == "cross" else 0 if key[1].direction == "DL" else 2


def _distance(pu, pv) -> np.ndarray:
    """Per-trial distance between (trials, 2) position arrays, from their x and y
    columns; pv may be one (1, 2) point."""
    d = np.subtract(pu[:, 0], pv[:, 0])
    d *= d
    dy = np.subtract(pu[:, 1], pv[:, 1])
    dy *= dy
    d += dy
    return np.sqrt(d, out=d)


def _cascade_power(g_out, c, g_in, out=None) -> np.ndarray:
    """|sum_n g_out[n] c[n] g_in[n]|^2 per trial, into out if given: the sums are
    one einsum, so the products need no (trials, N) temporary, and the power is
    re^2 + im^2."""
    s = np.einsum("bk,k,bk->b", g_out, c, g_in).view(float)
    s = np.square(s, out=s)
    return np.add(s[0::2], s[1::2], out=out)


def _spread(g_hub, face: _Face) -> np.ndarray:
    """sum_n |g_hub[n]|^2 |c[n]|^2 per trial on a face: one einsum over the real
    and imaginary parts, so no (trials, N) temporary is made."""
    parts = g_hub.view(float)
    return np.einsum("bk,bk,k->b", parts, parts, face.spread)


def _leaf_cascade_power(g_hub, face: _Face, link: str, rng, spread, out=None) -> np.ndarray:
    """|sum_n g_hub[n] c[n] g_leaf[n]|^2 per trial, into out if given, for a Rician
    leaf vector g_leaf on the given link that no other gain reads.

    The leaf's scatter entries are iid CN(0, 1) and independent of g_hub, so
    given g_hub the sum is a * (g_hub @ (c * los)) plus a CN(0, s^2 * ||c * g_hub||^2)
    scatter part, a = sqrt(k/(k+1)) and s = sqrt(1/(k+1)): one CN(0, 1)
    scalar per trial stands in for the leaf's N entries, its real and
    imaginary parts two consecutive standard normals.  a * c * los and s^2 / 2
    are the face's (_Face.leaves).  spread is the hub's _spread on this face;
    it is read, not changed.
    """
    B = len(g_hub)
    los, scatter = face.leaves[link]
    t = np.empty(B, complex)
    rng.standard_normal(out=t.view(float))
    scale = np.multiply(spread, scatter)
    t *= np.sqrt(scale, out=scale)
    t += np.matmul(g_hub, los)
    power = np.square(t.real, out=out)
    power += np.square(t.imag, out=scale)
    return power


def _leaves(cascades) -> dict:
    """{cascade key: its leaf} for every key that alone reaches one of its users' vectors.

    The leaf of a key is the user whose fading vector no other cascade key of
    the table reaches (the in side where both are).  The BS is never a leaf:
    its vector g_br also feeds the bounce and every group.
    """
    reach = Counter(u for key in cascades for u in key[2:])
    leaves = {}
    for key in cascades:
        for u in (key[3], key[2]):
            if u != BS and reach[u] == 1:
                leaves[key] = u
                break
    return leaves


def _cascade_draw(key, leaf, vec, faces, rng, spreads, out=None) -> np.ndarray:
    """Cascade power of one key before path loss, into out if given: the product
    of both users' drawn vectors, or, for a key with a leaf, the leaf drawn
    given the other side (vec holds every vector the key reads).  spreads
    keeps each (hub, face)'s _spread for the next leaf of the same hub and
    face."""
    _, side, u_out, u_in = key
    face = faces[side]
    if leaf is None:
        return _cascade_power(vec[u_out], face.c, vec[u_in], out)
    hub = u_in if leaf == u_out else u_out
    spread = spreads.get((hub, side))
    if spread is None:
        spread = spreads[hub, side] = _spread(vec[hub], face)
    return _leaf_cascade_power(vec[hub], face, leaf.link, rng, spread, out)


class _Step(NamedTuple):
    """One member's turn in a group's draw: its fading vector if a cascade reads
    it, then the (row, key, leaf) cascades that are ready, then the vectors
    that no later cascade reads."""

    user: object
    draw: bool
    cascades: tuple
    drop: tuple


class GainPlan(NamedTuple):
    """How sample_gains draws one group's gains: the schedule's bookkeeping,
    made once (gain_plan), not once per block.

    keys lists the gain keys in the rows of the group's (keys, trials)
    matrix: the Rayleigh keys in the order of their one block of draws
    (scalars of them), a row of ones (NOISE, the noise's unit gain), then
    the cascades in the order they are evaluated, then the bounce and the
    unit SI, which are copied in.  steps gives each
    member's turn (_Step), losses each user's surface path loss with the
    cascade rows it multiplies, and shared the (row, BlockDraws field) of
    the bounce and the unit SI.
    """

    members: tuple
    keys: tuple
    scalars: int
    steps: tuple
    losses: tuple
    shared: tuple


def gain_plan(roles, members) -> GainPlan:
    """The GainPlan of a role table whose users are drawn in the order of members.

    A fading vector is drawn for each member that a cascade reaches other
    than as its leaf (_leaves).  A cascade is evaluated as soon as the
    vectors it reads are drawn, the step's leaves after its hub-hub products,
    so that a hub's spread is not alive during one; a vector is dropped
    after its last cascade.
    """
    keys = table_keys(roles)
    scalar = sorted((k for k in keys if k[0] in ("direct", "cross")), key=_scalar_rank)
    cascades = [k for k in keys if k[0] == "cascade"]
    leaves = _leaves(cascades)
    reads = {k: [u for u in k[2:] if u != leaves.get(k)] for k in cascades}   # the vectors each key reads
    order, steps, pending, drawn = [], [], list(cascades), {BS}
    for u in members:
        draw = any(u in reads[k] for k in pending)
        if draw:
            drawn.add(u)
        ready = sorted((k for k in pending if all(v in drawn for v in reads[k])), key=lambda k: k in leaves)
        pending = [k for k in pending if k not in ready]
        drop = tuple(v for v in members if v in drawn and not any(v in reads[k] for k in pending))
        drawn.difference_update(drop)
        steps.append((u, draw, ready, drop))
        order += ready
    rows = {k: i for i, k in enumerate((*scalar, NOISE, *order))}
    shared = tuple(k for k in keys if k[0] in ("bounce", "si"))
    return GainPlan(
        tuple(members), (*scalar, NOISE, *order, *shared), len(scalar),
        tuple(_Step(u, draw, tuple((rows[k], k, leaves.get(k)) for k in ready), drop)
              for u, draw, ready, drop in steps),
        tuple((u, tuple(rows[k] for k in cascades if u in k[2:])) for u in dict.fromkeys(v for k in cascades for v in k[2:])),
        tuple((len(rows) + i, k[0]) for i, k in enumerate(shared)),
    )


def sample_gains(plan: GainPlan, geo, links, rng, block: BlockDraws) -> np.ndarray:
    """The group's (keys, trials) gain matrix, one row per key of plan.keys.

    geo maps each user to its (position, BS distance, surface distance)
    arrays, a position being a (trials, 2) array of x and y columns.  Every
    gain is written into its own row of one matrix, in place.  The
    Rayleigh powers of the direct and cross keys are drawn first, as one
    block of unit exponentials into their rows; then only the surface
    distances of geo are kept.  Then the members take their turns
    (GainPlan.steps), each cascade drawn into its row, with a hub's spread
    formed once per face for all of the hub's leaves.  Each user's surface
    path loss is formed once, after the last vector is dropped, and
    multiplies every cascade row that reaches the user.  The bounce and the
    unit SI |CN(0, 1)|^2 are copied from the block into their rows
    (GainPlan.shared), and the NOISE row, the one after the Rayleigh rows,
    is filled with ones.
    """
    B, surf = len(block.si), block.surface
    gains = np.empty((len(plan.keys), B))
    rayleigh = rng.standard_exponential(out=gains[:plan.scalars])
    for gain, key in zip(rayleigh, plan.keys):
        d = geo[key[1]][1] if key[0] == "direct" else _distance(geo[key[1]][0], geo[key[2]][0])
        gain *= pathloss(d, surf.m)
        del d
    # positions and BS distances are read no more: a caller that hands geo over frees them here
    surface = {u: at[2] for u, at in geo.items()}
    del geo
    vec = {BS: block.g_br}
    for step in plan.steps:
        if step.draw:
            vec[step.user] = sample_rician(links[step.user.link], rng, B)
        spreads = {}   # a spread lives one step
        for row, key, leaf in step.cascades:
            _cascade_draw(key, leaf, vec, surf.faces, rng, spreads, gains[row])
        for v in step.drop:
            del vec[v]
    # the surface path losses last, once the vectors are gone: one per user, for all of its keys
    for u, rows in plan.losses:
        loss = surf.l_br if u == BS else pathloss(surface[u], surf.m)
        for row in rows:
            gains[row] *= loss
    gains[plan.scalars] = 1.0
    for row, field in plan.shared:
        gains[row] = getattr(block, field)
    return gains


class Stack(NamedTuple):
    """The roles of one direction of a group at every point of a schedule.

    Per trial, role i at point p reads ln(1 + g[signals[i]] / (den[p, i] @
    g[span])) off the group's gain rows g: den holds the role's interference
    coefficients, the SI's and the noise's among them, each over its signal
    coefficient.
    """

    direction: int        # 0 for DL, 1 for UL: the point totals its roles add into
    cells: slice          # its roles' moment cells
    signals: tuple        # the gain row of each role's signal
    span: slice           # the gain rows its denominators read
    den: np.ndarray       # (points, roles, span rows) coefficients, 0 where a point's role has no such term


def _stacks(roles, rows: dict, cell: int = 0) -> list:
    """The Stacks of one group, a run of roles of one direction each.

    roles is the group's role table bound at every point of its schedule
    (rates.bind_power), each coefficient an array over the points; rows
    gives the row of each gain key and cell the group's first moment cell.
    Every term enters by its key's row, the SI and the noise as any other,
    added in term order at all points at once.  Every coefficient of a role
    is divided by its signal coefficient, which a PowerAllocation keeps
    positive.
    """
    stacks = []
    points = len(roles[0].signal.coef)
    for direction, run in groupby(range(len(roles)), key=lambda i: roles[i].name[:2]):
        run = list(run)
        read = [rows[t.key] for i in run for t in roles[i].interference]
        span = slice(min(read), max(read) + 1)
        den = np.zeros((points, len(run), span.stop - span.start))
        for j, i in enumerate(run):
            for t in roles[i].interference:
                den[:, j, rows[t.key] - span.start] += t.coef
            den[:, j] /= roles[i].signal.coef[:, None]
        stacks.append(Stack(
            ("DL", "UL").index(direction), slice(cell + run[0], cell + run[-1] + 1),
            tuple(rows[roles[i].signal.key] for i in run), span, den,
        ))
    return stacks


def _stack_pass(stack: Stack, gains, scratch) -> np.ndarray:
    """ln(1 + SINR) of a stack's roles at every point, per trial: a (points, roles, B)
    view of scratch.

    gains is the group's (keys, B) matrix; scratch is flat, of at least
    points * roles * B floats.  The denominators, the SI and the noise
    included, are one matmul, each point's coefficient block times the
    span's gain rows; each role's signal row is divided by them in place.
    """
    shape = stack.den.shape[:2]
    r = scratch[:math.prod(shape) * gains.shape[1]].reshape(*shape, -1)
    np.matmul(stack.den, gains[stack.span], out=r)
    for i, row in enumerate(stack.signals):
        np.divide(gains[row], r[:, i], out=r[:, i])
    return np.log1p(r, out=r)


# SystemConfig fields that may differ between the points of one draw: they reach
# the simulator only through the bound role coefficients
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


class Schedule(NamedTuple):
    """One scheme's request to the block loop (simulate_groups) and its closed-form reader (rate_groups).

    points holds (cfg, [PowerAllocation per group]) per point, the configs
    differing in POINT_FIELDS only; groups lists the NOMA groups (dl users,
    ul users), strong first; shares maps "DL" and "UL" to the time-share
    divisor of that direction; layout(rng, B, users) draws a block's
    positions of the given users and returns resolve(group), which gives
    {user: (position, BS distance, surface distance)} for a group's users,
    once per group, an entry None where no gain key reads it; state is the
    surface state.  The block loop plans a schedule once (_schedule_run):
    the points' role tables become one GainPlan and the Stacks of each
    group, so the points must share every group's gain keys, as configs
    that differ in POINT_FIELDS only do.
    """

    points: list
    groups: list
    shares: dict
    layout: Callable
    state: StarRisState


def _schedule_run(schedule: Schedule):
    """(run, estimate) of a schedule: run(B, rng) is one block's moments, and
    estimate turns the merged moments into the loop's results.

    The plan is made here, once per schedule: the Surface terms of its
    state, each group's GainPlan and the Stacks of its DL and UL roles,
    which hold their coefficients at every point, from one role table of
    all points bound to each point's allocation at once (rates.noma_roles
    and rates.bind_power of the points), and the width of the group's
    scratch; the layout plans its classes once per list of users
    (class_layout).  A block draws each group's gain matrix (sample_gains)
    and then evaluates each stack at all points and trials at once
    (_stack_pass).  The moments are one (points, cells, 3) array of (n,
    sum, sum of squares) of ln(1 + SINR), before the 1/(ln 2 * share) that
    estimate applies: one cell per role of each group, in schedule order,
    then each point's DL and UL totals, added once the block's groups are
    done.
    """
    points, groups, shares = schedule.points, schedule.groups, schedule.shares
    cfgs = [c for c, _ in points]
    cfg = _shared_draw(cfgs)
    check_state_size(cfg, schedule.state.N)
    links = cached_links(cfg)
    surface = Surface.of(cfg, schedule.state, links)
    plan, names = [], []
    for g, (dl, ul) in enumerate(groups):
        bound = bind_power(noma_roles(cfgs, dl, ul), [powers[g] for _, powers in points])
        draw = gain_plan(bound, (*dl, *ul))
        cell = sum(map(len, names))   # the group's first moment cell
        stacks = _stacks(bound, {key: i for i, key in enumerate(draw.keys)}, cell)
        plan.append((draw, stacks, max(math.prod(stack.den.shape[:2]) for stack in stacks)))
        names.append([role.name for role in bound])
    users = [u for draw, _, _ in plan for u in draw.members]
    scale = {d: 1.0 / (math.log(2.0) * share) for d, share in shares.items()}
    scales = [scale[name[:2]] for group in names for name in group] + [scale["DL"], scale["UL"]]

    def run(B, rng):
        resolve = schedule.layout(rng, B, users)
        block = BlockDraws.draw(surface, links, rng, B)
        moments = np.zeros((len(points), len(scales), 3))
        totals = np.zeros((len(points), 2, B))   # each point's DL and UL sums
        for draw, stacks, width in plan:
            gains = sample_gains(draw, resolve(draw.members), links, rng, block)
            scratch = np.empty(width * B)   # made after the draw's peak
            for stack in stacks:
                r = _stack_pass(stack, gains, scratch)
                _add_moments(moments[:, stack.cells], r)
                for i in range(r.shape[1]):
                    totals[:, stack.direction] += r[:, i]
            del gains, scratch, r   # r views scratch: all go before the next group's draw
        _add_moments(moments[:, -2:], totals)
        return moments

    def estimate(moments):
        """([{role: (mean, stderr)} per group], {dl_sum, ul_sum and their stderrs}) per point."""
        out = []
        for point_moments in moments:
            cells = iter([_estimate(m, s) for m, s in zip(point_moments, scales)])
            rates = [{name: next(cells) for name in group} for group in names]
            (dl, dl_err), (ul, ul_err) = cells
            out.append((rates, {"dl_sum": dl, "dl_sum_stderr": dl_err, "ul_sum": ul, "ul_sum_stderr": ul_err}))
        return out

    return run, estimate


def simulate_groups(schedules, trials, seed, block_size=_DEFAULT_BLOCK) -> list:
    """The block loop: every schedule's NOMA groups, at every point of its grid,
    off one network realization per trial and schedule; one result per schedule.

    Each schedule (Schedule) is seeded as a lone call would be: its blocks'
    generators are spawned from SeedSequence(seed), so its results do not
    depend on the other schedules.  Each point rates every group's role
    table bound to its allocation (rates.bind_power).  A block draws the
    layout, its BlockDraws, then each group's gain matrix in schedule
    order, its users sampled DL first, and the stacked pass evaluates the
    SINRs of all points and trials from it at once: one matmul, divide and
    log1p per stack and block, into points * roles * block_size floats of
    scratch.  The default block of 4,096 trials (_DEFAULT_BLOCK) holds
    about 3.1 MB at one point and N = 10.  The blocks of all schedules form
    one queue (_map_blocks), the largest (trials times N) first, so that a
    worker's later blocks run in the heap memory its first one paged in
    (_keep_heap), and each schedule's moments merge in block order
    (_merge), whatever order they ran in.  A schedule's result is one
    ([{role: (mean, stderr)} per group], {dl_sum, ul_sum and their
    stderrs}) per point.
    """
    runs = [_schedule_run(schedule) for schedule in schedules]
    jobs = [(run, B, rng) for run, _ in runs for B, rng in _blocks(trials, seed, block_size)]
    n = -(-trials // block_size)   # blocks per schedule
    # a block's working set grows with its trials times the surface size N
    done = _map_blocks(jobs, [B * schedules[i // n].state.N for i, (_, B, _) in enumerate(jobs)])
    return [estimate(_merge(done[i * n: (i + 1) * n])) for i, (_, estimate) in enumerate(runs)]


def rate_groups(schedules) -> list:
    """The closed-form reader of the schedules simulate_groups takes: one
    ([{role: rate} per group], {dl_sum, ul_sum}) per point of each schedule.

    A schedule's points share one table per group (rates.group_tables of
    its configs, which must share their draw, as the block loop's do).
    Each group's table is bound to every point's allocation at once
    (rates.bind_power) and read at the schedule's time shares on the
    table's rules, the exact-signal model, giving each role's rates at all
    points as one array (rates.role_log2_mean); the sums add the rates group
    by group, role by role.
    """
    out = []
    for schedule in schedules:
        cfgs = [cfg for cfg, _ in schedule.points]
        surface = cached_surface_terms(_shared_draw(cfgs), schedule.state)
        groups = [
            read_rates(bind_power(table.roles, [powers[g] for _, powers in schedule.points]),
                       table.means(surface), table.rules, schedule.shares)
            for g, table in enumerate(group_tables(cfgs, schedule.groups))
        ]
        rates = [{name: values.tolist() for name, values in group.items()} for group in groups]
        points = []
        for p in range(len(cfgs)):
            point = [{name: values[p] for name, values in group.items()} for group in rates]
            sums = {"DL": 0.0, "UL": 0.0}
            for name, rate in (item for group in point for item in group.items()):
                sums[name[:2]] += rate
            points.append((point, {"dl_sum": sums["DL"], "ul_sum": sums["UL"]}))
        out.append(points)
    return out


def as_points(cfgs, settings) -> list:
    """[(cfg, setting) per point]: a schedule's configs paired with their power settings, one each."""
    cfgs, settings = list(cfgs), list(settings)
    if not cfgs or len(cfgs) != len(settings):
        raise ValueError(f"points need one setting per config, got {len(cfgs)} configs and {len(settings)} settings")
    return list(zip(cfgs, settings))


def _rank_draw(ranks, K, radius):
    """draw(rng, B): distances to the center of the given sorted ranks (1 =
    nearest, increasing) among K points dropped uniformly in a disk, one
    length-B row per rank.

    A point's squared distance over radius^2 is uniform, and K sorted
    uniforms are the partial sums S_k / S_{K+1} of K + 1 unit exponentials
    (Renyi's representation).  So one gamma increment per gap between the
    ranks asked for, the last one up to K + 1, gives their distances directly:
    each gap's B increments are one draw of its scalar shape, and the partial
    sums are formed by adding each row to the next, in place.  Each rank's
    row is its own array, so it is freed with the last view of it.  The gaps
    are found here, once, not once per draw.
    """
    gaps = np.diff(ranks, prepend=0, append=K + 1)

    def draw(rng, B) -> list:
        rows = [np.empty(B) for _ in ranks]   # S_k at the ranks, then the distances
        total = np.empty(B)                   # S_{K+1}
        for row, gap in zip((*rows, total), gaps):
            rng.standard_gamma(gap, out=row)
        for before, row in zip(rows, (*rows[1:], total)):
            row += before
        for row in rows:
            row /= total
            np.sqrt(row, out=row)
            row *= radius
        return rows

    return draw


def _bearings(rng, n: int, B: int) -> list:
    """n rows of B uniform bearings in [0, 2 pi), each its own array: the
    values and the stream of rng.uniform(0, 2 pi, (n, B))."""
    rows = [rng.random(B) for _ in range(n)]
    for theta in rows:
        theta *= 2.0 * np.pi
    return rows


def _center_geometry(r, theta, at_surface) -> tuple:
    """(position, BS distance, surface distance) of a center user at radii r and
    bearings theta about the BS, the surface at the (1, 2) point at_surface;
    the position is a (trials, 2) array whose x and y columns are each
    contiguous."""
    xy = np.empty((2, len(r)))
    np.multiply(r, np.cos(theta, out=xy[0]), out=xy[0])
    np.multiply(r, np.sin(theta, out=xy[1]), out=xy[1])
    return xy.T, r, _distance(xy.T, at_surface)


def class_layout(cfg, order, edge):
    """A layout (Schedule.layout) that draws the users one class at a time.

    order lists the (kind, direction) classes in the order they are drawn,
    which fixes the draw stream; a class no user asks for draws nothing.  A
    center class is drawn only at the distance ranks asked for
    (_rank_draw), each at a uniform bearing; it keeps its radius and
    bearing until its group is resolved, when its position and surface
    distance are formed.  edge(ranks, K) plans an edge class's draw of its
    K users at the given ranks: it returns draw(rng, B), which gives their
    (BS distance, surface distance), each a sequence of one length-B row
    per rank, or the first None where no caller reads it.  The classes are
    planned once per list of users, which a schedule's blocks share, not
    once per block.  A center user's radius and bearing are rows of their
    own, so they are freed with the user's group, not with its class's last
    group.
    """
    counts = {("center", "DL"): cfg.K_cd, ("center", "UL"): cfg.K_cu,
              ("edge", "DL"): cfg.K_ed, ("edge", "UL"): cfg.K_eu}
    at_surface = np.array([[cfg.d_br, 0.0]])

    def center(ranks, K):
        radii = _rank_draw(ranks, K, cfg.R)
        return lambda rng, B: (radii(rng, B), _bearings(rng, len(ranks), B))

    @functools.cache
    def plan(users: tuple) -> list:
        """[(draw(rng, B), [(user, its row of the draw)])] of each class users ask for, in draw order."""
        classes = []
        for kind, direction in order:
            wanted = [u for u in users if (u.kind, u.direction) == (kind, direction)]
            if wanted:
                ranks = sorted({u.order for u in wanted})
                draw = (center if kind == "center" else edge)(ranks, counts[kind, direction])
                classes.append((draw, [(u, ranks.index(u.order)) for u in wanted]))
        return classes

    def layout(rng, B, users):
        drawn = {}   # center user: (BS distance, bearing); edge user: (BS distance, surface distance)
        for draw, slots in plan(tuple(users)):
            rows = draw(rng, B)
            for u, i in slots:
                drawn[u] = tuple(None if r is None else r[i] for r in rows)

        def resolve(group):
            # a center user's bearing is read here only, so it is dropped here
            return {u: _center_geometry(*drawn.pop(u), at_surface) if u.kind == "center" else (None, *drawn[u])
                    for u in group}

        return resolve

    return layout


def sorted_layout(cfg):
    """Cluster layout (class_layout): the users of each class at their distance
    ranks from its anchor, the center classes first.  An edge user is drawn
    at its surface-distance rank (_rank_draw) and keeps only that
    distance, as no gain key of a cluster reads its position, bearing or BS
    distance."""
    def edge(ranks, K):
        radii = _rank_draw(ranks, K, cfg.R_r)
        return lambda rng, B: (None, radii(rng, B))

    return class_layout(cfg, [("center", "DL"), ("center", "UL"), ("edge", "DL"), ("edge", "UL")], edge)


def _cluster_indices(cfg, clusters) -> list:
    """The requested cluster indices, sorted; every cluster when clusters is None.
    An empty request or a repeated index is rejected: each cluster is one group of the draw."""
    if clusters is None:
        return list(range(1, min(cfg.M_d, cfg.M_u) + 1))
    indices = sorted(_integer("cluster", j) for j in clusters)
    if not indices or len(set(indices)) < len(indices):
        raise ValueError(f"clusters must list at least one cluster and none twice, got {indices}")
    return indices


def cluster_schedule(cfgs, powers, state: StarRisState, clusters=None) -> Schedule:
    """The clusters' request to the block loop at every point of cfgs, all off one draw.

    The configs differ in POINT_FIELDS only, and powers gives each point's
    powers as simulate_clusters takes them.  The groups are the requested
    clusters in ascending order.
    """
    points = as_points(cfgs, powers)
    cfg = points[0][0]
    clusters = _cluster_indices(cfg, clusters)
    groups = [cluster_group(cfg, j) for j in clusters]

    def allocations(power):
        missing = [] if isinstance(power, PowerAllocation) else [j for j in clusters if j not in power]
        if missing:
            raise ValueError(f"powers map has no allocation for cluster(s) {missing}")
        return [power if isinstance(power, PowerAllocation) else power[j] for j in clusters]

    return Schedule(
        [(point, allocations(power)) for point, power in points], groups,
        {"DL": cfg.M_d, "UL": cfg.M_u}, sorted_layout(cfg), state,
    )


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
    """
    clusters = _cluster_indices(cfg, clusters)
    groups, sums = simulate_groups([cluster_schedule([cfg], [powers], state, clusters)], trials, seed, block_size)[0][0]
    reports = {}
    for j, group in zip(clusters, groups):
        rates, stderr = ({role: group[role][i] for role in ROLES} for i in (0, 1))
        reports[j] = RateReport(rates, stderr)
    return reports, sums


def simulate(plan: SimPlan) -> RateReport:
    """Monte-Carlo rate report for one cluster of the plan's config."""
    reports, _ = simulate_clusters(
        plan.cfg, plan.power, plan.state, plan.trials, plan.seed,
        clusters=[plan.cluster], block_size=plan.block_size,
    )
    return reports[plan.cluster]

