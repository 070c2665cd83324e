"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

The traced run wraps the public functions listed in TRACED at every starnoma
module that binds them by name (``starnoma.simulator.sample_rician`` as well
as ``starnoma.channel.sample_rician``), so calls made through any import are
seen.  Nothing under ``src/`` is edited.  Each call becomes a span
``[name, start, end, parent, work]`` kept in memory and written out when the
call returns; self time is derived from the parent links afterwards.

``clustering`` (the simulator orders users itself), ``specfun`` (reached only
through ``geometry.outside_point_pathloss_mean``) and ``config`` (trivial
work) carry no spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

POSITION_TERMS = ("geometry.ordered_pathloss_mean", "geometry.pair_pathloss_mean",
                  "geometry.outside_point_pathloss_mean")
POWER_POLICIES = ("comparison.cluster_power_policy", "comparison.pair_power_policy")
ROOT_SPAN = "cli.main"

TRACED = (
    *POSITION_TERMS,
    "geometry.sample_disk",
    "channel.sample_rician",
    "channel.build_links",
    "rates.expectation_terms",
    "rates.surface_terms",
    "rates.rate_report",
    "rates.weighted_sum_rate",
    "simulator.simulate_clusters",
    "comparison.simulate_pair_sums",
    *POWER_POLICIES,
    "comparison.pair_rate_sums",
    "design.pgam_optimize",
)


def _work_counter(qualname: str, fn):
    """What a span records besides its time: fading entries drawn (trials x N) or trials simulated."""
    if qualname == "channel.sample_rician":
        return lambda args, kwargs, result: int(getattr(result, "size", 0))
    if qualname == "simulator.simulate_clusters":
        sig = inspect.signature(fn)
        return lambda args, kwargs, result: int(sig.bind(*args, **kwargs).arguments.get("trials", 0))
    return None


class Recorder:
    """In-memory spans of one call tree; single-threaded, like the program."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs, work=None):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span[4] = work(args, kwargs, result)
        return result


def install(rec: Recorder) -> list[str]:
    """Wrap every TRACED function wherever a loaded starnoma module binds it.

    A name missing from its home module is not an error: it gets a note, and
    its counts read 0, so a refactor that moves or deletes a helper still runs.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name == "starnoma" or name.startswith("starnoma.")]
    notes = []
    for qualname in TRACED:
        layer, fname = qualname.split(".")
        original = getattr(sys.modules.get(f"starnoma.{layer}"), fname, None)
        if not callable(original):
            notes.append(f"starnoma.{qualname} not found; its metrics read 0")
            continue
        work = _work_counter(qualname, original)

        @functools.wraps(original)
        def wrapper(*args, _name=qualname, _fn=original, _work=work, **kwargs):
            return rec.call(_name, _fn, args, kwargs, _work)

        for mod in modules:
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, wrapper)
    return notes


def layer_metrics(spans: list[list], iterations: int) -> dict[str, float]:
    """Per-layer counts and busy times of one traced call.

    iterations is the number of PGAM ascent steps the call's trace shows
    (0 when the call ran no optimizer).
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    names = [s[0] for s in spans]

    def idx(*wanted):
        return [i for i, n in enumerate(names) if n in wanted]

    def count(*wanted):
        return len(idx(*wanted))

    def busy(*wanted):
        # outermost spans only, so a nested call of the same group is not counted twice
        return sum(dur[i] for i in idx(*wanted) if spans[i][3] < 0 or names[spans[i][3]] not in wanted)

    def self_time(*wanted):
        return sum(dur[i] - child[i] for i in idx(*wanted))

    def under(i, ancestor):
        p = spans[i][3]
        while p >= 0:
            if names[p] == ancestor:
                return True
            p = spans[p][3]
        return False

    sim_s = busy("simulator.simulate_clusters")
    sim_trials = sum(spans[i][4] for i in idx("simulator.simulate_clusters"))
    pgam_s = busy("design.pgam_optimize")
    evals = sum(1 for i in idx("rates.weighted_sum_rate") if under(i, "design.pgam_optimize"))
    return {
        "geometry.position_term_calls": count(*POSITION_TERMS),
        "geometry.position_term_s": busy(*POSITION_TERMS),
        "geometry.sample_disk_calls": count("geometry.sample_disk"),
        "geometry.sample_disk_s": busy("geometry.sample_disk"),
        "channel.sample_rician_calls": count("channel.sample_rician"),
        "channel.sample_rician_s": busy("channel.sample_rician"),
        "channel.rician_entries": sum(spans[i][4] for i in idx("channel.sample_rician")),
        "channel.build_links_calls": count("channel.build_links"),
        "rates.expectation_terms_calls": count("rates.expectation_terms"),
        "rates.expectation_terms_s": busy("rates.expectation_terms"),
        "rates.surface_terms_calls": count("rates.surface_terms"),
        "rates.surface_terms_s": busy("rates.surface_terms"),
        "rates.rate_report_calls": count("rates.rate_report"),
        "rates.rate_report_s": busy("rates.rate_report"),
        "rates.weighted_sum_rate_calls": count("rates.weighted_sum_rate"),
        "simulator.simulate_clusters_s": sim_s,
        "simulator.trials_per_s": sim_trials / sim_s if sim_s > 0 else 0.0,
        "simulator.self_s": self_time("simulator.simulate_clusters"),
        "comparison.simulate_pair_sums_s": busy("comparison.simulate_pair_sums"),
        "comparison.simulate_pair_sums_self_s": self_time("comparison.simulate_pair_sums"),
        "comparison.power_policy_s": busy(*POWER_POLICIES),
        "comparison.pair_rate_sums_s": busy("comparison.pair_rate_sums"),
        "design.pgam_s": pgam_s,
        "design.iterations": iterations,
        "design.iter_ms": 1e3 * pgam_s / iterations if iterations else 0.0,
        "design.objective_evals_per_iter": evals / iterations if iterations else 0.0,
        "cli.self_s": self_time(ROOT_SPAN),
    }


def median_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced calls (counts repeat exactly)."""
    return {k: statistics.median(m[k] for m in per_call) for k in per_call[0]}
