"""Workload ``cohort_campaign``: a classroom of resubmissions.

Six tenants submit small catalogue IPs with varied parameters on all
three PDKs under both presets.  Every distinct design is submitted at
least once; the rest are resubmissions, so about one submission in
fourteen is new (a flow run plus a store write) and the others are
store reads.  Each submission is a freshly built ``Module``, so keys
come from content.  All of them go through one ``Campaign(workers=0)``
with a ``DirectoryResultCache`` in a fresh directory (open loop: the
whole class submits at t=0).  This is the only workload that runs the
COMMERCIAL preset's sizing and swap pass and all three PDKs, at
small-design cost.  The seed sets who submits what, how often and in
which order; the set of distinct designs is the same for every seed.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

from repro.campaign import Campaign, DirectoryResultCache, result_cache_key, \
    result_signature
from repro.core import FlowOptions, run_flow
from repro.ip.catalog import generate
from repro.obs import Tracer, use_tracer
from repro.pdk import get_pdk

from harness import (
    WORK,
    bench_span,
    cells_outside_rows,
    cpu_clock,
    fold,
    host_probe,
    route_attempts,
    write_trace_file,
)
from stats import best_per_position, geomean

PDKS = ("edu045", "edu130", "edu180")
PRESETS = ("open", "commercial")
TENANTS = tuple(f"class{i}" for i in range(6))
SUBMISSIONS = 2000
#: Every job is measured at least this many times.
MIN_ROUNDS = 2
#: One store lookup in this many also samples the host probe.
PROBE_EVERY = 100
#: Cache hits re-run from scratch to check their stored results.
HIT_SAMPLE = 6
#: (generator, parameters) of the small IPs students submit.
VARIANTS = (
    ("counter", {"width": 4}), ("counter", {"width": 6}),
    ("counter", {"width": 8}), ("counter", {"width": 8, "step": 3}),
    ("shift_register", {"width": 4, "depth": 2}),
    ("shift_register", {"width": 8, "depth": 2}),
    ("shift_register", {"width": 4, "depth": 4}),
    ("gray_counter", {"width": 4}), ("gray_counter", {"width": 6}),
    ("lfsr", {"width": 4}), ("lfsr", {"width": 8}),
    ("priority_encoder", {"width": 4}), ("priority_encoder", {"width": 8}),
    ("seven_seg", {}),
    ("pwm", {"width": 4}), ("pwm", {"width": 6}),
    ("uart_tx", {"divisor": 2}), ("uart_tx", {"divisor": 4}),
    ("alu", {"width": 4}),
    ("multiplier", {"width": 3}), ("multiplier", {"width": 4}),
    ("fifo", {"width": 4, "depth": 2}),
    ("fir", {"taps": (1, 1), "width": 4}),
    ("fir", {"taps": (1, 2, 1), "width": 4}),
)


class State:
    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        pool = [
            (variant, pdk, preset)
            for variant in VARIANTS for pdk in PDKS for preset in PRESETS
        ]
        owner = {i: rng.choice(TENANTS) for i in range(len(pool))}
        picks = list(range(len(pool)))
        picks += rng.choices(range(len(pool)), k=SUBMISSIONS - len(pool))
        rng.shuffle(picks)
        self.distinct = len(pool)
        self.submissions = []
        for i in picks:
            (name, params), pdk, preset = pool[i]
            self.submissions.append((
                owner[i], generate(name, **params).module, pdk,
                FlowOptions(preset=preset),
            ))
        for pdk in PDKS:
            get_pdk(pdk)


class StoreProbe:
    """A result store seen from outside.

    Every lookup starts a job, so lookups time-stamp the jobs.  Given a
    ``probes`` list, every ``PROBE_EVERY``-th lookup also samples the
    host probe between the previous job's end and the next job's start.
    With a tracer each read and write gets a benchmark span.
    """

    def __init__(self, store: DirectoryResultCache, tracer=None,
                 probes: list[float] | None = None):
        self.store = store
        self.tracer = tracer
        self.probes = probes
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.read_bytes = 0

    def job_seconds(self, end: float) -> list[float]:
        """Seconds of every job so far, the last one ending at ``end``."""
        return [b - a for a, b in zip(self.starts, self.ends[1:] + [end])]

    def get(self, key):
        self.ends.append(cpu_clock())
        if self.probes is not None and len(self.ends) % PROBE_EVERY == 1:
            self.probes.append(host_probe())
        self.starts.append(cpu_clock())
        if self.tracer is None:
            return self.store.get(key)
        with bench_span(self.tracer, "store.read"):
            result = self.store.get(key)
        if result is not None:
            # DirectoryResultCache keeps one ``<root>/<key>.res`` file per key.
            self.read_bytes += os.path.getsize(
                os.path.join(self.store.root, f"{key}.res")
            )
        return result

    def put(self, key, result):
        if self.tracer is None:
            return self.store.put(key, result)
        with bench_span(self.tracer, "store.write"):
            self.store.put(key, result)


class ScheduleProbe:
    """A scheduler whose ordering call gets a benchmark span."""

    def __init__(self, scheduler, tracer):
        self.scheduler = scheduler
        self.tracer = tracer
        self.name = scheduler.name

    def order(self, jobs, seed=0):
        with bench_span(self.tracer, "campaign.sched"):
            return self.scheduler.order(jobs, seed=seed)


def _campaign(state: State, tally, tag: str, tracer=None, probes=None):
    """Submit the whole class to a fresh store and run it once.

    A job's seconds run from its store lookup to the next job's lookup
    (or the end of the run).  Returns (seconds, per-job seconds, report,
    jobs, probe).
    """
    root = os.path.join(WORK, f"cohort-{os.getpid()}-{tag}")
    shutil.rmtree(root, ignore_errors=True)
    probe = StoreProbe(DirectoryResultCache(root), tracer, probes)
    campaign = Campaign(cache=probe, workers=0, seed=state.seed,
                        tracer=tracer)
    if tracer is not None:
        campaign.scheduler = ScheduleProbe(campaign.scheduler, tracer)
        # Campaign.run keys every job internally; the key layer is timed
        # here by calling the same public function on the same inputs.
        with bench_span(tracer, "campaign.key"):
            for _, module, pdk, options in state.submissions:
                result_cache_key(module, pdk, options)
    gc.collect()
    try:
        start = cpu_clock()
        jobs = [
            campaign.submit(tenant, module, pdk, options=options)
            for tenant, module, pdk, options in state.submissions
        ]
        if tracer is not None:
            with use_tracer(tracer):
                report = campaign.run()
        else:
            report = campaign.run()
        end = cpu_clock()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    per_job = probe.job_seconds(end)
    for job in jobs:
        tally.record(job.status == "done",
                     f"job {job.job_id} ({job.module.name}): {job.error}")
    tally.record(
        report.cache_misses == state.distinct,
        f"{report.cache_misses} store misses for {state.distinct} "
        f"distinct designs",
    )
    return end - start, per_job, report, jobs, probe


def _check_hits(state: State, jobs, tally) -> None:
    """A seeded sample of hits must match a fresh run_flow exactly."""
    hits = [job for job in jobs if job.cache_hit and job.result is not None]
    for job in random.Random(state.seed).sample(hits, min(HIT_SAMPLE, len(hits))):
        fresh = run_flow(job.module, get_pdk(job.pdk_name), job.options)
        tally.record(
            result_signature(fresh) == result_signature(job.result),
            f"job {job.job_id} ({job.module.name}): stored result differs "
            f"from a fresh run",
        )


def _distinct_results(jobs) -> list:
    seen = {}
    for job in jobs:
        if job.result is not None:
            seen.setdefault(job.key, job.result)
    return list(seen.values())


def measure(state: State, seconds: float, tally):
    """Campaigns on fresh stores while less than ``seconds`` have passed,
    at least two.

    Every campaign dispatches the same jobs in the same order with the
    same hits and misses, so a job's time is its best over the
    campaigns: contention from other processes only ever slows one
    down.  Returns the workload's metrics, the best seconds of every
    job, taken between successive store lookups, and the host probes
    sampled during each campaign.
    """
    rounds, probes = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        spent, per_job, report, jobs, _ = _campaign(
            state, tally, str(len(rounds)), probes=probes
        )
        print(f"campaign {len(rounds)}: {spent:.3f} s, "
              f"{report.jobs / spent:.1f} jobs/s")
        rounds.append(per_job)
        if len(rounds) == 1:
            _check_hits(state, jobs, tally)
            results = _distinct_results(jobs)
            print(report.render())
        del jobs  # let the campaign's results go before the next one
    best = best_per_position(rounds)
    return {
        "hpwl_um": sum(r.physical.placement.hpwl_um for r in results),
        "wirelength_um": sum(
            r.physical.routing.total_wirelength_um for r in results
        ),
        "fmax_geomean_mhz": geomean(r.ppa.fmax_mhz for r in results),
    }, best, probes


def trace(state: State, tally) -> dict:
    """One untraced and one traced campaign, each on a fresh store."""
    untraced_s, _, _, _, _ = _campaign(state, tally, "untraced")
    tracer = Tracer(clock=cpu_clock)
    traced_s, _, report, jobs, probe = _campaign(
        state, tally, "traced", tracer=tracer
    )
    write_trace_file("cohort_campaign", tracer)
    results = _distinct_results(jobs)
    gets = probe.store.hits + probe.store.misses
    attempts = route_attempts(tracer.spans)
    routed = sum(len(r.physical.routing.nets) for r in results)
    return {
        "layers": fold(tracer.spans),
        "pnr.route_useful_ratio": routed / attempts if attempts else 0.0,
        "store.read_bytes": probe.read_bytes,
        "store.hit_ratio": probe.store.hits / gets if gets else 0.0,
        "campaign.p95_wait_min": report.sim.p95_wait_min,
        "pnr.cells_outside_rows": sum(
            cells_outside_rows(r.physical.placement) for r in results
        ),
        "pnr.route_overflow": sum(r.physical.routing.overflow for r in results),
        "synth.cells": sum(len(r.synthesis.mapped.cells) for r in results),
        "obs.trace_overhead_ratio": traced_s / untraced_s,
    }
