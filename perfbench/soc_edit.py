"""Workload ``soc_edit_loop``: a student iterating on the soc.

``Workspace.open`` once (part of set-up), then rounds of one-module
logic edits through ``Workspace.edit`` (closed loop, one client).  A
round recodes sevenseg and counter8 (same name and ports, other logic)
in a seeded order and then reverts them in the same order, so every
edit changes logic and each round starts from the catalogue soc.  The
edits take the same pnr, synth and formal layers through another path:
the hierarchical placer, verified-replay routing, memoized shards and
cone-limited LEC.  There is no extraction here.
"""

from __future__ import annotations

import gc
import random
import time

from repro.hdl.verilog import to_verilog
from repro.inter import Workspace
from repro.ip import make_soc
from repro.ip.digital import make_counter
from repro.ip.soc import sevenseg_recode_rtl
from repro.obs import MetricsRegistry, Tracer
from repro.pdk import get_pdk

from harness import (
    cells_outside_rows,
    cpu_clock,
    fold,
    host_probe,
    route_attempts,
    write_trace_file,
)
from stats import best_per_position

PDK = "edu130"
#: Every edit is measured at least this many times.
MIN_ROUNDS = 2


def _recodes() -> dict[str, str]:
    """Recoded RTL per module: same name and ports, other logic."""
    return {
        "sevenseg": sevenseg_recode_rtl(),
        "counter8": to_verilog(make_counter(width=8, step=3).module),
    }


class State:
    def __init__(self, seed: int):
        self.pdk = get_pdk(PDK)
        self.soc = make_soc().module
        self.recoded = _recodes()
        order = sorted(self.recoded)
        random.Random(seed).shuffle(order)
        self.order = order
        self.workspace = Workspace.open(self.soc, self.pdk)
        self.original = {m: self.workspace.rtl_of(m) for m in order}


def _edit(workspace, module: str, rtl: str, tally, probes):
    """One edit; returns (seconds, report or None).

    A host probe is appended to ``probes`` first, unless it is None.
    """
    if probes is not None:
        probes.append(host_probe())
    gc.collect()
    start = cpu_clock()
    try:
        report = workspace.edit(module, rtl)
    except Exception as exc:
        tally.record(False, f"edit {module}: {type(exc).__name__}: {exc}")
        return cpu_clock() - start, None
    elapsed = cpu_clock() - start
    proved = (
        not report.clean and report.fallback is None
        and report.lec is not None and report.lec.equivalent
        and not report.lec.inconclusive
    )
    tally.record(proved, f"edit {module}: clean, fell back or unproved "
                         f"({report.fallback})")
    return elapsed, report


def _round(state: State, workspace, tally, probes=None):
    """Recode every module, then revert them.

    Returns (seconds, report) per edit and the recoded design with its
    result, taken before the reverts.
    """
    edits = [
        _edit(workspace, m, state.recoded[m], tally, probes)
        for m in state.order
    ]
    recoded = (workspace.design, workspace.result)
    edits += [
        _edit(workspace, m, state.original[m], tally, probes)
        for m in state.order
    ]
    return edits, recoded


def _check_against_rebuild(state: State, design, result, tally) -> None:
    """An edited result must equal a from-scratch build of its design."""
    cold = Workspace.open(design, state.pdk).result
    tally.record(
        cold.gds_bytes == result.gds_bytes,
        "edited GDS differs from a from-scratch rebuild",
    )
    tally.record(
        cold.to_json() == result.to_json(),
        "edited FlowResult JSON differs from a from-scratch rebuild",
    )


def measure(state: State, seconds: float, tally):
    """Edit rounds while less than ``seconds`` have passed, at least two.

    Every round makes the same edits from the same start, so an edit's
    time is its best over the rounds: contention from other processes
    only ever slows one down.  Returns the workload's metrics, the
    best seconds of every edit position, and the host probe taken before
    each edit.
    """
    opened = (state.workspace.result.gds_bytes,
              state.workspace.result.to_json())
    rounds, probes = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        edits, (design, result) = _round(
            state, state.workspace, tally, probes
        )
        rounds.append([elapsed for elapsed, _ in edits])
        if len(rounds) == 1:
            _check_against_rebuild(state, design, result, tally)
            quality = {
                "hpwl_um": result.physical.placement.hpwl_um,
                "wirelength_um": result.physical.routing.total_wirelength_um,
                "fmax_geomean_mhz": result.ppa.fmax_mhz,
            }
        del edits, design, result
    # Each round ends on the catalogue soc, which set-up built cold.
    final = state.workspace.result
    tally.record(
        (final.gds_bytes, final.to_json()) == opened,
        "reverted soc differs from its from-scratch build",
    )
    best = best_per_position(rounds)
    print(f"edit order {state.order}, {len(rounds)} round(s)")
    print("best edit seconds: " + " ".join(f"{t:.3f}" for t in best))
    return quality, best, probes


def trace(state: State, tally) -> dict:
    """One untraced and one traced round, each on its own workspace."""
    start = cpu_clock()
    _round(state, state.workspace, tally)
    untraced_s = cpu_clock() - start

    tracer, registry = Tracer(clock=cpu_clock), MetricsRegistry()
    workspace = Workspace.open(
        state.soc, state.pdk, tracer=tracer, metrics=registry
    )
    mark = tracer.mark()
    opened = {
        name: registry.counter(name).value
        for name in (
            "inter.route.replayed", "inter.route.routed",
            "inter.synth.memo_hits", "inter.synth.memo_misses",
        )
    }
    start = cpu_clock()
    edits, (design, result) = _round(state, workspace, tally)
    traced_s = cpu_clock() - start
    _check_against_rebuild(state, design, result, tally)
    write_trace_file("soc_edit_loop", tracer, registry)

    def grown(name: str) -> float:
        return registry.counter(name).value - opened[name]

    replayed, rerouted = grown("inter.route.replayed"), grown("inter.route.routed")
    hits, misses = grown("inter.synth.memo_hits"), grown("inter.synth.memo_misses")
    spans = tracer.since(mark)
    attempts = route_attempts(spans)
    routed = sum(
        len(report.result.physical.routing.nets)
        for _, report in edits if report is not None
    )
    return {
        "layers": fold(spans),
        "pnr.cells_outside_rows": cells_outside_rows(result.physical.placement),
        "pnr.route_overflow": result.physical.routing.overflow,
        "pnr.route_useful_ratio": routed / attempts if attempts else 0.0,
        "pnr.replay_ratio": replayed / (replayed + rerouted)
        if replayed + rerouted else 0.0,
        "inter.shard_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "synth.cells": len(result.physical.mapped.cells),
        "obs.trace_overhead_ratio": traced_s / untraced_s,
    }
