"""Workload ``catalogue_signoff``: every catalogue design, full signoff.

A course CI signing off the whole catalogue, one design after another
(closed loop, one client): ``run_flow`` on edu130 with the OPEN preset,
``formal_lec`` and ``extract_lvs`` on, then ``run_signoff``.  It is the
only workload that runs full LEC, GDS-in extraction/LVS and signoff,
and it keeps soc, tinycpu and mult8, whose routing does not converge
today.  The seed only sets the order in which designs are signed off.
"""

from __future__ import annotations

import gc
import random
import time

from repro.core import FlowOptions, FlowResult, run_flow, run_signoff
from repro.extract import run_lvs
from repro.formal import lec_flow
from repro.ip import default_catalogue
from repro.layout import build_chip_gds, check_drc, write_gds
from repro.lint import lint_mapped, lint_module
from repro.obs import MetricsRegistry, Tracer
from repro.pdk import get_pdk
from repro.pnr import (
    PhysicalDesign,
    grid_capacity,
    make_floorplan,
    place,
    route,
    synthesize_clock_tree,
)
from repro.power import PowerAnalyzer
from repro.sta import TimingAnalyzer
from repro.synth import synthesize

from harness import (
    bench_span,
    cells_outside_rows,
    cpu_clock,
    fold,
    host_probe,
    route_attempts,
    write_trace_file,
)
from stats import geomean

PDK = "edu130"
OPTIONS = FlowOptions(formal_lec=True, extract_lvs=True)
#: The rip-up round cap ``implement`` passes to the router.
ROUTE_ITERATIONS = 8
#: All but the SINGLE slowest designs of the first pass are signed off
#: EXTRA_ROUNDS more times.
SINGLE = 3
EXTRA_ROUNDS = 2


class State:
    def __init__(self, seed: int):
        self.pdk = get_pdk(PDK)
        self.designs = [ip.module for ip in default_catalogue()]
        random.Random(seed).shuffle(self.designs)


def _summary(result, report) -> dict:
    """The numbers one signed-off design leaves behind.

    Only these outlive the operation: holding whole results would grow
    the heap that every later garbage collection walks.
    """
    physical = result.physical
    return {
        "cells": len(physical.mapped.cells),
        "hpwl_um": physical.placement.hpwl_um,
        "wirelength_um": physical.routing.total_wirelength_um,
        "overflow": physical.routing.overflow,
        "nets": len(physical.routing.nets),
        "outside_rows": cells_outside_rows(physical.placement),
        "wns_ps": result.timing.wns_ps,
        "hold_ps": result.timing.worst_hold_slack_ps,
        "fmax_mhz": result.ppa.fmax_mhz,
        "signoff_failures": [item.name for item in report.failures],
        "gds": result.gds_bytes,
    }


def _signoff(module, pdk, tally):
    """One closed-loop operation: flow with LEC+LVS, then signoff.

    Returns the design's summary (None if it raised) and its seconds.
    """
    gc.collect()
    start = cpu_clock()
    try:
        result = run_flow(module, pdk, OPTIONS)
        report = run_signoff(result)
    except Exception as exc:  # any raise is a failed operation
        tally.record(False, f"{module.name}: {type(exc).__name__}: {exc}")
        return None, cpu_clock() - start
    elapsed = cpu_clock() - start
    proved = (
        result.lec is not None and result.lec.passed
        and result.lvs is not None and result.lvs.clean
    )
    tally.record(proved, f"{module.name}: LEC or LVS not clean")
    return _summary(result, report), elapsed


def _quality(summaries) -> dict:
    return {
        "hpwl_um": sum(s["hpwl_um"] for s in summaries),
        "wirelength_um": sum(s["wirelength_um"] for s in summaries),
        "fmax_geomean_mhz": geomean(s["fmax_mhz"] for s in summaries),
    }


def measure(state: State, seconds: float, tally):
    """Sign off every design, then again to get each design's best time.

    Every design runs once in the seeded order.  All but the ``SINGLE``
    slowest run ``EXTRA_ROUNDS`` more times, and whole passes follow
    while less than ``seconds`` have passed.  Contention from
    other processes only ever slows a run down, so a design's time is
    its best sample.  Returns the workload's metrics and the best
    seconds of every design, and the host probe taken before each run.
    """
    samples = {m.name: [] for m in state.designs}
    first = {}
    probes = []

    def run(module):
        probes.append(host_probe())
        summary, elapsed = _signoff(module, state.pdk, tally)
        samples[module.name].append(elapsed)
        first.setdefault(module.name, summary)

    start = time.perf_counter()
    for module in state.designs:
        run(module)
    print(f"first pass: {sum(t[0] for t in samples.values()):.3f} s")
    slowest = sorted(samples, key=lambda name: samples[name][0])[-SINGLE:]
    cheap = [m for m in state.designs if m.name not in slowest]
    for _ in range(EXTRA_ROUNDS):
        for module in cheap:
            run(module)
    while time.perf_counter() - start < seconds:
        for module in state.designs:
            run(module)

    best = {name: min(times) for name, times in samples.items()}
    print("design      cells       hpwl  ovflw outrow   wns_ps  hold_ps"
          "  best_s  runs  signoff failures")
    for name, s in sorted(first.items()):
        if s is None:
            continue
        print(
            f"{name:10s} {s['cells']:6d} {s['hpwl_um']:10.1f} "
            f"{s['overflow']:6d} {s['outside_rows']:6d} {s['wns_ps']:9.1f} "
            f"{s['hold_ps']:9.1f} {best[name]:7.3f} {len(samples[name]):5d}  "
            f"{','.join(s['signoff_failures']) or '-'}"
        )
    done = [s for s in first.values() if s is not None]
    return _quality(done), list(best.values()), probes


def _pipeline(module, pdk, tracer, metrics):
    """``run_flow(module, pdk, OPTIONS)`` rebuilt from each layer's public
    function, with a benchmark span around every call."""
    preset = OPTIONS.preset
    if preset.placer != "quadratic":
        raise ValueError("pipeline mirrors the quadratic placer only")
    with bench_span(tracer, "lint"):
        rtl_lint = lint_module(
            module, waivers=OPTIONS.lint_waivers, tracer=tracer
        )
    with bench_span(tracer, "synth"):
        synth = synthesize(
            module, pdk.library,
            objective=preset.mapping_objective,
            opt_passes=preset.opt_passes,
            sizing=preset.gate_sizing,
            max_load_per_drive_ff=preset.max_load_per_drive_ff,
            verify=preset.run_equivalence,
            verify_cycles=preset.equivalence_cycles,
            verify_seed=OPTIONS.seed,
            tracer=tracer,
        )
    mapped = synth.mapped
    with bench_span(tracer, "lint"):
        lint = rtl_lint.merge(
            lint_mapped(mapped, waivers=OPTIONS.lint_waivers, tracer=tracer)
        )
    with bench_span(tracer, "formal.lec"):
        lec = lec_flow(module, synth, tracer=tracer, metrics=metrics)
    with bench_span(tracer, "pnr.place"):
        floorplan = make_floorplan(
            mapped, pdk.node, utilization=preset.utilization
        )
        placement = place(
            mapped, floorplan,
            detailed_passes=preset.detailed_placement_passes,
            seed=OPTIONS.seed, tracer=tracer,
        )
    with bench_span(tracer, "pnr.cts"):
        clock_tree = synthesize_clock_tree(
            placement, mapped.library, pdk.node,
            buffering=preset.cts_buffering, tracer=tracer,
        )
    with bench_span(tracer, "pnr.route"):
        routing = route(
            mapped, placement, pdk.node, rip_up=preset.router_rip_up,
            capacity=grid_capacity(pdk.node, pdk.layers),
            max_iterations=ROUTE_ITERATIONS, tracer=tracer,
        )
    physical = PhysicalDesign(
        mapped, pdk, floorplan, placement, clock_tree, routing
    )
    with bench_span(tracer, "sta"):
        timing = TimingAnalyzer(
            mapped, pdk.node, wire_lengths_um=physical.wire_lengths(),
            skew_ps=clock_tree.skew_map(), tracer=tracer, metrics=metrics,
        ).analyze(OPTIONS.clock_period_ps)
    with bench_span(tracer, "power"):
        power = PowerAnalyzer(
            mapped, pdk.node, wire_lengths_um=physical.wire_lengths(),
            tracer=tracer, metrics=metrics,
        ).analyze(min(timing.fmax_mhz, 1e6 / OPTIONS.clock_period_ps))
    with bench_span(tracer, "layout.build"):
        library = build_chip_gds(physical)
    with bench_span(tracer, "layout.drc"):
        drc = check_drc(library, pdk.layers, mapped.name, tracer=tracer)
    with bench_span(tracer, "layout.gds_write"):
        gds = write_gds(library)
    # run_lvs extracts the netlist itself (extract_netlist); its
    # extract.* spans fold into the extract layer.
    with bench_span(tracer, "extract.lvs"):
        lvs = run_lvs(
            gds, mapped, pdk,
            expected_pins={pin.name for pin in floorplan.io_pins},
            tracer=tracer, metrics=metrics,
        )
    result = FlowResult(
        design_name=module.name, pdk_name=pdk.name, preset=preset,
        clock_period_ps=OPTIONS.clock_period_ps, steps=[], synthesis=synth,
        physical=physical, timing=timing, power=power, drc=drc,
        gds_bytes=gds, lint=lint, lec=lec, lvs=lvs,
    )
    with bench_span(tracer, "core.signoff"):
        report = run_signoff(result)
    return {
        "gds": gds, "lec": lec, "lvs": lvs,
        "signoff_failures": [item.name for item in report.failures],
        "cells": len(mapped.cells),
        "shapes": sum(len(struct.boundaries) for struct in library.structs),
    }


def trace(state: State, tally) -> dict:
    """Per-layer numbers from one traced pass through the public layers.

    Pass A runs ``run_flow`` + ``run_signoff`` untraced and keeps each
    design's summary; pass B rebuilds every design from the layers'
    public functions under a tracer and must reproduce pass A's GDS
    bytes and signoff verdict.
    """
    reference = {}
    start = cpu_clock()
    for module in state.designs:
        reference[module.name], _ = _signoff(module, state.pdk, tally)
    untraced_s = cpu_clock() - start

    tracer, registry = Tracer(clock=cpu_clock), MetricsRegistry()
    built = {}
    start = cpu_clock()
    for module in state.designs:
        gc.collect()
        try:
            built[module.name] = _pipeline(module, state.pdk, tracer, registry)
        except Exception as exc:
            tally.record(False, f"{module.name}: traced pipeline raised {exc!r}")
    traced_s = cpu_clock() - start
    write_trace_file("catalogue_signoff", tracer, registry)

    for name, parts in built.items():
        summary = reference[name]
        tally.record(
            summary is not None and parts["gds"] == summary["gds"],
            f"{name}: public-layer pipeline GDS differs from run_flow",
        )
        tally.record(
            parts["lec"].passed and parts["lvs"].clean,
            f"{name}: traced LEC or LVS not clean",
        )
        tally.record(
            summary is not None
            and parts["signoff_failures"] == summary["signoff_failures"],
            f"{name}: public-layer pipeline signoff differs from run_flow",
        )

    layers = fold(tracer.spans)
    attempts = route_attempts(tracer.spans)
    done = [s for s in reference.values() if s is not None]
    shapes = registry.counter("extract.shapes").value
    return {
        "layers": layers,
        "pnr.cells_outside_rows": sum(s["outside_rows"] for s in done),
        "pnr.route_overflow": sum(s["overflow"] for s in done),
        "pnr.route_useful_ratio": (
            sum(s["nets"] for s in done) / attempts if attempts else 0.0
        ),
        "extract.shapes_per_s": (
            shapes / layers["extract"] if layers.get("extract") else 0.0
        ),
        "layout.shapes": sum(p["shapes"] for p in built.values()),
        "synth.cells": sum(p["cells"] for p in built.values()),
        "core.signoff_failed_items": sum(
            len(s["signoff_failures"]) for s in done
        ),
        "obs.trace_overhead_ratio": traced_s / untraced_s,
    }
