"""Shared plumbing of the workloads: paths, set-up samples, spans, layers.

The benchmark reaches the program only through public entry points.
In a traced run it opens its own ``bench:<layer>`` spans around each
public call, and folds the spans the program already emits through its
public ``tracer=`` argument for layers that are only reachable inside
``run_flow``, ``Workspace.edit`` or ``Campaign.run``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

from stats import fold_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout: result stores and trace files.
WORK = os.path.join(ROOT, ".perfbench")

#: The clock of every measurement.  The benchmark is one serial process,
#: so its CPU seconds are what the program costs; the wall clock of a
#: shared host also counts time the hypervisor gives the CPU to others
#: (15-40 % of it, in bursts of tens of seconds, on a shared 2-vCPU
#: x86-64 virtual machine).
cpu_clock = time.process_time

#: Iterations of the host probe loop: about 10 ms of CPU on a 2.1 GHz
#: x86-64 virtual CPU.
PROBE_LOOPS = 50_000
#: Loops per probe sample; the fastest one is the sample.
PROBE_REPEATS = 3

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3

#: Program span names -> layer, for spans the program emits itself.
_PROGRAM_LAYERS = {
    "step.synthesis": "synth",
    "step.technology_mapping": "synth",
    "step.equivalence_check": "sim.equiv",
    "step.floorplanning": "pnr.place",
    "step.placement": "pnr.place",
    "step.clock_tree_synthesis": "pnr.cts",
    "step.routing": "pnr.route",
    "step.static_timing_analysis": "sta",
    "step.power_analysis": "power",
    # The DRC step builds the chip layout (build_chip_gds has no span of
    # its own); the DRC engine's own spans are drc.* below.
    "step.design_rule_check": "layout.build",
    "step.gds_export": "layout.gds_write",
    "extract.identify": "extract",
    "extract.flatten": "extract",
    "extract.connect": "extract",
    "extract.lvs": "extract.lvs",
    "extract.compare": "extract.lvs",
    "extract.lec": "extract.lvs",
    "formal.lec.cone": "formal.lec_cone",
    "inter.lec": "formal.lec_cone",
    "inter.dirty_set": "inter.dirty_set",
    "inter.shard": "inter.shard",
    "inter.stitch": "inter.stitch",
}
_PROGRAM_PREFIXES = (
    ("sim.", "sim.equiv"),
    ("lint.", "lint"),
    ("inter.lint", "lint"),
    ("drc.", "layout.drc"),
)
BENCH_PREFIX = "bench:"


def layer_of(name: str) -> str | None:
    """The layer a span belongs to, or ``None`` to inherit its parent's."""
    if name.startswith(BENCH_PREFIX):
        return name[len(BENCH_PREFIX):]
    layer = _PROGRAM_LAYERS.get(name)
    if layer is not None:
        return layer
    for prefix, layer in _PROGRAM_PREFIXES:
        if name.startswith(prefix):
            return layer
    return None


def host_probe() -> float:
    """CPU seconds a fixed pure-Python loop takes right now (best of
    ``PROBE_REPEATS``).

    The loop shares no code with the program, so its time moves only
    with the host.  On a shared 2-vCPU virtual machine, CPU seconds of
    the program and of this loop both rose by ~1.7x whenever a
    neighbour contended for the core, for tens of seconds at a time,
    which no repetition inside a run can average out; operation times
    are reported relative to it.
    """
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = cpu_clock()
        table: dict[int, int] = {}
        total = 0
        for i in range(PROBE_LOOPS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            total += i * i % 7
        best = min(best, cpu_clock() - start)
    return best


def fold(spans) -> dict[str, float]:
    """Self seconds per layer over ``spans``."""
    return fold_layers(spans, layer_of)


def bench_span(tracer, layer: str):
    """A span the benchmark opens around one public call."""
    return tracer.span(BENCH_PREFIX + layer)


def route_attempts(spans) -> int:
    """Net routes the router attempted, from its spans.

    The first-pass span carries ``nets`` and ``failed``; every rip-up
    round carries its ``victims``, each of which is routed again.
    """
    attempts = 0
    for span in spans:
        if span.name == "route.initial":
            attempts += int(span.attributes.get("nets", 0))
            attempts += int(span.attributes.get("failed", 0))
        elif span.name == "route.rip_up":
            attempts += int(span.attributes.get("victims", 0))
    return attempts


def cells_outside_rows(placement, eps: float = 1e-6) -> int:
    """Placed cells that do not lie wholly inside one floorplan row."""
    rows = placement.floorplan.rows
    outside = 0
    for cell in placement.cells.values():
        inside = any(
            abs(cell.y - row.y) <= eps
            and cell.x >= row.x0 - eps
            and cell.x + cell.width <= row.x1 + eps
            for row in rows
        )
        outside += not inside
    return outside


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    """``first`` plus set-up times of fresh processes doing the same set-up.

    Each child runs this script with ``--setup-only`` and prints the CPU
    seconds it took to get the workload ready, measured the same way as
    ``first``.
    """
    samples = [first]
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def write_trace_file(name: str, tracer, metrics=None) -> str:
    """Write the in-memory spans once the run is over; returns the path."""
    from repro.obs import write_trace

    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"trace-{name}.jsonl")
    write_trace(path, tracer, metrics)
    return path


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)
