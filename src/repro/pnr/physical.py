"""Physical implementation orchestration: floorplan → place → CTS → route.

:func:`implement` is the backend entry point used by the flow runner; the
returned :class:`PhysicalDesign` carries everything signoff needs (routed
wire lengths for STA/power, clock skew map, die geometry for GDS export).

Each backend stage is individually checkpointable: pass a
:class:`~repro.resil.store.StageCheckpointer` and every completed
stage is serialized immediately, so a flow interrupted after placement
resumes with the identical placement and only recomputes what is
missing.  ``inject`` accepts a :class:`~repro.resil.faults.FaultInjector`
drill that deterministically fails named stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..pdk.pdks import Pdk
from ..resil.store import StageCheckpointer
from ..resil.faults import FaultInjector
from ..synth.mapped import MappedNetlist
from .cts import ClockTree, synthesize_clock_tree
from .floorplan import Floorplan, make_floorplan
from .placement import Placement, place, random_place
from .route import RoutingResult, grid_capacity, route


@dataclass
class PhysicalDesign:
    """The output of the backend flow for one mapped netlist."""

    mapped: MappedNetlist
    pdk: Pdk
    floorplan: Floorplan
    placement: Placement
    clock_tree: ClockTree
    routing: RoutingResult

    @property
    def die_area_mm2(self) -> float:
        return self.floorplan.die_area_mm2

    def wire_lengths(self) -> dict[int, float]:
        return self.routing.wire_lengths()

    def report(self) -> dict[str, object]:
        return {
            "design": self.mapped.name,
            "pdk": self.pdk.name,
            "cells": len(self.mapped.cells),
            "die_area_mm2": round(self.die_area_mm2, 6),
            "hpwl_um": self.placement.hpwl_um,
            "routed_wirelength_um": round(
                self.routing.total_wirelength_um, 3
            ),
            "routing_overflow": self.routing.overflow,
            "clock_skew_ps": round(self.clock_tree.skew_ps, 3),
            "clock_buffers": len(self.clock_tree.buffers),
        }


def implement(
    mapped: MappedNetlist,
    pdk: Pdk,
    utilization: float = 0.7,
    aspect_ratio: float = 1.0,
    detailed_placement_passes: int = 0,
    cts_buffering: bool = True,
    router_rip_up: bool = True,
    placer: str = "quadratic",
    seed: int = 1,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    checkpoints: StageCheckpointer | None = None,
    inject: FaultInjector | None = None,
) -> PhysicalDesign:
    """Run the full backend on ``mapped`` with the given knobs.

    The knobs correspond one-to-one to the preset differences (experiment
    E4) and the ablation benchmarks: detailed placement passes, CTS
    buffering, router rip-up and the placer algorithm itself.  ``tracer``
    (default: the process tracer) receives one span per backend flow step
    plus sub-spans for the inner phases; tracing never changes results.
    ``checkpoints`` loads completed stages and saves fresh ones as they
    finish; a loaded stage's span carries ``cached=True`` and takes
    effectively no time.  ``inject`` fails named stages on purpose
    (resilience drills) by raising
    :class:`~repro.resil.failure.InjectedFault`.

    ``placer`` is ``"quadratic"`` (spreading plus Abacus row packing,
    :func:`~repro.pnr.placement.place`) or ``"random"`` (the ablation
    baseline).  Routing is :func:`~repro.pnr.route.route` with rip-up
    capped at 8 rounds.  The interactive edit loop
    (:class:`repro.inter.Workspace`) runs this same backend on its
    stitched netlist, so an edit and a from-scratch build place and
    route alike.
    """
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()

    def restore(stage: str):
        """Checkpointed artifact for ``stage``, with hit/miss metering."""
        if checkpoints is None:
            return None
        artifact = checkpoints.load(stage)
        metrics.counter(
            f"resil.checkpoint.{'hit' if artifact is not None else 'miss'}"
        ).inc()
        return artifact

    def preserve(stage: str, artifact) -> None:
        if checkpoints is not None:
            checkpoints.save(stage, artifact)

    def drill(stage: str) -> None:
        if inject is not None:
            inject.check(stage)

    with tracer.span("step.floorplanning") as sp:
        drill("floorplanning")
        floorplan = restore("floorplan")
        if floorplan is None:
            floorplan = make_floorplan(
                mapped, pdk.node, utilization=utilization,
                aspect_ratio=aspect_ratio,
            )
            preserve("floorplan", floorplan)
        else:
            sp.set(cached=True)
        sp.set(**floorplan.stats())
    with tracer.span("step.placement", placer=placer) as sp:
        drill("placement")
        placement = restore("placement")
        if placement is None:
            if placer == "quadratic":
                placement = place(
                    mapped, floorplan,
                    detailed_passes=detailed_placement_passes, seed=seed,
                    tracer=tracer,
                )
            elif placer == "random":
                placement = random_place(
                    mapped, floorplan, seed=seed, tracer=tracer
                )
            else:
                raise ValueError(f"unknown placer {placer!r}")
            preserve("placement", placement)
        else:
            sp.set(cached=True)
        sp.set(hpwl_um=placement.hpwl_um)
    with tracer.span("step.clock_tree_synthesis") as sp:
        drill("clock_tree_synthesis")
        clock_tree = restore("clock_tree")
        if clock_tree is None:
            clock_tree = synthesize_clock_tree(
                placement, mapped.library, pdk.node, buffering=cts_buffering,
                tracer=tracer,
            )
            preserve("clock_tree", clock_tree)
        else:
            sp.set(cached=True)
        sp.set(**clock_tree.stats())
    with tracer.span("step.routing") as sp:
        drill("routing")
        routing = restore("routing")
        if routing is None:
            routing = route(
                mapped, placement, pdk.node, rip_up=router_rip_up,
                capacity=grid_capacity(pdk.node, pdk.layers),
                max_iterations=8, tracer=tracer,
            )
            preserve("routing", routing)
        else:
            sp.set(cached=True)
        sp.set(**routing.stats())
    metrics.counter("pnr.implementations").inc()
    return PhysicalDesign(
        mapped=mapped,
        pdk=pdk,
        floorplan=floorplan,
        placement=placement,
        clock_tree=clock_tree,
        routing=routing,
    )
