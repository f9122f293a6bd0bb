"""Engine performance benchmarks: how fast the flow itself runs.

Not a paper experiment — these time the toolkit's own hot paths (RTL
simulation, synthesis, placement, routing, GDS export) so regressions in
the engines are visible.  Unlike the experiment benches these use real
repeated measurement rounds.
"""

import numpy as np
from conftest import build_alu_design, build_counter, build_mac_pipe

from repro.core import OPEN, FlowOptions, run_flow
from repro.extract import extract_netlist, run_lvs
from repro.ip import make_soc
from repro.layout import build_chip_gds, read_gds, write_gds
from repro.pdk import get_pdk
from repro.pnr import implement, make_floorplan, place
from repro.sim import Simulator
from repro.synth import lower, optimize, synthesize


def test_perf_rtl_simulation(benchmark):
    sim = Simulator(build_counter(16))
    sim.set("en", 1)
    benchmark(sim.step, 100)


def test_perf_lower_and_optimize(benchmark):
    module = build_alu_design()

    def run():
        return optimize(lower(module))

    netlist, _ = benchmark(run)
    assert netlist.gates


def test_perf_synthesis(benchmark):
    library = get_pdk("edu130").library
    module = build_mac_pipe()
    result = benchmark(synthesize, module, library)
    assert result.mapped.cells


def test_perf_detailed_place(benchmark):
    """Detailed placement with the incremental-HPWL swap kernel."""
    pdk = get_pdk("edu130")
    mapped = synthesize(build_alu_design(), pdk.library).mapped
    floorplan = make_floorplan(mapped, pdk.node)

    def run():
        return place(mapped, floorplan, detailed_passes=2, seed=1)

    placement = benchmark(run)
    assert placement.hpwl_um > 0


def test_perf_place_soc(benchmark):
    """Global placement plus spread/Abacus legalization of the soc."""
    pdk = get_pdk("edu130")
    mapped = synthesize(make_soc().module, pdk.library).mapped
    floorplan = make_floorplan(mapped, pdk.node)
    placement = benchmark(place, mapped, floorplan)
    rows = {row.y: row for row in floorplan.rows}
    outside = [
        cell.name for cell in placement.cells.values()
        if cell.y not in rows
        or cell.x < rows[cell.y].x0 - 1e-6
        or cell.x + cell.width > rows[cell.y].x1 + 1e-6
    ]
    assert len(placement.cells) == len(mapped.cells)
    assert outside == []


def test_perf_backend(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_alu_design(), pdk.library).mapped
    design = benchmark.pedantic(
        implement, args=(mapped, pdk), rounds=3, iterations=1
    )
    assert design.routing.nets


def test_perf_gds_export(benchmark):
    pdk = get_pdk("edu130")
    mapped = synthesize(build_counter(), pdk.library).mapped
    design = implement(mapped, pdk)

    def export():
        return write_gds(build_chip_gds(design))

    data = benchmark(export)
    assert len(data) > 100


def test_perf_extract_soc(benchmark):
    """GDS-in extraction of the soc: parse, identify, flatten, touch
    graph; the recovered netlist must pass LVS and LEC, and the boundary
    arrays must round-trip through the stream unchanged."""
    pdk = get_pdk("edu130")
    mapped = synthesize(make_soc().module, pdk.library).mapped
    design = implement(mapped, pdk)
    library = build_chip_gds(design)
    data = write_gds(library)
    parsed = read_gds(data)
    assert [s.name for s in parsed.structs] == [
        s.name for s in library.structs
    ]
    for original, copy in zip(library.structs, parsed.structs):
        assert copy.boundaries.dtype == np.int64
        assert np.array_equal(copy.boundaries, original.boundaries)
    extraction = benchmark(extract_netlist, data, pdk)
    assert extraction.clean, extraction.mismatches[:5]
    assert len(extraction.instances) == len(mapped.cells)
    report = run_lvs(
        data, mapped, pdk,
        expected_pins={pin.name for pin in design.floorplan.io_pins},
    )
    assert report.clean, report.mismatches[:5]
    assert report.lec_equivalent is True


def test_perf_full_flow(benchmark):
    module = build_counter()
    pdk = get_pdk("edu130")
    result = benchmark.pedantic(
        lambda: run_flow(module, pdk, FlowOptions(preset=OPEN)),
        rounds=3, iterations=1,
    )
    assert result.ok
