"""Legality of the flat placer: every cell inside one row, no overlaps.

The legalizer spreads cells over the rows by width quantile and packs
each row with Abacus.  These tests pin its invariant on every catalogue
design under both presets and all three PDKs and on one- and two-cell
designs whose widest cell is wide next to the core, its row-assignment
and row-packing behaviour on hand-made rows, its refusal to spill past
a row, and the routing convergence the legal placement buys.
"""

import dataclasses

import pytest

import repro.pnr.physical as physical_module
import repro.pnr.placement as placement_module
from repro.core import COMMERCIAL, OPEN, FlowOptions, run_flow
from repro.core.flow import FlowError
from repro.core.steps import FlowStep
from repro.hdl import ModuleBuilder
from repro.ip import catalogue, generate
from repro.obs import Tracer
from repro.obs.trace import NULL_TRACER
from repro.pdk import get_pdk
from repro.pnr import (
    PlacementError,
    implement,
    make_floorplan,
    place,
    random_place,
)
from repro.pnr.placement import _abacus, _spread
from repro.resil.failure import FlowFailure
from repro.synth import synthesize

PDKS = ("edu045", "edu130", "edu180")
PRESETS = {"OPEN": OPEN, "COMMERCIAL": COMMERCIAL}
EPS = 1e-6

_FLOWS: dict[tuple[str, str, str], tuple] = {}


def flow(pdk_name: str, preset_name: str, design: str):
    """(mapped netlist, placement, routing overflow) of one design.

    Synthesis and the backend run with the preset's knobs exactly as
    ``run_flow`` passes them; the signoff stages after routing are
    skipped.
    """
    key = (pdk_name, preset_name, design)
    if key not in _FLOWS:
        pdk, preset = get_pdk(pdk_name), PRESETS[preset_name]
        mapped = synthesize(
            generate(design).module, pdk.library,
            objective=preset.mapping_objective,
            opt_passes=preset.opt_passes,
            sizing=preset.gate_sizing,
            max_load_per_drive_ff=preset.max_load_per_drive_ff,
            verify=False,
        ).mapped
        physical = implement(
            mapped, pdk,
            utilization=preset.utilization,
            detailed_placement_passes=preset.detailed_placement_passes,
            cts_buffering=preset.cts_buffering,
            router_rip_up=preset.router_rip_up,
            placer=preset.placer,
        )
        _FLOWS[key] = (mapped, physical.placement, physical.routing.overflow)
    return _FLOWS[key]


def assert_legal(placement) -> None:
    """Every cell lies inside exactly one row; no two cells of a row overlap."""
    by_row: dict[int, list] = {}
    for cell in placement.cells.values():
        rows = [
            row for row in placement.floorplan.rows
            if abs(cell.y - row.y) <= EPS
            and cell.x >= row.x0 - EPS
            and cell.x + cell.width <= row.x1 + EPS
        ]
        assert len(rows) == 1, f"{cell.name} is inside {len(rows)} rows"
        by_row.setdefault(rows[0].index, []).append(cell)
    for cells in by_row.values():
        cells.sort(key=lambda cell: cell.x)
        for left, right in zip(cells, cells[1:]):
            assert left.x + left.width <= right.x + EPS, (
                f"{left.name} overlaps {right.name}"
            )


@pytest.mark.parametrize("design", catalogue())
@pytest.mark.parametrize("preset_name", sorted(PRESETS))
@pytest.mark.parametrize("pdk_name", PDKS)
def test_catalogue_placement_is_legal(pdk_name, preset_name, design):
    _, placement, _ = flow(pdk_name, preset_name, design)
    assert len(placement.cells) > 0
    assert_legal(placement)


@pytest.mark.parametrize("design", catalogue())
@pytest.mark.parametrize("pdk_name", PDKS)
def test_open_catalogue_routing_converges(pdk_name, design):
    _, _, overflow = flow(pdk_name, "OPEN", design)
    assert overflow == 0


@pytest.mark.parametrize("design", catalogue())
@pytest.mark.parametrize("pdk_name", PDKS)
def test_random_place_is_legal(pdk_name, design):
    mapped, placement, _ = flow(pdk_name, "OPEN", design)
    assert_legal(random_place(mapped, placement.floorplan, seed=5))


class TestAbacus:
    def test_pile_at_row_end_is_pushed_left(self):
        starts = _abacus([2, 3, 2, 1], [20.0, 20.0, 20.0, 20.0], 20)
        assert starts == [12, 14, 17, 19]

    def test_pile_before_row_start_is_pushed_right(self):
        assert _abacus([2, 2, 2], [-5.0, -4.0, -3.0], 20) == [0, 2, 4]

    def test_order_is_kept_and_no_cell_passes_the_end(self):
        widths = [3, 1, 4, 1, 5, 2]
        targets = [18.0, 2.0, 17.5, 9.0, 16.0, 30.0]
        starts = _abacus(widths, sorted(targets), 20)
        for (x, w), x_next in zip(zip(starts, widths), starts[1:]):
            assert x + w <= x_next
        assert starts[0] >= 0
        assert starts[-1] + widths[-1] <= 20

    def test_spread_targets_stay_put(self):
        assert _abacus([2, 2, 2], [1.0, 6.0, 11.0], 20) == [1, 6, 11]

    def test_cluster_sits_at_mean_target(self):
        # Two cells both asking for site 10 share the overlap equally.
        assert _abacus([2, 2], [10.0, 10.0], 40) == [9, 11]

    def test_full_row_fits_exactly(self):
        assert _abacus([5, 5], [3.0, 3.0], 10) == [0, 5]

    def test_over_capacity_raises(self):
        with pytest.raises(PlacementError):
            _abacus([5, 6], [0.0, 0.0], 10)


def one_flop():
    builder = ModuleBuilder("one_flop")
    q = builder.register("q", 1)
    q.next = builder.input("d", 1)
    builder.output("out", q)
    return builder.build()


def toggle_flop():
    builder = ModuleBuilder("toggle_flop")
    q = builder.register("q", 1)
    q.next = ~q
    builder.output("out", q)
    return builder.build()


TINY = {"one_flop": one_flop, "toggle_flop": toggle_flop}


@pytest.mark.parametrize("design", sorted(TINY))
@pytest.mark.parametrize("preset_name", sorted(PRESETS))
@pytest.mark.parametrize("pdk_name", PDKS)
def test_tiny_design_flow_completes(pdk_name, preset_name, design):
    result = run_flow(
        TINY[design](), get_pdk(pdk_name),
        FlowOptions(preset=PRESETS[preset_name]),
    )
    assert result.failures == []
    assert_legal(result.physical.placement)


@pytest.mark.parametrize("utilization", [0.35, 0.45, 0.7, 0.9, 1.0])
@pytest.mark.parametrize("design", sorted(TINY))
@pytest.mark.parametrize("pdk_name", PDKS)
def test_tiny_design_rows_take_the_widest_cell(pdk_name, design, utilization):
    pdk = get_pdk(pdk_name)
    mapped = synthesize(TINY[design](), pdk.library).mapped
    floorplan = make_floorplan(mapped, pdk.node, utilization=utilization)
    widest = max(inst.cell.area_um2 for inst in mapped.cells)
    for row in floorplan.rows:
        assert row.width * row.height >= widest - EPS
    assert_legal(place(mapped, floorplan))
    assert_legal(random_place(mapped, floorplan))


def spread_rows(widths: list[int], capacity: list[int]) -> list[list[int]]:
    """Widths of the cells ``_spread`` puts in each row.

    Cell ``i`` wants y = ``i`` and x = 0, so the cells arrive in list
    order.
    """
    sites = {f"c{i}": width for i, width in enumerate(widths)}
    desired = {f"c{i}": (0.0, float(i)) for i in range(len(widths))}
    rows = _spread(sites, capacity, desired)
    assert sorted(name for names in rows for name in names) == sorted(sites)
    return [[sites[name] for name in names] for names in rows]


class TestSpread:
    def test_rows_share_the_width_by_quantile(self):
        assert spread_rows([2] * 6, [10, 10, 10]) == [[2, 2], [2, 2], [2, 2]]

    def test_last_row_surplus_moves_to_a_row_with_room(self):
        # Forward filling leaves 6+4+6 in the last row; the first row
        # still has room for a 4.
        rows = spread_rows([6, 6, 4, 4, 4, 6], [10, 10, 10])
        assert rows == [[6, 4], [6, 4], [4, 6]]

    def test_last_row_surplus_swaps_for_a_narrower_cell(self):
        # The first row has 2 sites free, too few for a 6; swapping one
        # of its 4s for the 6 frees 2 sites in the last row.
        rows = spread_rows([4, 4, 6, 6], [10, 10])
        assert sorted(map(sum, rows)) == [10, 10]

    def test_over_capacity_raises(self):
        with pytest.raises(PlacementError, match="cannot hold"):
            spread_rows([6, 6], [5, 5])

    def test_cell_wider_than_every_row_raises(self):
        with pytest.raises(PlacementError, match="wider than every row"):
            spread_rows([11], [10, 10])

    def test_fragmented_free_space_raises(self):
        # 24 sites in 30, but no row takes two 6-site cells.
        with pytest.raises(PlacementError, match="fragmented"):
            spread_rows([6, 6, 6, 6], [10, 10, 10])


@pytest.fixture(scope="module")
def counter():
    return generate("counter").module


def shrink_rows(floorplan, share: float):
    """The floorplan with every row cut to ``share`` of its width."""
    rows = [
        dataclasses.replace(row, x1=row.x0 + share * row.width)
        for row in floorplan.rows
    ]
    return dataclasses.replace(floorplan, rows=rows)


class TestOverCapacity:
    def test_place_raises_instead_of_spilling(self, counter):
        pdk = get_pdk("edu130")
        mapped = synthesize(counter, pdk.library).mapped
        floorplan = shrink_rows(make_floorplan(mapped, pdk.node), 0.2)
        with pytest.raises(PlacementError):
            place(mapped, floorplan)

    def test_random_place_raises_instead_of_spilling(self, counter):
        pdk = get_pdk("edu130")
        mapped = synthesize(counter, pdk.library).mapped
        floorplan = shrink_rows(make_floorplan(mapped, pdk.node), 0.2)
        with pytest.raises(PlacementError):
            random_place(mapped, floorplan)

    def test_run_flow_reports_a_placement_failure(self, counter, monkeypatch):
        real = physical_module.make_floorplan
        monkeypatch.setattr(
            physical_module, "make_floorplan",
            lambda *args, **kwargs: shrink_rows(real(*args, **kwargs), 0.2),
        )
        pdk = get_pdk("edu130")
        result = run_flow(counter, pdk, FlowOptions(continue_on_error=True))
        assert result.physical is None
        assert [(f.stage, f.kind) for f in result.failures] == [
            ("placement", "gate")
        ]
        assert isinstance(result.failures[0], FlowFailure)
        assert [s.ok for s in result.steps if s.step is FlowStep.PLACEMENT] \
            == [False]
        with pytest.raises(FlowError):
            run_flow(counter, pdk, FlowOptions())


class TestLegalizeSpan:
    def test_span_reports_displacement_fill_and_containment(self, counter):
        pdk = get_pdk("edu130")
        mapped = synthesize(counter, pdk.library).mapped
        tracer = Tracer()
        place(mapped, make_floorplan(mapped, pdk.node), tracer=tracer)
        attrs = tracer.find("place.legalize").attributes
        assert attrs["cells_outside_rows"] == 0
        assert 0 < attrs["peak_row_fill"] <= 1.0
        assert 0 < attrs["mean_displacement_um"] <= attrs["max_displacement_um"]

    def test_random_placer_reports_on_the_given_tracer(self, counter):
        pdk = get_pdk("edu130")
        mapped = synthesize(counter, pdk.library).mapped
        tracer = Tracer()
        implement(mapped, pdk, placer="random", tracer=tracer)
        attrs = tracer.find("place.legalize").attributes
        assert attrs["cells_outside_rows"] == 0

    def test_null_tracer_skips_the_statistics(self, counter, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("statistics computed without a tracer")

        monkeypatch.setattr(placement_module, "_legalize_stats", boom)
        pdk = get_pdk("edu130")
        mapped = synthesize(counter, pdk.library).mapped
        placement = place(
            mapped, make_floorplan(mapped, pdk.node), tracer=NULL_TRACER
        )
        assert_legal(placement)
