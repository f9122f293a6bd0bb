"""Tests for geometry, the GDSII codec, chip assembly and DRC."""

import random
import struct

import numpy as np
import pytest

from repro.hdl import ModuleBuilder, mux
from repro.layout import (
    GdsLibrary,
    GdsSRef,
    GdsStruct,
    GdsText,
    Rect,
    bounding_box,
    build_chip_gds,
    check_drc,
    flatten_rects,
    from_db,
    read_gds,
    to_db,
    wire_rect,
    write_gds,
)
from repro.layout import gds
from repro.layout.gds import _parse_real8, _real8, _record
from repro.pdk import get_pdk
from repro.pnr import implement
from repro.synth import synthesize


class TestGeometry:
    def test_basic_properties(self):
        r = Rect(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.area == 8
        assert r.min_dimension == 2
        assert r.center == (2, 1)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Rect(2, 0, 0, 2)

    def test_intersects_excludes_touching(self):
        a = Rect(0, 0, 2, 2)
        assert a.intersects(Rect(1, 1, 3, 3))
        assert not a.intersects(Rect(2, 0, 4, 2))  # shared edge
        assert not a.intersects(Rect(5, 5, 6, 6))

    def test_distance(self):
        a = Rect(0, 0, 1, 1)
        assert a.distance(Rect(4, 0, 5, 1)) == pytest.approx(3.0)
        assert a.distance(Rect(4, 5, 5, 6)) == pytest.approx(5.0)
        assert a.distance(Rect(0.5, 0.5, 2, 2)) == 0.0

    def test_grow_translate_union(self):
        a = Rect(1, 1, 2, 2)
        assert a.grown(1) == Rect(0, 0, 3, 3)
        assert a.translated(1, -1) == Rect(2, 0, 3, 1)
        assert a.union_bbox(Rect(5, 5, 6, 6)) == Rect(1, 1, 6, 6)

    def test_bounding_box(self):
        assert bounding_box([Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)]) == Rect(0, 0, 3, 3)
        with pytest.raises(ValueError):
            bounding_box([])

    def test_wire_rect(self):
        horizontal = wire_rect(0, 5, 10, 5, 1.0)
        assert horizontal == Rect(-0.5, 4.5, 10.5, 5.5)
        vertical = wire_rect(3, 0, 3, 8, 0.5)
        assert vertical == Rect(2.75, -0.25, 3.25, 8.25)
        with pytest.raises(ValueError):
            wire_rect(0, 0, 1, 1, 0.5)


class TestGdsCodec:
    def test_real8_roundtrip(self):
        for value in (0.0, 1.0, 0.001, 1e-9, 123.456, -42.5):
            encoded = _real8(value)
            assert len(encoded) == 8
            assert _parse_real8(encoded) == pytest.approx(value, rel=1e-12)

    def test_db_unit_conversion(self):
        assert to_db(1.234) == 1234
        assert from_db(1234) == pytest.approx(1.234)

    def test_library_roundtrip(self):
        library = GdsLibrary("testlib")
        cell = library.add(GdsStruct("cell"))
        cell.add_rect_um(1, 0, 0.0, 0.0, 2.5, 1.0)
        top = library.add(GdsStruct("top"))
        top.srefs.append(GdsSRef("cell", (to_db(10.0), to_db(20.0))))
        top.texts.append(GdsText(60, "pin_a", (0, 0)))
        top.add_rect_um(10, 0, 0.0, 0.0, 100.0, 100.0)

        data = write_gds(library)
        assert data[:4] == b"\x00\x06\x00\x02"  # HEADER record
        parsed = read_gds(data)
        assert parsed.name == "testlib"
        assert [s.name for s in parsed.structs] == ["cell", "top"]
        parsed_cell = parsed.struct("cell")
        assert parsed_cell.boundaries.tolist() == [[1, 0, 0, 0, 2500, 1000]]
        parsed_top = parsed.struct("top")
        assert parsed_top.srefs[0].struct_name == "cell"
        assert parsed_top.srefs[0].position == (10000, 20000)
        assert parsed_top.texts[0].text == "pin_a"

    def test_truncated_stream_rejected(self):
        library = GdsLibrary("x")
        library.add(GdsStruct("s"))
        data = write_gds(library)
        with pytest.raises(ValueError):
            read_gds(data[:7] + b"\x01")

    def test_odd_length_names_padded(self):
        library = GdsLibrary("abc")  # odd length
        library.add(GdsStruct("wxy"))
        parsed = read_gds(write_gds(library))
        assert parsed.name == "abc"
        assert parsed.structs[0].name == "wxy"

    def test_flatten_rects_translates(self):
        library = GdsLibrary("lib")
        cell = library.add(GdsStruct("cell"))
        cell.add_rect_um(5, 0, 0, 0, 1, 1)
        top = library.add(GdsStruct("top"))
        top.srefs.append(GdsSRef("cell", (to_db(10), to_db(0))))
        rects = flatten_rects(library, "top")
        assert rects[5][0] == Rect(10, 0, 11, 1)


def _element(layer, datatype, ring, heads=None):
    """One BOUNDARY element; ``heads`` overrides a record's
    ``(rtype, dtype)`` or its payload by record name."""
    heads = heads or {}
    records = {
        "boundary": (gds.BOUNDARY, gds.DT_NONE, b""),
        "layer": (gds.LAYER, gds.DT_INT16, struct.pack(">h", layer)),
        "datatype": (gds.DATATYPE, gds.DT_INT16,
                     struct.pack(">h", datatype)),
        "xy": (gds.XY, gds.DT_INT32, struct.pack(
            f">{2 * len(ring)}i", *(v for point in ring for v in point)
        )),
        "endel": (gds.ENDEL, gds.DT_NONE, b""),
    }
    records.update(heads)
    return b"".join(_record(*fields) for fields in records.values())


def _stream(*elements):
    """A one-structure library holding ``elements``."""
    return (
        _record(gds.HEADER, gds.DT_INT16, struct.pack(">h", 600))
        + _record(gds.BGNSTR, gds.DT_INT16, bytes(24))
        + _record(gds.STRNAME, gds.DT_ASCII, b"S\x00")
        + b"".join(elements)
        + _record(gds.ENDSTR, gds.DT_NONE)
        + _record(gds.ENDLIB, gds.DT_NONE)
    )


def _ring(x0, y0, x1, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]


#: Offset of the first element in a :func:`_stream`.
_FIRST = 6 + 28 + 6


def _outcome(data):
    """What parsing ``data`` gives: the structures' rows, names, srefs
    and the record count, or the ValueError message."""
    try:
        library, records = gds._parse(data)
    except ValueError as error:
        return str(error)
    return records, [
        (s.name, s.boundaries.tolist(), s.srefs) for s in library.structs
    ]


class TestRectangleCodec:
    """Boundaries are rectangles: any winding is read back in the
    canonical order, every other ring is rejected with its offset."""

    def test_clockwise_rectangle_written_canonical(self):
        ring = [(0, 0), (0, 30), (20, 30), (20, 0), (0, 0)]
        data = _stream(_element(4, 1, ring))
        parsed = read_gds(data)
        assert parsed.struct("S").boundaries.tolist() == [[4, 1, 0, 0, 20, 30]]
        written = write_gds(parsed)
        assert _element(4, 1, _ring(0, 0, 20, 30)) in written
        assert _element(4, 1, ring) not in written

    def test_every_start_corner_and_winding(self):
        corners = [(0, 0), (20, 0), (20, 30), (0, 30)]
        for start in range(4):
            for step in (1, -1):
                points = [corners[(start + step * i) % 4] for i in range(5)]
                parsed = read_gds(_stream(_element(1, 0, points)))
                assert parsed.struct("S").boundaries.tolist() == [
                    [1, 0, 0, 0, 20, 30]
                ]

    @pytest.mark.parametrize("ring, count", [
        # L-shaped met1 with 2 nm arms: its bounding box is a clean
        # 2x2 um square, which DRC used to check in its place.
        ([(0, 0), (2000, 0), (2000, 2), (2, 2), (2, 2000), (0, 2000),
          (0, 0)], 7),
        ([(0, 0), (20, 0), (20, 30), (0, 30), (0, 1)], 5),  # unclosed
        ([(0, 0), (20, 0), (20, 30), (0, 30)], 4),  # no closing point
        ([(0, 0), (20, 10), (20, 30), (0, 30), (0, 0)], 5),  # slanted
    ])
    def test_other_rings_rejected(self, ring, count):
        data = _stream(_element(1, 0, _ring(0, 0, 5, 5)),
                       _element(10, 0, ring))
        xy = _FIRST + 64 + 16
        with pytest.raises(
            ValueError, match=f"offset {xy} is not a closed axis-aligned "
            rf"rectangle \({count} points\)"
        ):
            read_gds(data)

    def test_writer_rejects_out_of_range_rows(self):
        library = GdsLibrary("lib")
        cell = library.add(GdsStruct("cell"))
        cell.boundaries = np.array([[1, 0, 0, 0, 1 << 31, 5]])
        with pytest.raises(ValueError, match="'cell'"):
            write_gds(library)
        cell.boundaries = np.array([[1 << 15, 0, 0, 0, 5, 5]])
        with pytest.raises(ValueError, match="'cell'"):
            write_gds(library)

    def test_runs_decoded_whole(self):
        rng = random.Random(3)
        rows = [
            (rng.randrange(64), rng.randrange(3), x, y,
             x + rng.randrange(50), y + rng.randrange(50))
            for x, y in ((rng.randrange(-9999, 9999),
                          rng.randrange(-9999, 9999)) for _ in range(1000))
        ]
        data = _stream(*(_element(l, d, _ring(*xy)) for l, d, *xy in rows))
        assert gds._rect_run(data, _FIRST).tolist() == [list(r) for r in rows]
        assert read_gds(data).struct("S").boundaries.tolist() == [
            list(r) for r in rows
        ]

    def test_fast_path_matches_general_loop(self, monkeypatch):
        """Seeded rectangle runs with one fault at a random position
        parse exactly as the record-by-record loop parses them."""
        faults = {
            "layer_dtype": lambda e: _element(*e, heads={
                "layer": (gds.LAYER, gds.DT_INT32,
                          struct.pack(">h", e[0]))}),
            "layer_length": lambda e: _element(*e, heads={
                "layer": (gds.LAYER, gds.DT_INT16,
                          struct.pack(">hh", e[0], 0))}),
            "boundary_dtype": lambda e: _element(*e, heads={
                "boundary": (gds.BOUNDARY, gds.DT_INT16, b"")}),
            "endel_payload": lambda e: _element(*e, heads={
                "endel": (gds.ENDEL, gds.DT_NONE, b"\x00\x00")}),
            "xy_short": lambda e: _element(e[0], e[1], e[2][:4]),
            "xy_long": lambda e: _element(e[0], e[1], e[2] + [e[2][0]]),
            "clockwise": lambda e: _element(e[0], e[1], e[2][::-1]),
            "rotated": lambda e: _element(
                e[0], e[1], e[2][1:4] + e[2][:2]),
            "unclosed": lambda e: _element(
                e[0], e[1], e[2][:4] + [(e[2][4][0], e[2][4][1] + 1)]),
            "not_rect": lambda e: _element(
                e[0], e[1], [e[2][0], (e[2][1][0] + 1, e[2][1][1])]
                + e[2][2:]),
            "sref": lambda e: (
                _record(gds.SREF, gds.DT_NONE)
                + _record(gds.SNAME, gds.DT_ASCII, b"S\x00")
                + _record(gds.XY, gds.DT_INT32, struct.pack(">ii", 1, 2))
                + _record(gds.ENDEL, gds.DT_NONE)
                + _element(*e)
            ),
        }
        streams = []
        for seed in range(40):
            rng = random.Random(seed)
            elements = []
            for _ in range(rng.randrange(1, 300)):
                x, y = rng.randrange(-5000, 5000), rng.randrange(-5000, 5000)
                elements.append((
                    rng.randrange(-3, 64), rng.randrange(3),
                    _ring(x, y, x + rng.randrange(40), y + rng.randrange(40)),
                ))
            encoded = [_element(*e) for e in elements]
            for _ in range(rng.randrange(1, 3)):
                at = rng.randrange(len(elements))
                fault = rng.choice(sorted(faults))
                encoded[at] = faults[fault](elements[at])
            streams.append(_stream(*encoded))
        fast = [_outcome(data) for data in streams]
        monkeypatch.setattr(gds, "_rect_run", lambda data, offset: (
            gds.rect_array(())
        ))
        assert [_outcome(data) for data in streams] == fast
        assert any(isinstance(o, str) for o in fast)
        assert any(not isinstance(o, str) for o in fast)


@pytest.fixture(scope="module")
def chip_design():
    pdk = get_pdk("edu130")
    b = ModuleBuilder("counter")
    en = b.input("en", 1)
    count = b.register("count", 8)
    count.next = mux(en, count + 1, count)
    b.output("q", count)
    mapped = synthesize(b.build(), pdk.library).mapped
    return implement(mapped, pdk), pdk


class TestChipAssembly:
    def test_gds_builds_and_roundtrips(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        data = write_gds(library)
        assert len(data) > 500
        parsed = read_gds(data)
        assert parsed.struct("counter").srefs  # placed cells

    def test_every_cell_placed_in_gds(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        top = library.struct("counter")
        assert len(top.srefs) == len(design.mapped.cells)

    def test_pin_labels_present(self, chip_design):
        design, pdk = chip_design
        top = build_chip_gds(design).struct("counter")
        texts = {t.text for t in top.texts}
        assert "en[0]" in texts
        assert "q[7]" in texts

    def test_die_outline_present(self, chip_design):
        design, pdk = chip_design
        top = build_chip_gds(design).struct("counter")
        outline_layer = pdk.layers.outline.gds_layer
        outlines = top.boundaries[top.boundaries[:, 0] == outline_layer]
        assert outlines.tolist() == [[
            outline_layer, pdk.layers.outline.gds_datatype, 0, 0,
            to_db(design.floorplan.die_width),
            to_db(design.floorplan.die_height),
        ]]


class TestDrc:
    def test_generated_chip_is_clean(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        report = check_drc(library, pdk.layers, "counter")
        assert report.clean, report.violations[:5]
        assert "CLEAN" in report.summary()

    def test_width_violation_detected(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        met1 = pdk.layers.by_name("met1")
        sliver = met1.min_width_um / 3.0
        library.struct("counter").add_rect_um(
            met1.gds_layer, met1.gds_datatype, 0.0, 0.0, 10.0, sliver
        )
        report = check_drc(library, pdk.layers, "counter")
        assert any(v.rule == "min_width" for v in report.violations)

    def test_spacing_violation_detected(self, chip_design):
        design, pdk = chip_design
        library = build_chip_gds(design)
        met1 = pdk.layers.by_name("met1")
        w = met1.min_width_um
        gap = met1.min_spacing_um / 2.0
        top = library.struct("counter")
        # Two parallel wires far outside the real layout, too close together.
        top.add_rect_um(met1.gds_layer, 0, 1000.0, 1000.0, 1010.0, 1000.0 + w)
        top.add_rect_um(met1.gds_layer, 0, 1000.0, 1000.0 + w + gap,
                        1010.0, 1000.0 + 2 * w + gap)
        report = check_drc(library, pdk.layers, "counter")
        assert any(v.rule == "min_spacing" for v in report.violations)

    def test_overlapping_rects_are_not_spacing_violations(self, chip_design):
        design, pdk = chip_design
        library = GdsLibrary("t")
        top = library.add(GdsStruct("top"))
        met1 = pdk.layers.by_name("met1")
        w = met1.min_width_um * 4
        top.add_rect_um(met1.gds_layer, 0, 0, 0, 10, w)
        top.add_rect_um(met1.gds_layer, 0, 5, 0, 15, w)
        report = check_drc(library, pdk.layers, "top")
        assert report.clean
