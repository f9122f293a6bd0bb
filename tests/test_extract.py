"""Tests for GDS-in signoff: extraction, connectivity LVS, trojans.

The principle under test: the exported GDSII *bytes* are the only
source of truth.  Everything here parses those bytes back, re-derives
the netlist from geometry alone and checks it against the mapped
netlist — and the must-fail half plants seeded trojans that the check
has to catch.
"""

import hashlib
import json
import random
import struct as struct_mod
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core.flow import FlowResult, run_flow
from repro.core.options import FlowOptions
from repro.core.presets import COMMERCIAL, OPEN
from repro.core.signoff import run_signoff
from repro.extract import (
    TROJAN_KINDS,
    compare_netlists,
    extract_netlist,
    identify_masters,
    infer_top,
    master_fingerprint,
    mutate_gds,
    plant_polygon,
    reference_fingerprints,
    run_lvs,
)
from repro.ip.catalog import catalogue, generate
from repro.layout import build_chip_gds, check_drc, read_gds, write_gds
from repro.layout.chip import cell_master_struct
from repro.layout.drc import _flatten_coords
from repro.layout.lvs import LvsReport, check_lvs
from repro.pdk import get_pdk
from repro.pdk.layers import NET_DATATYPE
from repro.pnr import implement
from repro.synth import synthesize


@pytest.fixture(scope="module")
def pdk():
    return get_pdk("edu130")


@pytest.fixture(scope="module")
def counter_stack(pdk):
    """(mapped, design, gds bytes) for the catalogue counter."""
    mapped = synthesize(generate("counter").module, pdk.library).mapped
    design = implement(mapped, pdk)
    data = write_gds(build_chip_gds(design))
    return mapped, design, data


PRESETS = {"OPEN": OPEN, "COMMERCIAL": COMMERCIAL}


@pytest.fixture(scope="module")
def catalogue_builds(pdk):
    """``(preset, design) -> (library, gds bytes)`` for every catalogue
    design under both presets, built with the preset's knobs exactly as
    ``run_flow`` passes them."""
    builds = {}
    for preset_name, preset in PRESETS.items():
        for name in catalogue():
            mapped = synthesize(
                generate(name).module, pdk.library,
                objective=preset.mapping_objective,
                opt_passes=preset.opt_passes,
                sizing=preset.gate_sizing,
                max_load_per_drive_ff=preset.max_load_per_drive_ff,
            ).mapped
            library = build_chip_gds(implement(
                mapped, pdk,
                utilization=preset.utilization,
                detailed_placement_passes=preset.detailed_placement_passes,
                cts_buffering=preset.cts_buffering,
                router_rip_up=preset.router_rip_up,
                placer=preset.placer,
            ))
            builds[preset_name, name] = library, write_gds(library)
    return builds


def sha256(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()


def extraction_signature(result) -> str:
    """Everything an :class:`ExtractionResult` says, in a stable text."""
    return json.dumps({
        "top": result.top,
        "n_nets": result.n_nets,
        "shapes": result.shapes,
        "ports": result.ports,
        "mismatches": result.mismatches,
        "instances": [
            [inst.name, inst.cell.name, list(inst.position),
             list(inst.pins.items())]
            for inst in result.instances
        ],
        "masters": [[k, v.name] for k, v in result.master_map.items()],
    })


def drc_signature(report) -> str:
    return json.dumps({
        "checked_rects": report.checked_rects,
        "violations": [
            [v.rule, v.layer, v.detail, [v.rect.x0, v.rect.y0,
                                         v.rect.x1, v.rect.y1]]
            for v in report.violations
        ],
    })


def flat_signature(library, top: str) -> str:
    """Digest of DRC's flattened per-(layer, datatype) arrays."""
    digest = hashlib.sha256()
    for key, coords in sorted(_flatten_coords(library, top).items()):
        digest.update(repr(key).encode())
        digest.update(np.ascontiguousarray(coords).tobytes())
    return digest.hexdigest()


def golden_record(data: bytes, pdk) -> dict:
    """The golden hashes of one GDS stream."""
    library = read_gds(data)
    top = infer_top(library).name
    return {
        "gds": sha256(data),
        "extraction": sha256(
            extraction_signature(extract_netlist(library, pdk))
        ),
        "drc": sha256(drc_signature(check_drc(library, pdk.layers, top))),
        "drc_flat": flat_signature(library, top),
    }


def tampered(data: bytes, pdk) -> bytes:
    """The stream with foreign geometry and broken port labels: floating
    net shapes on li and met1, drawing met1 too thin and too close, one
    port label moved off the layout and one label duplicated."""
    library = read_gds(data)
    top = infer_top(library)
    li = pdk.layers.by_name("li").gds_layer
    met1 = pdk.layers.by_name("met1").gds_layer
    label = pdk.layers.by_name("label").gds_layer
    top.add_rect_um(met1, 1, 1.0, 1.0, 3.0, 1.002)
    top.add_rect_um(li, 1, 0.5, 0.5, 0.6, 0.6)
    top.add_rect_um(met1, 0, 1.0, 1.0, 1.01, 1.5)
    top.add_rect_um(met1, 0, 1.05, 1.0, 1.3, 1.5)
    labels = [t for t in top.texts if t.layer == label]
    labels[0].position = (-5000, -5000)
    top.texts.append(labels[1])
    return write_gds(library)


#: Hashes captured from the union-find extractor and the per-point DRC
#: flatten before they moved onto arrays: every catalogue design under
#: OPEN and COMMERCIAL on edu130, every trojan class planted in the OPEN
#: counter, and the tampered OPEN counter (floating islands, port label
#: mismatches, DRC violations).
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "extract_golden.json").read_text()
)


class TestGolden:
    def test_catalogue_matches_golden(self, catalogue_builds, pdk):
        for (preset_name, name), (_, data) in catalogue_builds.items():
            key = f"{preset_name}/{name}"
            assert golden_record(data, pdk) == GOLDEN[key], key

    def test_trojans_match_golden(self, catalogue_builds, pdk):
        _, data = catalogue_builds["OPEN", "counter"]
        for kind in TROJAN_KINDS:
            mutant, _ = mutate_gds(data, seed=1, kind=kind)
            key = f"trojan/{kind}"
            assert golden_record(mutant, pdk) == GOLDEN[key], key

    def test_tampered_matches_golden(self, catalogue_builds, pdk):
        _, data = catalogue_builds["OPEN", "counter"]
        assert golden_record(tampered(data, pdk), pdk) == GOLDEN["tampered"]


def lvs_record(report) -> dict:
    """What an :class:`LvsReport` concludes, in golden form."""
    return {
        "clean": report.clean,
        "mismatches": report.mismatches,
        "cells_matched": report.cells_matched,
        "nets_checked": report.nets_checked,
        "lec_equivalent": report.lec_equivalent,
    }


def lvs_golden_text(counter_stack, pdk) -> str:
    """LVS verdicts for every trojan class at seeds 0-2 and for the
    tampered counter, as the JSON text of ``lvs_golden.json``."""
    mapped, _, data = counter_stack
    records = {}
    for kind in TROJAN_KINDS:
        for seed in range(3):
            mutant, _ = mutate_gds(data, seed=seed, kind=kind)
            records[f"{kind}/{seed}"] = lvs_record(run_lvs(mutant, mapped, pdk))
    records["tampered"] = lvs_record(
        run_lvs(tampered(data, pdk), mapped, pdk)
    )
    return json.dumps(records, indent=1) + "\n"


class TestLvsGolden:
    """``compare_netlists`` messages, their order and caps, pinned while
    refinement still hashed signatures with md5; classes are named in
    the order of their lowest net id or cell index."""

    def test_lvs_reports_match_golden(self, counter_stack, pdk):
        golden = (Path(__file__).parent / "data" / "lvs_golden.json")
        assert lvs_golden_text(counter_stack, pdk) == golden.read_text()


class TestGdsHardening:
    """Malformed streams must raise ValueError — never IndexError or
    struct.error — with the offending record's byte offset."""

    def test_truncations_never_crash(self, counter_stack):
        _, _, data = counter_stack
        for cut in range(0, min(len(data), 4000), 7):
            try:
                read_gds(data[:cut])
            except ValueError:
                pass  # the only acceptable exception

    def test_garbage_never_crashes(self):
        rng = random.Random(7)
        for _ in range(50):
            blob = bytes(rng.randrange(256) for _ in range(200))
            try:
                read_gds(blob)
            except ValueError:
                pass

    def test_bitflips_never_crash(self, counter_stack):
        _, _, data = counter_stack
        rng = random.Random(11)
        for _ in range(50):
            blob = bytearray(data)
            pos = rng.randrange(len(blob))
            blob[pos] ^= 1 << rng.randrange(8)
            try:
                read_gds(bytes(blob))
            except ValueError:
                pass

    def test_error_carries_offset(self):
        with pytest.raises(ValueError, match="offset 0"):
            read_gds(b"\x00\x08\x04\x02")  # 8-byte record, 4-byte stream

    def test_invalid_record_length(self):
        # Record length below the 4-byte header is structurally invalid.
        with pytest.raises(ValueError, match="length"):
            read_gds(struct_mod.pack(">HBB", 2, 0x00, 0x02) + b"\x00" * 8)

    def test_sref_without_xy_rejected(self, counter_stack):
        _, _, data = counter_stack
        # Excise the first XY record that follows an SREF header.
        sref = data.find(b"\x00\x04\x0a\x00")  # 4-byte SREF record
        assert sref >= 0
        offset = sref
        while True:
            (length,) = struct_mod.unpack_from(">H", data, offset)
            rtype = data[offset + 2]
            if rtype == 0x10:  # XY
                blob = data[:offset] + data[offset + length:]
                break
            offset += length
        with pytest.raises(ValueError, match="no XY"):
            read_gds(blob)

    def test_boundary_without_xy_rejected(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        # Excise the XY record of the first net-purpose boundary.
        offset, in_net_boundary = 0, False
        while True:
            length, rtype = struct_mod.unpack_from(">HB", data, offset)
            if rtype == 0x08:  # BOUNDARY
                in_net_boundary = False
            elif rtype == 0x0E:  # DATATYPE
                (datatype,) = struct_mod.unpack_from(">h", data, offset + 4)
                in_net_boundary = datatype == NET_DATATYPE
            elif rtype == 0x10 and in_net_boundary:  # XY
                blob = data[:offset] + data[offset + length:]
                break
            offset += length
        # The ENDEL that closes the element moved up to the XY's offset.
        with pytest.raises(
            ValueError, match=f"BOUNDARY element ending at offset {offset} "
            "has no XY"
        ):
            read_gds(blob)
        report = run_lvs(blob, mapped, pdk)
        assert not report.clean
        assert any("unreadable GDSII stream" in m for m in report.mismatches)

    def test_unordered_corners_name_their_struct(self, counter_stack):
        mapped, _, data = counter_stack
        library = read_gds(data)
        top = library.struct(mapped.name)
        victim = np.flatnonzero(top.boundaries[:, 1] == NET_DATATYPE)[0]
        top.boundaries[victim, [2, 4]] = top.boundaries[victim, [4, 2]] + (
            1, 0
        )
        with pytest.raises(
            ValueError, match=f"structure '{mapped.name}'.*x0 <= x1"
        ):
            write_gds(library)

    def test_non_rectangular_boundary_rejected(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        blob = plant_polygon(data)
        xy = len(data) - 8 + 4 + 6 + 6  # BOUNDARY, LAYER, DATATYPE
        with pytest.raises(
            ValueError,
            match=f"XY record at offset {xy} is not a closed axis-aligned "
            r"rectangle \(7 points\)",
        ):
            read_gds(blob)
        report = run_lvs(blob, mapped, pdk)
        assert not report.clean
        assert any("unreadable GDSII stream" in m for m in report.mismatches)

    def test_endstr_without_struct_skipped(self):
        # ENDSTR with no open structure parses to an empty library.
        blob = (
            struct_mod.pack(">HBB", 4, 0x07, 0x00)  # ENDSTR
            + struct_mod.pack(">HBB", 4, 0x04, 0x00)  # ENDLIB
        )
        assert read_gds(blob).structs == []

    def test_units_mismatch_rejected(self, counter_stack):
        _, _, data = counter_stack
        units = data.find(b"\x00\x14\x03\x05")  # 20-byte UNITS record
        assert units >= 0
        blob = bytearray(data)
        blob[units + 4] = 0x45  # corrupt the first real8's exponent
        with pytest.raises(ValueError, match="UNITS"):
            read_gds(bytes(blob))

    def test_roundtrip_every_catalogue_design(self, catalogue_builds):
        for library, data in catalogue_builds.values():
            parsed = read_gds(data)
            assert [s.name for s in parsed.structs] == [
                s.name for s in library.structs
            ]
            for original, copy in zip(library.structs, parsed.structs):
                assert np.array_equal(copy.boundaries, original.boundaries)
                assert copy.srefs == original.srefs
                assert copy.texts == original.texts


class TestIdentify:
    def test_reference_fingerprints_distinct(self):
        for pdk_name in ("edu045", "edu130", "edu180"):
            pdk = get_pdk(pdk_name)
            table = reference_fingerprints(pdk)
            assert len(table) == len(pdk.library.cells)

    def test_fingerprint_ignores_label_texts(self, pdk):
        cell = pdk.library.cells["INV_X1"]
        label = pdk.layers.by_name("label").gds_layer
        a = cell_master_struct(cell, pdk)
        b = cell_master_struct(cell, pdk)
        for text in b.texts:
            if text.layer == label:
                text.text = "TOTALLY_DIFFERENT"
        exclude = frozenset((label,))
        assert master_fingerprint(a, exclude) == master_fingerprint(b, exclude)

    def test_renamed_masters_still_identified(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        library = read_gds(data)
        renames = {}
        for index, struct in enumerate(library.structs):
            if struct.name == mapped.name:
                continue
            renames[struct.name] = f"obf_{index}"
            struct.name = f"obf_{index}"
        for struct in library.structs:
            for sref in struct.srefs:
                sref.struct_name = renames.get(sref.struct_name,
                                               sref.struct_name)
        top = library.struct(mapped.name)
        mapping, mismatches = identify_masters(library, top, pdk)
        assert not mismatches
        assert {cell.name for cell in mapping.values()} == {
            inst.cell.name for inst in mapped.cells
        }
        # ...and the full LVS run stays clean end to end.
        report = run_lvs(write_gds(library), mapped, pdk)
        assert report.clean, report.mismatches[:5]

    def test_tampered_master_flagged(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        library = read_gds(data)
        victim = next(
            s for s in library.structs if s.name in pdk.library.cells
        )
        victim.boundaries[0, [2, 4]] += 2
        _, mismatches = identify_masters(
            library, library.struct(mapped.name), pdk
        )
        assert any("tampered" in m for m in mismatches)

    def test_infer_top(self, counter_stack):
        mapped, _, data = counter_stack
        assert infer_top(read_gds(data)).name == mapped.name


class TestExtraction:
    def test_counter_extracts_clean(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        extraction = extract_netlist(data, pdk)
        assert extraction.clean, extraction.mismatches[:5]
        assert len(extraction.instances) == len(mapped.cells)
        used_nets = {
            net for inst in mapped.cells for net in inst.pins.values()
        } | {
            net for ports in (mapped.inputs, mapped.outputs)
            for nets in ports.values() for net in nets
        }
        assert extraction.n_nets == len(used_nets)
        assert set(extraction.ports) == (
            set(mapped.inputs) | set(mapped.outputs)
        )
        assert "cells" in extraction.summary()

    def test_every_pin_has_a_net(self, counter_stack, pdk):
        _, _, data = counter_stack
        for inst in extract_netlist(data, pdk).instances:
            expected = set(inst.cell.inputs)
            if inst.cell.output:
                expected.add(inst.cell.output)
            assert set(inst.pins) == expected

    def test_compare_accepts_self(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        extraction = extract_netlist(data, pdk)
        mismatches, pairing = compare_netlists(extraction, mapped)
        assert not mismatches
        assert len(pairing) == len(mapped.cells)

    def test_foreign_geometry_is_floating(self, counter_stack, pdk):
        _, _, data = counter_stack
        library = read_gds(data)
        top = infer_top(library)
        top.add_rect_um(10, 1, 1.0, 1.0, 3.0, 1.002)  # stray met1 wire
        extraction = extract_netlist(library, pdk)
        assert any("floating" in m for m in extraction.mismatches)


class TestLvsReport:
    def test_json_roundtrip(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        report = run_lvs(data, mapped, pdk)
        assert report.clean
        assert report.mode == "connectivity"
        assert report.lec_equivalent is True
        back = LvsReport.from_json(report.to_json())
        assert back.to_dict() == report.to_dict()
        assert back.clean

    def test_census_wrapper_still_works(self, counter_stack):
        _, design, data = counter_stack
        report = check_lvs(read_gds(data), design)
        assert report.clean
        assert report.mode == "census"
        assert "LVS CLEAN" in report.summary()

    def test_unreadable_stream_is_a_mismatch(self, counter_stack, pdk):
        mapped, _, _ = counter_stack
        report = run_lvs(b"\x00\x01garbage", mapped, pdk)
        assert not report.clean
        assert any("unreadable" in m for m in report.mismatches)


class TestTrojans:
    def test_every_kind_caught(self, counter_stack, pdk):
        mapped, _, data = counter_stack
        for kind in TROJAN_KINDS:
            mutant, description = mutate_gds(data, seed=0, kind=kind)
            report = run_lvs(mutant, mapped, pdk)
            assert not report.clean, f"{kind} not caught: {description}"
            assert kind in description

    def test_swap_cells_defeats_census_but_not_lvs(self, counter_stack, pdk):
        mapped, design, data = counter_stack
        mutant, _ = mutate_gds(data, seed=0, kind="swap_cells")
        census = check_lvs(read_gds(mutant), design)
        assert census.clean  # the census-invisible trojan...
        report = run_lvs(mutant, mapped, pdk)
        assert not report.clean  # ...is exactly what LVS v2 exists for

    def test_deterministic_per_seed(self, counter_stack):
        _, _, data = counter_stack
        assert mutate_gds(data, seed=3) == mutate_gds(data, seed=3)

    def test_unknown_kind_rejected(self, counter_stack):
        _, _, data = counter_stack
        with pytest.raises(ValueError):
            mutate_gds(data, kind="melt_the_chip")


class TestFlowIntegration:
    @pytest.fixture(scope="class")
    def flow_result(self, pdk):
        module = generate("gray_counter").module
        return run_flow(module, pdk, FlowOptions(extract_lvs=True))

    def test_flow_gate_populates_report(self, flow_result):
        assert flow_result.ok
        assert flow_result.lvs is not None
        assert flow_result.lvs.clean
        assert flow_result.lvs.lec_equivalent is True

    def test_result_json_fixed_point(self, flow_result):
        text = flow_result.to_json()
        assert FlowResult.from_json(text).to_json() == text

    def test_signoff_prefers_connectivity_verdict(self, flow_result):
        report = run_signoff(flow_result)
        item = next(i for i in report.items if i.name == "lvs_clean")
        assert item.passed
        assert "nets" in item.detail  # connectivity-grade summary

    def test_extract_spans_emitted(self, flow_result):
        names = {span.name for span in flow_result.trace}
        assert {"extract.lvs", "gds.read", "extract.identify",
                "extract.flatten", "extract.connect", "extract.compare",
                "extract.lec"} <= names

    def test_geometry_spans_carry_counts(self, flow_result):
        spans = {span.name: span for span in flow_result.trace}
        read = spans["gds.read"].attributes
        assert read["bytes"] == len(flow_result.gds_bytes)
        assert read["records"] > read["boundaries"] > 0
        connect = spans["extract.connect"].attributes
        assert connect["candidate_pairs"] >= connect["edges"] > 0
        assert spans["drc.flatten"].attributes["rects"] > 0


    def test_layout_spans_carry_counts(self, flow_result):
        spans = {span.name: span for span in flow_result.trace}
        build = spans["layout.build"]
        assert build.parent_id == spans["step.design_rule_check"].span_id
        library = read_gds(flow_result.gds_bytes)
        top = infer_top(library)
        net = int((top.boundaries[:, 1] == NET_DATATYPE).sum())
        assert build.attributes == {
            "drawing_rects": len(top.boundaries) - net,
            "net_rects": net,
            "srefs": len(top.srefs),
            "masters": len(library.structs) - 1,
        }
        write = spans["gds.write"]
        assert write.parent_id == spans["step.gds_export"].span_id
        assert write.attributes["bytes"] == len(flow_result.gds_bytes)


class TestCli:
    def test_clean_design_exits_zero(self, capsys):
        assert main(["lvs", "--ip", "lfsr", "--pdk", "edu130"]) == 0
        assert "LVS CLEAN" in capsys.readouterr().out

    def test_trojan_exits_one(self, capsys, tmp_path):
        path = tmp_path / "lvs.json"
        code = main([
            "lvs", "--ip", "lfsr", "--pdk", "edu130",
            "--trojan", "delete_via", "--json", str(path),
        ])
        assert code == 1
        report = LvsReport.from_json(path.read_text())
        assert not report.clean

    def test_usage_errors_exit_two(self, capsys):
        assert main(["lvs"]) == 2
        assert main(["lvs", "--ip", "no_such_ip"]) == 2
        assert main(["lvs", "--ip", "lfsr", "--trojan", "bogus"]) == 2
