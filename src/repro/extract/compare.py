"""Connectivity LVS v2: extracted netlist vs mapped netlist.

The census check (:mod:`repro.layout.lvs`) counts cells; this module
compares *wiring*.  Both netlists are reduced to anonymous views — cells
as ``(variant, {pin: net})``, nets as the multiset of ``(port label)``
and ``(cell signature, pin)`` attachments — and refined with a
Weisfeiler–Lehman-style iteration: each round colours every cell from
its pins' net colours and every net from its previous colour and its
attached cell colours.  A colour is a dense int from one palette shared
by both views, a dict from each ``(previous colour, sorted
attachments)`` payload to its colour, so equal colours mean equal
payloads on either side and no hash (whose value could vary between
interpreter runs) is involved.  Each view stops on its own once its
number of classes stops growing.  Equal signature multisets mean
the two netlists are attachment-by-attachment indistinguishable;
signature groups then pair extracted instances with mapped instances,
which carries the mapped side's register tags and reset values onto the
extracted netlist so the formal LEC miter (:mod:`repro.formal.lec`) can
prove full GDS-vs-RTL equivalence.  Pairing inside a group is arbitrary
— members of one signature class are interchangeable by construction,
and the LEC proof is over the *extracted* connectivity either way.
"""

from __future__ import annotations

from collections import Counter

from ..layout.gds import GdsLibrary, read_gds
from ..layout.lvs import LvsReport, census_check
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..pdk.pdks import Pdk
from ..synth.mapped import CellInst, MappedNetlist
from .identify import infer_top
from .netlist import ExtractedInstance, ExtractionResult, extract_netlist

#: Refinement stops when signature classes stabilize, or here at latest.
MAX_ROUNDS = 64


def _port_map(mapped: MappedNetlist) -> dict[str, int]:
    """Flat ``port[bit] -> net`` map over both port directions."""
    flat: dict[str, int] = {}
    for direction, ports in (("in", mapped.inputs), ("out", mapped.outputs)):
        for port, nets in ports.items():
            for bit, net in enumerate(nets):
                flat[f"{port}[{bit}]"] = net
    return flat


def _extracted_port_map(extraction: ExtractionResult) -> dict[str, int]:
    return {
        f"{base}[{bit}]": net
        for base, nets in extraction.ports.items()
        for bit, net in enumerate(nets)
    }


class _View:
    """One side of the comparison in anonymous, refinable form.

    Colours are dense ints from ``palette``, a dict shared by both
    views that maps each colouring payload to its colour, so an equal
    colour means an equal payload on either side.
    """

    def __init__(self, cells: list[tuple[str, dict[str, int]]],
                 ports: dict[str, int], palette: dict[tuple, int]):
        self.palette = palette
        self.nets: set[int] = set(ports.values())
        # Each cell as (variant, pin names in order, their nets).
        self.shapes: list[tuple[str, tuple[str, ...], tuple[int, ...]]] = []
        for kind, pins in cells:
            names = tuple(sorted(pins))
            self.shapes.append(
                (kind, names, tuple(pins[pin] for pin in names))
            )
            self.nets.update(pins.values())
        # Each net's (cell index, pin) attachments.
        self.incidence: dict[int, list[tuple[int, str]]] = {
            net: [] for net in self.nets
        }
        for index, (_, names, nets) in enumerate(self.shapes):
            for pin, net in zip(names, nets):
                self.incidence[net].append((index, pin))
        port_refs: dict[int, list[str]] = {}
        for label, net in ports.items():
            port_refs.setdefault(net, []).append(label)
        self.port_refs = {
            net: tuple(sorted(labels)) for net, labels in port_refs.items()
        }
        self.net_sig: dict[int, int] = {}
        self.cell_sig: list[int] = []

    def refine_round(self) -> None:
        palette = self.palette
        colour = palette.setdefault
        net_sig = self.net_sig
        self.cell_sig = cell_sig = [
            colour((kind, names, tuple([net_sig[net] for net in nets])),
                   len(palette))
            for kind, names, nets in self.shapes
        ]
        self.net_sig = {
            net: colour((net_sig[net], tuple(sorted(
                [(cell_sig[index], pin) for index, pin in attached]
            ))), len(palette))
            for net, attached in self.incidence.items()
        }

    def refine(self) -> None:
        palette = self.palette
        self.net_sig = {
            net: palette.setdefault(
                ("net", self.port_refs.get(net, ())), len(palette)
            )
            for net in self.nets
        }
        classes = 0
        for _ in range(MAX_ROUNDS):
            self.refine_round()
            now = len(set(self.net_sig.values())) + len(set(self.cell_sig))
            if now == classes:
                break
            classes = now

    def describe_net(self, net: int) -> str:
        """Human-readable attachment list for mismatch messages."""
        refs = list(self.port_refs.get(net, ()))
        for index, pin in self.incidence.get(net, ()):
            refs.append(f"{self.shapes[index][0]}#{index}.{pin}")
        return "{" + ", ".join(sorted(refs)) + "}"


def _lowest_members(classes: dict[int, object]) -> dict[object, int]:
    """Signature -> its lowest member id, ordered by that id: the order
    in which mismatch messages name classes (independent of how the
    signatures are computed)."""
    lowest: dict[object, int] = {}
    for member in sorted(classes):
        lowest.setdefault(classes[member], member)
    return lowest


def compare_netlists(
    extraction: ExtractionResult, mapped: MappedNetlist,
    max_messages: int = 20,
) -> tuple[list[str], list[tuple[ExtractedInstance, CellInst]]]:
    """Net-by-net comparison of extracted vs mapped connectivity.

    Returns ``(mismatches, pairing)``; the pairing (one mapped instance
    per extracted instance, matched by signature class) is complete only
    when there are no mismatches.
    """
    mismatches: list[str] = []

    ref_ports = _port_map(mapped)
    ext_ports = _extracted_port_map(extraction)
    for name in sorted(set(ref_ports) - set(ext_ports)):
        mismatches.append(f"port {name} missing from the layout")
    for name in sorted(set(ext_ports) - set(ref_ports)):
        mismatches.append(f"layout has unexpected port {name}")

    palette: dict[tuple, int] = {}
    ext_view = _View(
        [(inst.cell.name, inst.pins) for inst in extraction.instances],
        ext_ports, palette,
    )
    ref_view = _View(
        [(inst.cell.name, dict(inst.pins)) for inst in mapped.cells],
        ref_ports, palette,
    )
    ext_view.refine()
    ref_view.refine()

    ext_net_counts = Counter(ext_view.net_sig.values())
    ref_net_counts = Counter(ref_view.net_sig.values())
    if ext_net_counts != ref_net_counts:
        # Describe nets whose signature class sizes differ, each side,
        # in the order of each class's lowest net id.
        shown = 0
        for sig, example in _lowest_members(ref_view.net_sig).items():
            deficit = ref_net_counts[sig] - ext_net_counts.get(sig, 0)
            if deficit <= 0:
                continue
            mismatches.append(
                f"netlist net {example} {ref_view.describe_net(example)} "
                f"has no matching layout net ({deficit}x)"
            )
            shown += 1
            if shown >= max_messages:
                break
        for sig, example in _lowest_members(ext_view.net_sig).items():
            surplus = ext_net_counts[sig] - ref_net_counts.get(sig, 0)
            if surplus <= 0:
                continue
            mismatches.append(
                f"layout net {example} {ext_view.describe_net(example)} "
                f"matches no netlist net ({surplus}x)"
            )
            shown += 1
            if shown >= max_messages:
                break

    ext_cell_counts = Counter(ext_view.cell_sig)
    ref_cell_counts = Counter(ref_view.cell_sig)
    if ext_cell_counts != ref_cell_counts:
        ext_kinds = Counter(
            inst.cell.name for inst in extraction.instances
        )
        ref_kinds = Counter(inst.cell.name for inst in mapped.cells)
        if ext_kinds == ref_kinds:
            mismatches.append(
                "cell census matches but cell connectivity does not "
                "(same cells, different wiring)"
            )
        shown = 0
        lowest = _lowest_members(dict(enumerate(ref_view.cell_sig)))
        for sig, index in lowest.items():
            deficit = ref_cell_counts[sig] - ext_cell_counts.get(sig, 0)
            if deficit <= 0:
                continue
            inst = mapped.cells[index]
            mismatches.append(
                f"netlist cell {inst.name} ({inst.cell.name}) has no "
                f"connectivity-equivalent layout cell ({deficit}x)"
            )
            shown += 1
            if shown >= max_messages:
                break

    pairing: list[tuple[ExtractedInstance, CellInst]] = []
    if not mismatches:
        ext_groups: dict[int, list[int]] = {}
        for index, sig in enumerate(ext_view.cell_sig):
            ext_groups.setdefault(sig, []).append(index)
        ref_groups: dict[int, list[int]] = {}
        for index, sig in enumerate(ref_view.cell_sig):
            ref_groups.setdefault(sig, []).append(index)
        for sig in ext_groups:
            for ext_index, ref_index in zip(
                ext_groups[sig], ref_groups[sig]
            ):
                pairing.append((
                    extraction.instances[ext_index],
                    mapped.cells[ref_index],
                ))
    return mismatches, pairing


def to_mapped(
    extraction: ExtractionResult,
    mapped: MappedNetlist,
    pairing: list[tuple[ExtractedInstance, CellInst]],
) -> MappedNetlist:
    """The extracted netlist as a :class:`MappedNetlist` ready for LEC.

    Connectivity (pins, nets, port bindings) is purely extracted;
    register tags and reset values — names, not wiring — transfer from
    the paired mapped instances so the LEC register correspondence
    lines up.
    """
    partner = {id(ext): ref for ext, ref in pairing}
    result = MappedNetlist(mapped.name, mapped.library)
    for inst in extraction.instances:
        ref = partner[id(inst)]
        result.add_cell(
            inst.cell, inst.pins,
            reset_value=ref.reset_value, tag=ref.tag, name=inst.name,
        )
    result.n_nets = extraction.n_nets
    result.inputs = {
        port: list(extraction.ports[port]) for port in mapped.inputs
    }
    result.outputs = {
        port: list(extraction.ports[port]) for port in mapped.outputs
    }
    result.invalidate()
    return result


def run_lvs(
    source: bytes | GdsLibrary,
    mapped: MappedNetlist,
    pdk: Pdk,
    *,
    top_name: str | None = None,
    expected_pins: set[str] | None = None,
    lec: bool = True,
    max_conflicts: int = 100_000,
    tracer=None,
    metrics=None,
) -> LvsReport:
    """Connectivity LVS v2: GDSII bytes in, unified report out.

    Parses the stream, extracts the netlist from geometry alone, runs
    the census pre-check (with struct names routed through geometric
    identification), compares connectivity, and — when everything else
    is clean and ``lec`` is set — proves the extracted netlist
    equivalent to the mapped reference with the formal LEC miter.
    """
    from ..formal.lec import LecError, check_lec

    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()
    report = LvsReport(mode="connectivity", source=mapped.name)
    with tracer.span("extract.lvs", design=mapped.name) as sp:
        try:
            library = (
                read_gds(bytes(source), tracer)
                if isinstance(source, (bytes, bytearray))
                else source
            )
            if top_name is not None:
                top = library.struct(top_name)
            else:
                top = infer_top(library)
        except (ValueError, KeyError) as error:
            report.mismatches.append(f"unreadable GDSII stream: {error}")
            return report

        extraction = extract_netlist(library, pdk, top.name, tracer)
        metrics.counter("extract.instances").inc(len(extraction.instances))
        metrics.counter("extract.nets").inc(extraction.n_nets)
        metrics.counter("extract.shapes").inc(extraction.shapes)

        if expected_pins is None:
            expected_pins = set(_port_map(mapped))
        rename = {
            name: cell.name for name, cell in extraction.master_map.items()
        }
        census = census_check(
            library, mapped, top.name, expected_pins,
            pdk.layers.outline.gds_layer, rename=rename,
        )
        report.cells_checked = census.cells_checked
        report.pins_checked = census.pins_checked
        report.mismatches.extend(census.mismatches)
        report.mismatches.extend(extraction.mismatches)
        report.nets_checked = extraction.n_nets

        with tracer.span("extract.compare"):
            compare_mismatches, pairing = compare_netlists(extraction, mapped)
        report.mismatches.extend(compare_mismatches)
        report.cells_matched = len(pairing)

        if lec and not report.mismatches:
            with tracer.span("extract.lec"):
                extracted = to_mapped(extraction, mapped, pairing)
                try:
                    lec_result = check_lec(
                        mapped, extracted,
                        max_conflicts=max_conflicts,
                        tracer=tracer, metrics=metrics,
                    )
                except LecError as error:
                    report.mismatches.append(f"LEC refused the miter: {error}")
                else:
                    if lec_result.inconclusive:
                        report.mismatches.append(
                            "LEC inconclusive on the extracted netlist"
                        )
                    else:
                        report.lec_equivalent = lec_result.equivalent
                    if not lec_result.equivalent:
                        report.mismatches.append(
                            "extracted netlist is NOT logically equivalent "
                            "to the mapped netlist"
                        )
        metrics.counter("extract.lvs.runs").inc()
        if not report.clean:
            metrics.counter("extract.lvs.failures").inc()
        if tracer.enabled:
            sp.set(
                clean=report.clean,
                mismatches=len(report.mismatches),
                nets=report.nets_checked,
            )
    return report
