"""Netlist extraction from GDSII bytes.

The pipeline, given nothing but a stream and a PDK:

1. parse the stream and infer the chip-top structure;
2. identify every master structure against the PDK cell library
   (:mod:`repro.extract.identify` — name match validated by geometry,
   fingerprint fallback for renamed structs);
3. flatten all net-purpose shapes
   (:data:`repro.pdk.layers.NET_DATATYPE`) — instance pin pads carry
   their ``(instance, pin)`` owner, resolved through the master's
   ``met1``-layer pin labels;
4. connected components of the touch graph, built on ``(n, 4)`` int64
   arrays (:func:`repro.extract.geom.touch_graph`): same-layer contact
   merges, ``lic`` joins ``li``/``met1``, ``via1`` joins
   ``met1``/``met2``; crossings without a cut stay separate, and so do
   cuts that touch only each other;
5. connected components become nets; top-level port labels bind to the
   li pad under them; geometry attached to no pin or port is flagged as
   floating (legitimate fabric is always attached by construction).

The output is a gate-level view — instances with per-pin net ids plus
port bit vectors — that :mod:`repro.extract.compare` checks against the
mapped netlist and hands to the formal LEC miter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..layout.gds import GdsLibrary, read_gds
from ..obs.trace import get_tracer
from ..pdk.cells import StandardCell
from ..pdk.layers import NET_DATATYPE
from ..pdk.pdks import Pdk
from .geom import components, touch_graph
from .identify import identify_masters, infer_top

_PORT_RE = re.compile(r"^(.+)\[(\d+)\]$")

#: The layers that carry net-purpose geometry.
NET_LAYERS = ("li", "lic", "met1", "via1", "met2")
#: Which layers' shapes connect where they touch: every metal within
#: itself, and each cut layer with its two neighbours.  Cut shapes that
#: touch only each other stay apart.
RELATIONS = (
    ("li", "li"), ("met1", "met1"), ("met2", "met2"),
    ("lic", "li"), ("lic", "met1"), ("via1", "met1"), ("via1", "met2"),
)


@dataclass
class ExtractedInstance:
    """One recognized cell placement with extracted pin connectivity."""

    name: str
    cell: StandardCell
    pins: dict[str, int] = field(default_factory=dict)
    position: tuple[int, int] = (0, 0)

    def __repr__(self) -> str:
        return f"ExtractedInstance({self.name}:{self.cell.name})"


@dataclass
class ExtractionResult:
    """A netlist recovered from mask geometry alone."""

    top: str
    instances: list[ExtractedInstance] = field(default_factory=list)
    n_nets: int = 0
    #: Port base name -> net ids in bit order.
    ports: dict[str, list[int]] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)
    shapes: int = 0
    #: Struct name -> identified library cell (for census re-checks).
    master_map: dict[str, StandardCell] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = ("ok" if self.clean
                  else f"{len(self.mismatches)} anomalies")
        return (
            f"extracted {len(self.instances)} cells / {self.n_nets} nets "
            f"from {self.shapes} shapes ({status})"
        )


def _master_pads(
    struct, cell: StandardCell, li_layer: int, met1_layer: int,
    mismatches: list[str],
) -> tuple[np.ndarray, list[str]]:
    """``(pad rects, pin names)`` within one master, via its met1 pin
    labels: one ``(n, 4)`` array and the pin of each row."""
    rows = struct.boundaries
    pads = rows[
        (rows[:, 0] == li_layer) & (rows[:, 1] == NET_DATATYPE), 2:
    ].tolist()
    labels = [
        (t.text, t.position) for t in struct.texts if t.layer == met1_layer
    ]
    resolved: list[tuple[list[int], str]] = []
    claimed: set[int] = set()
    for pin, (x, y) in labels:
        hit = None
        for index, rect in enumerate(pads):
            if rect[0] <= x <= rect[2] and rect[1] <= y <= rect[3]:
                hit = index
                break
        if hit is None:
            mismatches.append(
                f"master {struct.name!r}: pin label {pin!r} sits on no pad"
            )
            continue
        claimed.add(hit)
        resolved.append((pads[hit], pin))
    if len(claimed) != len(pads):
        mismatches.append(
            f"master {struct.name!r}: {len(pads) - len(claimed)} "
            f"unlabeled pin pads"
        )
    expected = set(cell.inputs) | ({cell.output} if cell.output else set())
    found = {pin for _, pin in resolved}
    if found != expected:
        mismatches.append(
            f"master {struct.name!r}: pins {sorted(found)} do not match "
            f"cell {cell.name} pins {sorted(expected)}"
        )
    return (
        np.array([rect for rect, _ in resolved], dtype=np.int64)
        .reshape(-1, 4),
        [pin for _, pin in resolved],
    )


def extract_netlist(
    source: bytes | GdsLibrary,
    pdk: Pdk,
    top_name: str | None = None,
    tracer=None,
) -> ExtractionResult:
    """Recover a gate-level netlist from GDSII bytes (or a parsed
    library) using only the PDK as reference."""
    if tracer is None:
        tracer = get_tracer()
    library = (
        read_gds(bytes(source), tracer)
        if isinstance(source, (bytes, bytearray))
        else source
    )
    if top_name is not None:
        top = library.struct(top_name)
    else:
        top = infer_top(library)
    result = ExtractionResult(top=top.name)

    gds_layer = {
        name: pdk.layers.by_name(name).gds_layer for name in NET_LAYERS
    }
    label = pdk.layers.by_name("label").gds_layer

    with tracer.span("extract.identify") as sp:
        mapping, mismatches = identify_masters(library, top, pdk)
        result.master_map = mapping
        result.mismatches.extend(mismatches)
        if tracer.enabled:
            sp.set(masters=len(mapping), anomalies=len(mismatches))

    pads_of: dict[str, tuple[np.ndarray, list[str]]] = {}
    for struct in library.structs:
        if struct is top or struct.name not in mapping:
            continue
        pads_of[struct.name] = _master_pads(
            struct, mapping[struct.name], gds_layer["li"],
            gds_layer["met1"], result.mismatches,
        )

    # Flatten every net-purpose shape; pads remember their owner pin.
    # Shape ids number the pads first, in placement order, then the top
    # structure's shapes in stream order.
    with tracer.span("extract.flatten") as sp:
        pad_parts: list[np.ndarray] = []
        owners: list[tuple[int, str]] = []
        for index, sref in enumerate(top.srefs):
            if sref.struct_name not in mapping:
                result.mismatches.append(
                    f"placement #{index} references unidentified "
                    f"structure {sref.struct_name!r}"
                )
                result.instances.append(None)  # keep indexes aligned
                continue
            cell = mapping[sref.struct_name]
            result.instances.append(ExtractedInstance(
                name=f"x{index}", cell=cell, position=sref.position,
            ))
            pads, pins = pads_of[sref.struct_name]
            dx, dy = sref.position
            pad_parts.append(pads + np.array((dx, dy, dx, dy)))
            owners.extend((index, pin) for pin in pins)
        rows = top.boundaries
        net_shapes = rows[
            (rows[:, 1] == NET_DATATYPE)
            & np.isin(rows[:, 0], list(gds_layer.values()))
        ]
        rects = np.concatenate(pad_parts + [net_shapes[:, 2:]])
        shape_layer = np.concatenate((
            np.full(len(owners), gds_layer["li"]), net_shapes[:, 0],
        ))
        # Per layer: (shape ids, rects).
        by_layer: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, layer in gds_layer.items():
            ids = np.flatnonzero(shape_layer == layer)
            by_layer[name] = (ids, rects[ids])
        n_shapes = result.shapes = len(rects)
        if tracer.enabled:
            sp.set(shapes=n_shapes, placements=len(top.srefs))

    # Touch-graph connectivity.
    with tracer.span("extract.connect") as sp:
        first, second, candidates = touch_graph(by_layer, RELATIONS)
        result.n_nets, net_array = components(n_shapes, first, second)
        net_of = net_array.tolist()
        if tracer.enabled:
            sp.set(nets=result.n_nets, candidate_pairs=candidates,
                   edges=len(first))

    # Instance pins from pad components.
    for sid, (index, pin) in enumerate(owners):
        result.instances[index].pins[pin] = net_of[sid]
    attached: set[int] = set(net_of[:len(owners)])
    for index, inst in enumerate(result.instances):
        if inst is None:
            continue
        expected = set(inst.cell.inputs)
        if inst.cell.output:
            expected.add(inst.cell.output)
        missing = expected - set(inst.pins)
        if missing:
            result.mismatches.append(
                f"instance {inst.name} ({inst.cell.name}): pins "
                f"{sorted(missing)} have no extracted net"
            )

    # Port labels bind to the li pad underneath them.
    li_ids, li_rects = by_layer["li"]
    li_nets = net_array[li_ids]
    x0, y0, x1, y1 = (np.ascontiguousarray(c) for c in li_rects.T)
    port_bits: dict[str, dict[int, int]] = {}
    for text in top.texts:
        if text.layer != label:
            continue
        match = _PORT_RE.match(text.text)
        if match is None:
            continue
        base, bit = match.group(1), int(match.group(2))
        x, y = text.position
        hits = set(li_nets[
            (x0 <= x) & (x <= x1) & (y0 <= y) & (y <= y1)
        ].tolist())
        if not hits:
            result.mismatches.append(
                f"port label {text.text} sits on no net geometry"
            )
            continue
        if len(hits) > 1:
            result.mismatches.append(
                f"port label {text.text} touches {len(hits)} distinct nets"
            )
            continue
        bits = port_bits.setdefault(base, {})
        if bit in bits:
            result.mismatches.append(f"duplicate port label {text.text}")
            continue
        net = hits.pop()
        bits[bit] = net
        attached.add(net)
    for base in sorted(port_bits):
        bits = port_bits[base]
        if sorted(bits) != list(range(len(bits))):
            result.mismatches.append(
                f"port {base}: non-contiguous bits {sorted(bits)}"
            )
            continue
        result.ports[base] = [bits[i] for i in range(len(bits))]

    # Anything not reachable from a pin or port is foreign geometry.
    is_attached = np.zeros(result.n_nets, dtype=bool)
    is_attached[list(attached)] = True
    floating = net_array[~is_attached[net_array]]
    floating_shapes = len(floating)
    if floating_shapes:
        islands = len(np.unique(floating))
        result.mismatches.append(
            f"{floating_shapes} floating net shapes in {islands} "
            f"disconnected islands"
        )

    # Drop placeholder slots for unidentified placements.
    result.instances = [i for i in result.instances if i is not None]
    return result
