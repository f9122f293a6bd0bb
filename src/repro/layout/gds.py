"""GDSII stream format: binary writer and reader.

The paper defines backend completion as "culminating in the creation of a
GDSII file" (Section III-B), so the toolkit writes the real binary format,
not a stand-in.  Supported records cover what a standard-cell chip needs:
``BOUNDARY`` polygons, ``SREF`` cell placements and ``TEXT`` labels.  The
reader parses files the writer produces (round-trip tested) and any other
GDSII limited to those record types.

Format reference: the GDSII stream is a sequence of records, each with a
2-byte big-endian length, a record type byte and a data type byte.
Coordinates are 4-byte signed integers in database units (1 nm here);
reals use the GDSII 8-byte excess-64 floating point encoding.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..obs.trace import get_tracer

# Record types (subset).
HEADER = 0x00
BGNLIB = 0x01
LIBNAME = 0x02
UNITS = 0x03
ENDLIB = 0x04
BGNSTR = 0x05
STRNAME = 0x06
ENDSTR = 0x07
BOUNDARY = 0x08
SREF = 0x0A
TEXT = 0x0C
LAYER = 0x0D
DATATYPE = 0x0E
XY = 0x10
ENDEL = 0x11
SNAME = 0x12
STRING = 0x19
TEXTTYPE = 0x16

# Data types.
DT_NONE = 0x00
DT_INT16 = 0x02
DT_INT32 = 0x03
DT_REAL8 = 0x05
DT_ASCII = 0x06

#: Database unit: 1 nm expressed in metres / in user units (um).
DB_UNIT_IN_UM = 0.001
DB_UNIT_IN_M = 1e-9


@dataclass
class GdsBoundary:
    """A filled polygon on one layer (rectangles use 5 closed points)."""

    layer: int
    datatype: int
    points: list[tuple[int, int]]  # database units, closed ring


@dataclass
class GdsText:
    layer: int
    text: str
    position: tuple[int, int]


@dataclass
class GdsSRef:
    """A placement of another structure."""

    struct_name: str
    position: tuple[int, int]


@dataclass
class GdsStruct:
    name: str
    boundaries: list[GdsBoundary] = field(default_factory=list)
    srefs: list[GdsSRef] = field(default_factory=list)
    texts: list[GdsText] = field(default_factory=list)

    def add_rect_um(self, layer: int, datatype: int, x0: float, y0: float,
                    x1: float, y1: float) -> None:
        """Convenience: add a rectangle given in micrometres."""
        pts = [
            (to_db(x0), to_db(y0)),
            (to_db(x1), to_db(y0)),
            (to_db(x1), to_db(y1)),
            (to_db(x0), to_db(y1)),
            (to_db(x0), to_db(y0)),
        ]
        self.boundaries.append(GdsBoundary(layer, datatype, pts))


@dataclass
class GdsLibrary:
    name: str
    structs: list[GdsStruct] = field(default_factory=list)

    def struct(self, name: str) -> GdsStruct:
        for s in self.structs:
            if s.name == name:
                return s
        raise KeyError(f"no structure {name!r}")

    def add(self, struct: GdsStruct) -> GdsStruct:
        self.structs.append(struct)
        return struct


def to_db(um: float) -> int:
    """Micrometres to database units (nm)."""
    return int(round(um / DB_UNIT_IN_UM))


def from_db(db: int) -> float:
    """Database units to micrometres."""
    return db * DB_UNIT_IN_UM


def boundary_bboxes(
    boundaries: Sequence[GdsBoundary], struct_name: str
) -> np.ndarray:
    """``(n, 4)`` int64 ``(x0, y0, x1, y1)`` bounding boxes of
    ``boundaries`` in database units, in one pass over all their points.

    An empty ring has no bounding box: it raises :class:`ValueError`
    naming ``struct_name`` (``reduceat`` would otherwise fail or return
    a neighbour's point).
    """
    sizes = np.fromiter(
        (len(b.points) for b in boundaries), dtype=np.int64,
        count=len(boundaries),
    )
    if not len(sizes):
        return np.empty((0, 4), dtype=np.int64)
    if not sizes.all():
        empty = boundaries[int(np.argmin(sizes))]
        raise ValueError(
            f"structure {struct_name!r}: boundary on layer "
            f"{empty.layer}/{empty.datatype} has an empty ring"
        )
    xy = np.fromiter(
        chain.from_iterable(chain.from_iterable(b.points for b in boundaries)),
        dtype=np.int64, count=2 * int(sizes.sum()),
    ).reshape(-1, 2)
    starts = np.zeros_like(sizes)
    np.cumsum(sizes[:-1], out=starts[1:])
    return np.hstack((
        np.minimum.reduceat(xy, starts), np.maximum.reduceat(xy, starts)
    ))


# -- low-level encoding --------------------------------------------------------


def _record(rtype: int, dtype: int, payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    return struct.pack(">HBB", length, rtype, dtype) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\x00"
    return data


def _real8(value: float) -> bytes:
    """GDSII 8-byte excess-64 real."""
    if value == 0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(value * (1 << 56))
    return struct.pack(">BB", sign | exponent, (mantissa >> 48) & 0xFF) + struct.pack(
        ">HI", (mantissa >> 32) & 0xFFFF, mantissa & 0xFFFFFFFF
    )


def _parse_real8(data: bytes) -> float:
    byte0 = data[0]
    sign = -1.0 if byte0 & 0x80 else 1.0
    exponent = (byte0 & 0x7F) - 64
    mantissa = int.from_bytes(data[1:8], "big") / float(1 << 56)
    return sign * mantissa * (16.0**exponent)


_TIMESTAMP = struct.pack(">12H", 2025, 1, 1, 0, 0, 0, 2025, 1, 1, 0, 0, 0)


def write_gds(library: GdsLibrary) -> bytes:
    """Serialize a library to GDSII stream bytes."""
    out = bytearray()
    out += _record(HEADER, DT_INT16, struct.pack(">h", 600))
    out += _record(BGNLIB, DT_INT16, _TIMESTAMP)
    out += _record(LIBNAME, DT_ASCII, _ascii(library.name))
    out += _record(
        UNITS, DT_REAL8, _real8(DB_UNIT_IN_UM) + _real8(DB_UNIT_IN_M)
    )
    for struct_def in library.structs:
        out += _record(BGNSTR, DT_INT16, _TIMESTAMP)
        out += _record(STRNAME, DT_ASCII, _ascii(struct_def.name))
        for boundary in struct_def.boundaries:
            out += _record(BOUNDARY, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", boundary.layer))
            out += _record(
                DATATYPE, DT_INT16, struct.pack(">h", boundary.datatype)
            )
            points = boundary.points
            xy = struct.pack(
                f">{2 * len(points)}i", *chain.from_iterable(points)
            )
            out += _record(XY, DT_INT32, xy)
            out += _record(ENDEL, DT_NONE)
        for sref in struct_def.srefs:
            out += _record(SREF, DT_NONE)
            out += _record(SNAME, DT_ASCII, _ascii(sref.struct_name))
            out += _record(
                XY, DT_INT32, struct.pack(">ii", *sref.position)
            )
            out += _record(ENDEL, DT_NONE)
        for text in struct_def.texts:
            out += _record(TEXT, DT_NONE)
            out += _record(LAYER, DT_INT16, struct.pack(">h", text.layer))
            out += _record(TEXTTYPE, DT_INT16, struct.pack(">h", 0))
            out += _record(XY, DT_INT32, struct.pack(">ii", *text.position))
            out += _record(STRING, DT_ASCII, _ascii(text.text))
            out += _record(ENDEL, DT_NONE)
        out += _record(ENDSTR, DT_NONE)
    out += _record(ENDLIB, DT_NONE)
    return bytes(out)


def read_gds(data: bytes, tracer=None) -> GdsLibrary:
    """Parse GDSII stream bytes (records written by :func:`write_gds`).

    Malformed input raises :class:`ValueError` carrying the byte offset
    of the offending record — never :class:`IndexError` or
    :class:`struct.error` — so callers can treat any non-``ValueError``
    as a parser bug rather than a bad file.  The parse is one
    ``gds.read`` span on ``tracer`` (no-op by default).
    """
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("gds.read") as sp:
        library, records = _parse(data)
        if tracer.enabled:
            sp.set(bytes=len(data), records=records, boundaries=sum(
                len(s.boundaries) for s in library.structs
            ))
    return library


def _parse(data: bytes) -> tuple[GdsLibrary, int]:
    """``(library, record count)``.  The frequent record types are
    tested first and decoded in place, without copying their payload."""
    unpack_from = struct.unpack_from
    offset = records = 0
    library = GdsLibrary(name="")
    current: GdsStruct | None = None
    # The open element's kind (None: no element open) and its fields.
    kind: int | None = None
    layer = datatype = 0
    points: list[tuple[int, int]] = []
    name = text = ""

    def short(record: int, size: int, expected: int, name: str) -> None:
        if size < expected:
            raise ValueError(
                f"{name} record at offset {record} truncated: "
                f"{size} payload bytes, need {expected}"
            )

    while offset < len(data):
        record = offset
        if offset + 4 > len(data):
            raise ValueError(
                f"truncated GDSII record header at offset {offset}"
            )
        length, rtype, _ = unpack_from(">HBB", data, offset)
        if length < 4:
            raise ValueError(
                f"invalid record length {length} at offset {offset}"
            )
        if offset + length > len(data):
            raise ValueError(
                f"record at offset {offset} overruns the stream "
                f"({length} bytes declared, {len(data) - offset} left)"
            )
        body, offset = offset + 4, offset + length
        records += 1

        if rtype == XY and kind is not None:
            if (length - 4) % 8:
                raise ValueError(
                    f"XY record at offset {record} has "
                    f"{length - 4} payload bytes (not a multiple of 8)"
                )
            values = unpack_from(f">{(length - 4) // 4}i", data, body)
            points = list(zip(values[0::2], values[1::2]))
        elif rtype == LAYER and kind is not None:
            short(record, length - 4, 2, "LAYER")
            layer = unpack_from(">h", data, body)[0]
        elif rtype == DATATYPE and kind is not None:
            short(record, length - 4, 2, "DATATYPE")
            datatype = unpack_from(">h", data, body)[0]
        elif rtype == ENDEL and kind is not None and current is not None:
            if not points:
                element = {BOUNDARY: "BOUNDARY", SREF: "SREF"}.get(
                    kind, "TEXT"
                )
                raise ValueError(
                    f"{element} element ending at offset {record} "
                    "has no XY coordinates"
                )
            if kind == BOUNDARY:
                current.boundaries.append(
                    GdsBoundary(layer, datatype, points)
                )
            elif kind == SREF:
                current.srefs.append(GdsSRef(name, points[0]))
            else:
                current.texts.append(GdsText(layer, text, points[0]))
            kind = None
        elif rtype in (BOUNDARY, SREF, TEXT):
            kind, layer, datatype, points, name, text = (
                rtype, 0, 0, [], "", ""
            )
        elif rtype == SNAME and kind is not None:
            name = data[body:offset].rstrip(b"\x00").decode("ascii")
        elif rtype == STRING and kind is not None:
            text = data[body:offset].rstrip(b"\x00").decode("ascii")
        elif rtype == STRNAME and current is not None:
            current.name = data[body:offset].rstrip(b"\x00").decode("ascii")
        elif rtype == LIBNAME:
            library.name = data[body:offset].rstrip(b"\x00").decode("ascii")
        elif rtype == UNITS:
            short(record, length - 4, 16, "UNITS")
            db_in_user = _parse_real8(data[body : body + 8])
            db_in_m = _parse_real8(data[body + 8 : body + 16])
            if (
                abs(db_in_user - DB_UNIT_IN_UM) > 1e-9 * DB_UNIT_IN_UM
                or abs(db_in_m - DB_UNIT_IN_M) > 1e-9 * DB_UNIT_IN_M
            ):
                raise ValueError(
                    f"unsupported UNITS at offset {record}: "
                    f"db unit {db_in_user} user / {db_in_m} m "
                    f"(expected {DB_UNIT_IN_UM} / {DB_UNIT_IN_M})"
                )
        elif rtype == BGNSTR:
            current = GdsStruct(name="")
        elif rtype == ENDSTR:
            # A bare ENDSTR (no preceding BGNSTR) closes nothing; skip it
            # rather than recording a phantom structure.
            if current is not None:
                library.structs.append(current)
            current = None
        elif rtype == ENDLIB:
            break
    return library, records
