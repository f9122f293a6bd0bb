"""GDSII stream format: binary writer and reader.

The paper defines backend completion as "culminating in the creation of a
GDSII file" (Section III-B), so the toolkit writes the real binary format,
not a stand-in.  Supported records cover what a standard-cell chip needs:
``BOUNDARY`` rectangles, ``SREF`` cell placements and ``TEXT`` labels.
The reader parses files the writer produces (round-trip tested) and any
other GDSII limited to those record types.

**Rectangles only.**  A structure holds its boundaries as one ``(n, 6)``
int64 array of ``(layer, datatype, x0, y0, x1, y1)`` rows in stream
order, with ``x0 <= x1`` and ``y0 <= y1``: the rows are the shapes, so
DRC, extraction and identification read them without walking point
rings.  The writer emits each row as a closed 5-point ring starting at
the lower-left corner, counter-clockwise.  The reader accepts a closed
5-point axis-aligned ring in either winding from any start corner (it
is written back in the canonical order) and raises :class:`ValueError`
with the XY record's byte offset for any other ring — an L-shaped
polygon checked as its bounding box would be signed off on geometry
that no check ever saw.

Every rectangle element is the same 64 bytes (``BOUNDARY``, ``LAYER``,
``DATATYPE``, ``XY`` with five points, ``ENDEL``), so the writer packs a
structure's rectangles as one numpy structured array, and the reader
decodes each run of such elements with :func:`numpy.frombuffer`.  The
first element that differs in any header word, or whose ring is not the
canonical one, goes through the record-by-record loop, which keeps every
hardening check.

Format reference: the GDSII stream is a sequence of records, each with a
2-byte big-endian length, a record type byte and a data type byte.
Coordinates are 4-byte signed integers in database units (1 nm here);
reals use the GDSII 8-byte excess-64 floating point encoding.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from dataclasses import dataclass, field

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


def rect_array(rows: Iterable[tuple[int, ...]]) -> np.ndarray:
    """``(n, 6)`` int64 boundary rows from ``(layer, datatype, x0, y0,
    x1, y1)`` tuples (corners already ordered)."""
    return np.array(list(rows), dtype=np.int64).reshape(-1, 6)


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
    """One structure.  ``boundaries`` is an ``(n, 6)`` int64 array of
    ``(layer, datatype, x0, y0, x1, y1)`` rows in database units, in
    stream order, with ``x0 <= x1`` and ``y0 <= y1``."""

    name: str
    boundaries: np.ndarray = field(default_factory=lambda: rect_array(()))
    srefs: list[GdsSRef] = field(default_factory=list)
    texts: list[GdsText] = field(default_factory=list)

    def add_rect_um(self, layer: int, datatype: int, x0: float, y0: float,
                    x1: float, y1: float) -> None:
        """Append one rectangle given in micrometres (corners in any
        order).  Builders drawing many rectangles collect rows and set
        ``boundaries`` once instead."""
        xa, xb = sorted((to_db(x0), to_db(x1)))
        ya, yb = sorted((to_db(y0), to_db(y1)))
        self.boundaries = np.vstack((
            self.boundaries, rect_array([(layer, datatype, xa, ya, xb, yb)])
        ))


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

#: One rectangle element: BOUNDARY, LAYER, DATATYPE, XY (5 points) and
#: ENDEL records, 64 bytes, big-endian.  The ``*_head`` fields are the
#: records' length/type/data-type words.
_ELEMENT = np.dtype([
    ("boundary_head", ">u4"),
    ("layer_head", ">u4"), ("layer", ">i2"),
    ("datatype_head", ">u4"), ("datatype", ">i2"),
    ("xy_head", ">u4"), ("xy", ">i4", (10,)),
    ("endel_head", ">u4"),
])
_HEADS = {
    "boundary_head": (4 << 16) | (BOUNDARY << 8) | DT_NONE,
    "layer_head": (6 << 16) | (LAYER << 8) | DT_INT16,
    "datatype_head": (6 << 16) | (DATATYPE << 8) | DT_INT16,
    "xy_head": (44 << 16) | (XY << 8) | DT_INT32,
    "endel_head": (4 << 16) | (ENDEL << 8) | DT_NONE,
}
#: Row columns of the canonical ring x0 y0, x1 y0, x1 y1, x0 y1, x0 y0.
_RING = [2, 3, 4, 3, 4, 5, 2, 5, 2, 3]
_INT16 = (-(1 << 15), (1 << 15) - 1)
_INT32 = (-(1 << 31), (1 << 31) - 1)


def _rect_elements(rows: np.ndarray, name: str) -> bytes:
    """The rectangle elements of one structure, in row order."""
    if not len(rows):
        return b""
    if rows.ndim != 2 or rows.shape[1] != 6:
        raise ValueError(
            f"structure {name!r}: boundaries must be (n, 6) rows, "
            f"not {rows.shape}"
        )
    if (rows[:, 2] > rows[:, 4]).any() or (rows[:, 3] > rows[:, 5]).any():
        raise ValueError(
            f"structure {name!r}: boundary rows need x0 <= x1 and y0 <= y1"
        )
    for columns, (lo, hi) in ((rows[:, :2], _INT16), (rows[:, 2:], _INT32)):
        if columns.min() < lo or columns.max() > hi:
            raise ValueError(
                f"structure {name!r}: boundary value outside [{lo}, {hi}]"
            )
    elements = np.empty(len(rows), dtype=_ELEMENT)
    for head, word in _HEADS.items():
        elements[head] = word
    elements["layer"] = rows[:, 0]
    elements["datatype"] = rows[:, 1]
    elements["xy"] = rows[:, _RING]
    return elements.tobytes()


def write_gds(library: GdsLibrary, tracer=None) -> bytes:
    """Serialize a library to GDSII stream bytes; one ``gds.write``
    span on ``tracer`` (no-op by default)."""
    if tracer is None:
        tracer = get_tracer()
    with tracer.span("gds.write") as sp:
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
            out += _rect_elements(struct_def.boundaries, struct_def.name)
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
                out += _record(
                    XY, DT_INT32, struct.pack(">ii", *text.position)
                )
                out += _record(STRING, DT_ASCII, _ascii(text.text))
                out += _record(ENDEL, DT_NONE)
            out += _record(ENDSTR, DT_NONE)
        out += _record(ENDLIB, DT_NONE)
        if tracer.enabled:
            sp.set(bytes=len(out), boundaries=sum(
                len(s.boundaries) for s in library.structs
            ))
    return bytes(out)


def read_gds(data: bytes, tracer=None) -> GdsLibrary:
    """Parse GDSII stream bytes (records written by :func:`write_gds`).

    Malformed input raises :class:`ValueError` carrying the byte offset
    of the offending record — never :class:`IndexError` or
    :class:`struct.error` — so callers can treat any non-``ValueError``
    as a parser bug rather than a bad file.  So does a ``BOUNDARY``
    whose ring is not a closed axis-aligned rectangle.  The parse is one
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


def _rect_run(data: bytes, offset: int) -> np.ndarray:
    """Rows of the run of canonical rectangle elements at ``offset``:
    every header word as :func:`write_gds` writes it and the canonical
    closed ring.  Empty if the first element differs.  The run is read
    in growing chunks, so the work is proportional to its length."""
    size = _ELEMENT.itemsize
    available = (len(data) - offset) // size
    runs: list[np.ndarray] = []
    chunk = 64
    while available:
        count = min(chunk, available)
        elements = np.frombuffer(data, _ELEMENT, count=count, offset=offset)
        good = np.ones(count, dtype=bool)
        for head, word in _HEADS.items():
            good &= elements[head] == word
        xy = elements["xy"].astype(np.int64)
        x0, y0, x1, y1 = xy[:, 0], xy[:, 1], xy[:, 4], xy[:, 5]
        good &= (
            (xy[:, 2] == x1) & (xy[:, 3] == y0) & (xy[:, 6] == x0)
            & (xy[:, 7] == y1) & (xy[:, 8] == x0) & (xy[:, 9] == y0)
            & (x0 <= x1) & (y0 <= y1)
        )
        taken = count if good.all() else int(np.argmin(good))
        rows = np.empty((taken, 6), dtype=np.int64)
        rows[:, 0] = elements["layer"][:taken]
        rows[:, 1] = elements["datatype"][:taken]
        rows[:, 2:] = xy[:taken, [0, 1, 4, 5]]
        runs.append(rows)
        if taken < count:
            break
        offset += count * size
        available -= count
        chunk *= 4
    return np.concatenate(runs) if runs else rect_array(())


def _ring_box(
    points: list[tuple[int, int]], record: int
) -> tuple[int, int, int, int]:
    """``(x0, y0, x1, y1)`` of a closed 5-point axis-aligned rectangle
    in either winding from any start corner; any other ring raises
    :class:`ValueError` naming the XY record's offset."""
    if len(points) == 5 and points[0] == points[4]:
        (ax, ay), (bx, by), (cx, cy), (dx, dy), _ = points
        if (ay == by and bx == cx and cy == dy and dx == ax) or (
            ax == bx and by == cy and cx == dx and dy == ay
        ):
            return min(ax, cx), min(ay, cy), max(ax, cx), max(ay, cy)
    raise ValueError(
        f"BOUNDARY XY record at offset {record} is not a closed "
        f"axis-aligned rectangle ({len(points)} points); only "
        "rectangles are supported"
    )


def _parse(data: bytes) -> tuple[GdsLibrary, int]:
    """``(library, record count)``.  Runs of canonical rectangle
    elements are decoded as arrays (:func:`_rect_run`); every other
    record goes through the loop, frequent types tested first and
    decoded in place, without copying their payload."""
    unpack_from = struct.unpack_from
    offset = records = 0
    library = GdsLibrary(name="")
    current: GdsStruct | None = None
    # The open structure's boundary rows: decoded runs and single rows
    # from the loop, in stream order.
    runs: list[np.ndarray] = []
    rows: list[tuple[int, int, int, int, int, int]] = []
    # The open element's kind (None: no element open) and its fields.
    kind: int | None = None
    layer = datatype = xy_record = 0
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
        if rtype == BOUNDARY and current is not None:
            run = _rect_run(data, offset)
            if len(run):
                if rows:
                    runs.append(rect_array(rows))
                    rows = []
                runs.append(run)
                offset += len(run) * _ELEMENT.itemsize
                records += 5 * len(run)
                kind = None
                continue
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
            xy_record = record
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
                rows.append(
                    (layer, datatype, *_ring_box(points, xy_record))
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
            runs, rows = [], []
        elif rtype == ENDSTR:
            # A bare ENDSTR (no preceding BGNSTR) closes nothing; skip it
            # rather than recording a phantom structure.
            if current is not None:
                if rows:
                    runs.append(rect_array(rows))
                if runs:
                    current.boundaries = np.concatenate(runs)
                library.structs.append(current)
            current = None
        elif rtype == ENDLIB:
            break
    return library, records
