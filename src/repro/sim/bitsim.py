"""Word-parallel (bit-packed) logic simulation.

Evaluating one test vector at a time costs every gate one Python-level
operation per vector.  This module packs up to ``W = 64``
*independent* vectors into one Python int per signal **bit** — lane
``l`` of the word is the value of that bit under vector ``l`` — and
evaluates gates with bitwise operations, so one ``&``/``|``/``^``
simulates all of them at once.  This is the classic PPSFP technique
from EDA fault simulators, and it is pure-Python friendly because
Python ints are arbitrary-width bit vectors.

Packed value convention
-----------------------

A *packed word* for an ``n``-bit signal is a list of ``n`` ints, LSB
first (the same bit ordering the netlists use): ``words[i]`` holds bit
``i`` of the signal across all lanes, with lane ``l`` in bit ``l`` of
the int.  :func:`pack_word` transposes a list of per-lane scalar values
into this layout, :func:`unpack_word` transposes back, and
:func:`extract_lane` recovers the single scalar value of one lane.

Two engines simulate the implementation netlists, and they are the
only gate-level simulators in the toolkit:

* :class:`PackedGateSimulator` — over a ``GateNetlist``;
* :class:`PackedMappedSimulator` — over a ``MappedNetlist`` of
  standard cells (packed per-kind boolean functions, with a per-lane
  fallback for unknown cells).

Both share one body for state, stimulus and clocking
(``set``/``set_many``/``get``/``step``/``get_register``/``load_state``)
and differ only in their settle loops.  Built with ``lanes=1`` they are
the one-vector engines that the equivalence checker's lockstep loop
and mismatch replay drive; the RTL reference is always the independent
interpreter :class:`repro.sim.Simulator`.

This module deliberately imports nothing from :mod:`repro.synth` (the
synth package imports back into here).
"""

from __future__ import annotations

#: Number of vectors packed into one machine word.  64 keeps every
#: lane word within one CPython "digit spill" of a small int and
#: matches the classic PPSFP word size.
LANES = 64

#: All-ones mask over the full lane count.
FULL_MASK = (1 << LANES) - 1


class PackedSimError(Exception):
    """Raised for malformed packed stimulus or unsupported designs."""


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------


def pack_word(values: list[int], width: int) -> list[int]:
    """Transpose per-lane scalar ``values`` into a packed word.

    ``values[l]`` is the scalar value of lane ``l``; the result is one
    int per signal bit, LSB first, with lane ``l`` in bit ``l``.  At
    most :data:`LANES` values are allowed; missing lanes stay 0.
    """
    if len(values) > LANES:
        raise PackedSimError(
            f"cannot pack {len(values)} vectors into {LANES} lanes"
        )
    words = [0] * width
    for bit in range(width):
        probe = 1 << bit
        word = 0
        for lane, value in enumerate(values):
            if value & probe:
                word |= 1 << lane
        words[bit] = word
    return words


def unpack_word(words: list[int], lane_count: int = LANES) -> list[int]:
    """Transpose a packed word back into per-lane scalar values."""
    return [extract_lane(words, lane) for lane in range(lane_count)]


def extract_lane(words: list[int], lane: int) -> int:
    """Scalar value of one lane of a packed word.

    Given packed inputs or outputs and a lane index, it recovers that
    lane's scalar value: a batched replay reads one verdict per lane
    this way, and a one-lane engine's values are ``extract_lane(words,
    0)``.
    """
    value = 0
    for bit, word in enumerate(words):
        value |= ((word >> lane) & 1) << bit
    return value


def extract_lane_vector(
    packed: dict[str, list[int]], lane: int
) -> dict[str, int]:
    """Scalar ``{signal: value}`` vector for one lane of packed stimulus."""
    return {name: extract_lane(words, lane) for name, words in packed.items()}


def broadcast_word(value: int, width: int, mask: int = FULL_MASK) -> list[int]:
    """Packed word holding the same scalar ``value`` in every lane."""
    return [mask if (value >> bit) & 1 else 0 for bit in range(width)]


def group_bit_labels(labels: list[str]) -> dict[str, list[tuple[int, int]]]:
    """Group flat bit labels into words by the ``reg[i]`` convention.

    ``labels[p]`` names state element ``p`` (a flop name or a DFF tag);
    the result maps each word name to ``(bit_index, position)`` pairs.
    Unlabelled positions become single-bit ``dff<p>`` words, so every
    flop of a hand-built netlist stays addressable.
    """
    words: dict[str, list[tuple[int, int]]] = {}
    for position, label in enumerate(labels):
        label = label or f"dff{position}"
        base, _, rest = label.rpartition("[")
        if base and rest.endswith("]") and rest[:-1].isdigit():
            words.setdefault(base, []).append((int(rest[:-1]), position))
        else:
            words.setdefault(label, []).append((0, position))
    return words


# ---------------------------------------------------------------------------
# Packed standard-cell functions
# ---------------------------------------------------------------------------

#: Lane-parallel boolean functions per cell kind.  Each takes the lane
#: mask first, then one packed lane word per input pin.
_PACKED_CELL_FUNCS = {
    "INV": lambda m, a: a ^ m,
    "BUF": lambda m, a: a,
    "NAND2": lambda m, a, b: (a & b) ^ m,
    "NOR2": lambda m, a, b: (a | b) ^ m,
    "AND2": lambda m, a, b: a & b,
    "OR2": lambda m, a, b: a | b,
    "XOR2": lambda m, a, b: a ^ b,
    "XNOR2": lambda m, a, b: (a ^ b) ^ m,
    "NAND3": lambda m, a, b, c: (a & b & c) ^ m,
    "NOR3": lambda m, a, b, c: (a | b | c) ^ m,
    "AOI21": lambda m, a, b, c: ((a & b) | c) ^ m,
    "OAI21": lambda m, a, b, c: ((a | b) & c) ^ m,
    "MUX2": lambda m, a, b, s: (b & s) | (a & (s ^ m)),
    "TIE0": lambda m: 0,
    "TIE1": lambda m: m,
}


def packed_cell_function(cell, mask: int):
    """The lane-parallel function of a standard cell.

    Known kinds use a closed-form bitwise expression; anything else
    falls back to evaluating the cell's scalar ``function`` once per
    lane (correct for any cell, just not fast).
    """
    fn = _PACKED_CELL_FUNCS.get(cell.kind)
    if fn is not None:
        return lambda *words, _fn=fn, _m=mask: _fn(_m, *words)
    scalar = cell.function
    if scalar is None:
        raise PackedSimError(
            f"cell {cell.name!r} has no combinational function"
        )
    lanes = mask.bit_length()

    def per_lane(*words):
        out = 0
        for lane in range(lanes):
            if scalar(*(((w >> lane) & 1) for w in words)):
                out |= 1 << lane
        return out

    return per_lane


# ---------------------------------------------------------------------------
# Packed netlist simulators
# ---------------------------------------------------------------------------

# settle() opcodes, kept as ints so the hot loop branches on an int
# compare instead of a dict lookup + lambda call per gate.
_OP_AND, _OP_OR, _OP_XOR, _OP_NOT, _OP_BUF = range(5)
_OPCODES = {"AND": _OP_AND, "OR": _OP_OR, "XOR": _OP_XOR,
            "NOT": _OP_NOT, "BUF": _OP_BUF}


class _PackedEngine:
    """State, stimulus and clocking shared by the packed engines.

    Every net holds a lane word; packed values are lists of lane words,
    LSB first (see the module docstring).  A subclass fills in its ports
    (``_inputs``/``_outputs``: name -> nets), its flops (``_seq``: one
    ``(d, q, reset_value)`` entry each), its constant nets (``_consts``:
    net -> 0/1), the register words the flop labels form (``_words``,
    see :func:`group_bit_labels`) and the net values, then supplies its
    own ``_settle`` loop.
    """

    def __init__(self, lanes: int):
        if not 1 <= lanes <= LANES:
            raise PackedSimError(f"lanes must be in 1..{LANES}, got {lanes}")
        self.lanes = lanes
        self.mask = (1 << lanes) - 1

    # -- state --------------------------------------------------------------

    def register_words(self) -> dict[str, list[int]]:
        """Register word name -> sorted bit indices (correspondence map)."""
        return {
            name: sorted(bit for bit, _ in pairs)
            for name, pairs in self._words.items()
        }

    def input_widths(self) -> dict[str, int]:
        """Input port name -> bit width."""
        return {name: len(nets) for name, nets in self._inputs.items()}

    def reset(self) -> None:
        values = self._values
        mask = self.mask
        for net, value in self._consts.items():
            values[net] = mask if value else 0
        for _, q, reset_value in self._seq:
            values[q] = mask if reset_value else 0
        self._settle()

    def load_state(
        self, state: dict[str, list[int]], settle: bool = True
    ) -> None:
        """Force register words to packed per-lane values (by flop label).

        ``settle=False`` defers combinational re-evaluation for callers
        that immediately follow with :meth:`set_many` (which settles).
        """
        for name, words in state.items():
            if name not in self._words:
                raise KeyError(f"no register named {name!r} in netlist")
            for bit_index, position in self._words[name]:
                word = words[bit_index] if bit_index < len(words) else 0
                self._check_word(word)
                self._values[self._seq[position][1]] = word
        if settle:
            self._settle()

    def get_register(self, name: str) -> list[int]:
        """Packed current value of the register word ``name``."""
        if name not in self._words:
            raise KeyError(f"no register named {name!r} in netlist")
        pairs = self._words[name]
        width = 1 + max(bit for bit, _ in pairs)
        words = [0] * width
        for bit_index, position in pairs:
            words[bit_index] = self._values[self._seq[position][1]]
        return words

    # -- stimulus -----------------------------------------------------------

    def _check_word(self, word: int) -> None:
        if not 0 <= word <= self.mask:
            raise PackedSimError(
                f"lane word {word:#x} exceeds the {self.lanes}-lane mask"
            )

    def _write_input(self, name: str, words: list[int]) -> None:
        nets = self._inputs[name]
        if len(words) != len(nets):
            raise PackedSimError(
                f"input {name!r} is {len(nets)} bits, got {len(words)} "
                "lane words"
            )
        for net, word in zip(nets, words):
            self._check_word(word)
            self._values[net] = word

    def set(self, name: str, words: list[int]) -> None:
        """Drive an input with one lane word per bit, then settle."""
        self._write_input(name, words)
        self._settle()

    def set_many(self, values: dict[str, list[int]]) -> None:
        """Drive several inputs with a single settle sweep."""
        for name, words in values.items():
            self._write_input(name, words)
        self._settle()

    def get(self, name: str) -> list[int]:
        """Packed value of output ``name`` (one lane word per bit)."""
        values = self._values
        return [values[net] for net in self._outputs[name]]

    # -- evaluation ---------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        values = self._values
        for _ in range(cycles):
            sampled = [(q, values[d]) for d, q, _ in self._seq]
            for q, word in sampled:
                values[q] = word
            self._settle()


class PackedGateSimulator(_PackedEngine):
    """Word-parallel simulator over a ``GateNetlist``.

    One Python-level bitwise op per gate simulates all ``lanes``
    vectors; ``lanes=1`` is the one-vector lockstep engine.
    """

    def __init__(self, netlist, lanes: int = LANES):
        super().__init__(lanes)
        self.netlist = netlist
        # Pre-encode the topological settle program once.
        self._program: list[tuple[int, int, int, int]] = []
        for gate in netlist.topo_gates():
            opcode = _OPCODES[gate.op]
            a = gate.inputs[0]
            b = gate.inputs[1] if len(gate.inputs) > 1 else a
            self._program.append((opcode, gate.output, a, b))
        self._inputs, self._outputs = netlist.inputs, netlist.outputs
        self._seq = [(ff.d, ff.q, ff.reset_value) for ff in netlist.dffs]
        self._consts = netlist.const_nets
        self._words = group_bit_labels([ff.name for ff in netlist.dffs])
        self._values: list[int] = [0] * netlist.n_nets
        self.reset()

    def _settle(self) -> None:
        values = self._values
        mask = self.mask
        for opcode, out, a, b in self._program:
            if opcode == _OP_AND:
                values[out] = values[a] & values[b]
            elif opcode == _OP_OR:
                values[out] = values[a] | values[b]
            elif opcode == _OP_XOR:
                values[out] = values[a] ^ values[b]
            elif opcode == _OP_NOT:
                values[out] = values[a] ^ mask
            else:
                values[out] = values[a]


class PackedMappedSimulator(_PackedEngine):
    """Word-parallel simulator over a ``MappedNetlist`` of standard cells."""

    def __init__(self, mapped, lanes: int = LANES):
        super().__init__(lanes)
        self.mapped = mapped
        # Program entries carry the input nets arity-split (a, b, c) so
        # settle can call without *args tuple building per cell.
        self._program = []
        for inst in mapped.topo_comb():
            fn = packed_cell_function(inst.cell, self.mask)
            ins = [inst.pins[p] for p in inst.cell.inputs]
            a, b, c = (ins + [0, 0, 0])[:3]
            self._program.append(
                (len(ins), fn, inst.pins[inst.cell.output], a, b, c)
            )
        self._inputs, self._outputs = mapped.inputs, mapped.outputs
        self._seq = [
            (inst.pins["d"], inst.pins[inst.cell.output], inst.reset_value)
            for inst in mapped.seq_cells
        ]
        self._consts = {}
        self._words = group_bit_labels(
            [inst.tag for inst in mapped.seq_cells]
        )
        self._values: dict[int, int] = {n: 0 for n in mapped.nets()}
        self.reset()

    def _settle(self) -> None:
        values = self._values
        for arity, fn, out, a, b, c in self._program:
            if arity == 2:
                values[out] = fn(values[a], values[b])
            elif arity == 3:
                values[out] = fn(values[a], values[b], values[c])
            elif arity == 1:
                values[out] = fn(values[a])
            else:
                values[out] = fn()
