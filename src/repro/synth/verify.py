"""Simulation-based equivalence checking.

Runs the RTL simulator and a packed gate-level engine (pre- or
post-mapping, :mod:`repro.sim.bitsim`) on random stimulus and compares
every output every cycle.
This is the verification backbone of the flow: synthesis, optimization and
mapping are each checked against the original RTL semantics.

Each divergence is recorded as a structured :class:`Mismatch` — the
failing cycle, the exact input vector applied that cycle and the RTL
register state it was applied in — so CI can archive failures
(:meth:`EquivalenceResult.to_json`) and so formal counterexamples from
:mod:`repro.formal.lec` replay through the same record type.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from ..hdl.ir import Module
from ..obs.metrics import MetricsRegistry, get_metrics
from ..obs.trace import Tracer, get_tracer
from ..sim.bitsim import (
    LANES,
    PackedGateSimulator,
    PackedMappedSimulator,
    extract_lane,
    pack_word,
)
from ..sim.engine import Simulator
from .mapped import MappedNetlist
from .netlist import GateNetlist

#: Lockstep equivalence stops collecting divergences at this many
#: mismatches: past that point the netlist is plainly broken and more
#: records add noise, not signal.  The cap is serialized into
#: :meth:`EquivalenceResult.to_json` so archived failures are
#: self-describing.
MISMATCH_CAP = 10

#: Histogram buckets for packed-simulation throughput (vectors/second).
_RATE_BUCKETS = (1e2, 1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7)


@dataclass
class Mismatch:
    """One observed divergence between RTL and an implementation.

    ``inputs`` is the input vector applied on the failing cycle and
    ``state`` the RTL register values it was applied in — together they
    reproduce the failure directly via the simulators' ``load_state`` /
    ``set`` without replaying the whole random run.  ``gate_state``
    holds the implementation's register values on that cycle when they
    had already diverged from the RTL's (a buggy next-state function
    shows up one or more cycles before the wrong value reaches an
    output); empty means "same as ``state``".
    """

    cycle: int
    output: str
    expect: int
    got: int
    inputs: dict[str, int] = field(default_factory=dict)
    state: dict[str, int] = field(default_factory=dict)
    gate_state: dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: output {self.output}: "
            f"rtl={self.expect} gate={self.got} inputs={self.inputs}"
        )

    __repr__ = __str__

    def to_dict(self) -> dict[str, object]:
        return {
            "cycle": self.cycle,
            "output": self.output,
            "expect": self.expect,
            "got": self.got,
            "inputs": dict(self.inputs),
            "state": dict(self.state),
            "gate_state": dict(self.gate_state),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Mismatch":
        return cls(
            cycle=int(data["cycle"]),
            output=data["output"],
            expect=int(data["expect"]),
            got=int(data["got"]),
            inputs={k: int(v) for k, v in data.get("inputs", {}).items()},
            state={k: int(v) for k, v in data.get("state", {}).items()},
            gate_state={
                k: int(v) for k, v in data.get("gate_state", {}).items()
            },
        )


@dataclass
class EquivalenceResult:
    """Outcome of a lockstep equivalence run.

    ``cycles`` is the number of cycles actually simulated: a run that
    early-exits at the :data:`MISMATCH_CAP` reports the cycle count at
    the point it stopped, not the requested budget.  ``mismatch_cap``
    records the cap in force so an archived failure with exactly that
    many mismatches is recognizable as truncated.
    """

    passed: bool
    cycles: int
    mismatches: list[Mismatch] = field(default_factory=list)
    seed: int | None = None
    mismatch_cap: int = MISMATCH_CAP

    def summary(self) -> str:
        status = "EQUIVALENT" if self.passed else "MISMATCH"
        return f"{status} after {self.cycles} cycles"

    def to_json(self, indent: int | None = 2) -> str:
        """The CI-archivable failure record."""
        return json.dumps(
            {
                "passed": self.passed,
                "cycles": self.cycles,
                "seed": self.seed,
                "mismatch_cap": self.mismatch_cap,
                "mismatches": [m.to_dict() for m in self.mismatches],
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "EquivalenceResult":
        data = json.loads(text)
        return cls(
            passed=bool(data["passed"]),
            cycles=int(data["cycles"]),
            mismatches=[
                Mismatch.from_dict(m) for m in data.get("mismatches", ())
            ],
            seed=data.get("seed"),
            mismatch_cap=int(data.get("mismatch_cap", MISMATCH_CAP)),
        )


def packed_simulator(
    impl: GateNetlist | MappedNetlist, lanes: int = LANES
) -> PackedGateSimulator | PackedMappedSimulator:
    """The packed engine for an implementation netlist."""
    if isinstance(impl, GateNetlist):
        return PackedGateSimulator(impl, lanes)
    if isinstance(impl, MappedNetlist):
        return PackedMappedSimulator(impl, lanes)
    raise TypeError(f"cannot simulate implementation of type {type(impl)!r}")


def _drive(sim, widths: dict[str, int], vector: dict[str, int]) -> None:
    """Drive scalar input values into a one-lane engine."""
    words = {}
    for name, value in vector.items():
        width = widths[name]
        if not 0 <= value < (1 << width):
            raise ValueError(
                f"value {value} does not fit input {name!r} ({width} bits)"
            )
        words[name] = pack_word([value], width)
    sim.set_many(words)


def check_equivalence(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int = 64,
    seed: int = 2025,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> EquivalenceResult:
    """Compare ``module`` (RTL reference) against an implementation.

    Random inputs are applied each cycle; all outputs are compared both
    combinationally (after input settle) and across clock edges.  The
    stimulus stream is a pure function of ``seed`` — the flow threads
    its own ``FlowOptions.seed`` through here so runs are reproducible.

    Mismatch collection stops at :data:`MISMATCH_CAP` records; the
    result then reports the cycle count actually simulated (the failing
    cycle + 1), not the requested budget.

    The fast accept is word-parallel (:mod:`repro.sim.bitsim`): the RTL
    simulator records the random trajectory once, then the
    implementation verifies 64 cycles per packed pass.  Any divergence,
    or a netlist whose state cannot be forced through the RTL register
    words, runs the lockstep loop from cycle 0 on a one-lane engine;
    that loop defines the :class:`Mismatch` records.
    """
    if tracer is None:
        tracer = get_tracer()
    if metrics is None:
        metrics = get_metrics()
    result = _check_equivalence_packed(
        module, implementation, cycles, seed, tracer, metrics
    )
    if result is not None:
        return result
    metrics.counter("sim.packed.fallbacks").inc()
    return _check_equivalence_lockstep(module, implementation, cycles, seed)


def _check_equivalence_lockstep(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int,
    seed: int,
) -> EquivalenceResult:
    """The reference lockstep loop; defines the result contract."""
    rtl = Simulator(module)
    gate = packed_simulator(implementation, lanes=1)
    widths = gate.input_widths()
    rng = random.Random(seed)

    input_sigs = list(rtl.module.inputs)
    register_names = [reg.signal.name for reg in rtl.module.registers]
    output_names = [sig.name for sig in rtl.module.outputs]
    mismatches: list[Mismatch] = []

    def impl_state() -> dict[str, int]:
        """The implementation's register words, where flops are named.

        Hand-built netlists may leave flop names empty; they simply get
        no divergence snapshot (replay then reuses the RTL state).
        """
        words: dict[str, int] = {}
        for name in register_names:
            try:
                words[name] = extract_lane(gate.get_register(name), 0)
            except KeyError:
                pass
        return words

    for cycle in range(cycles):
        state = {name: rtl.get(name) for name in register_names}
        gate_state = impl_state()
        vector = {
            sig.name: rng.randrange(1 << sig.width) for sig in input_sigs
        }
        rtl.set_many(vector)
        _drive(gate, widths, vector)
        for name in output_names:
            want, got = rtl.get(name), extract_lane(gate.get(name), 0)
            if want != got:
                mismatches.append(Mismatch(
                    cycle, name, want, got, dict(vector), state,
                    {} if gate_state == state else gate_state,
                ))
                if len(mismatches) >= MISMATCH_CAP:
                    return EquivalenceResult(
                        False, cycle + 1, mismatches, seed
                    )
        rtl.step()
        gate.step()
    return EquivalenceResult(not mismatches, cycles, mismatches, seed)


def _check_equivalence_packed(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    cycles: int,
    seed: int,
    tracer: Tracer,
    metrics: MetricsRegistry,
) -> EquivalenceResult | None:
    """The word-parallel fast accept; ``None`` means "run the lockstep loop".

    Lockstep equivalence is inherently sequential (each cycle's state
    depends on the last), so the packed pass *forces the trajectory*:
    the cheap RTL simulator replays the seeded stimulus once, recording
    per-cycle register states, input vectors and expected outputs; the
    implementation then verifies 64 cycles per packed evaluation — each
    lane loaded with one cycle's RTL state and inputs — comparing both
    the settled outputs and the next-state register values against the
    recorded trajectory.  With the implementation's reset state checked
    up front, agreement on every transition of the trajectory implies
    (by induction) that the lockstep run passes; any divergence returns
    ``None`` and the caller re-derives the exact mismatch records
    through the lockstep loop.
    """
    rtl = Simulator(module)
    impl = packed_simulator(implementation)

    register_names = [reg.signal.name for reg in rtl.module.registers]
    reg_widths = {
        reg.signal.name: reg.signal.width for reg in rtl.module.registers
    }
    # The trajectory argument needs the implementation's *entire* state
    # to be forced and checked through the RTL register words: every
    # flop must belong to a named RTL register word covering exactly
    # bits 0..width-1, every RTL input/output must exist.  Anything
    # else (hand-built or renamed netlists) takes the lockstep loop.
    words = impl.register_words()
    if set(words) != set(register_names):
        return None
    for name in register_names:
        if words[name] != list(range(reg_widths[name])):
            return None
    for sig in rtl.module.inputs:
        nets = implementation.inputs.get(sig.name)
        if nets is None or len(nets) != sig.width:
            return None
    out_widths = {}
    for sig in rtl.module.outputs:
        nets = implementation.outputs.get(sig.name)
        if nets is None:
            return None
        out_widths[sig.name] = max(sig.width, len(nets))
    for name in register_names:
        if extract_lane(impl.get_register(name), 0) != rtl.get(name):
            return None  # implementation wakes up in a different state

    started = time.perf_counter()
    with tracer.span(
        "sim.packed.equivalence", design=module.name, cycles=cycles
    ) as span:
        # Pass 1: the RTL simulator records the trajectory.  The rng
        # stream is drawn exactly as the lockstep loop draws it — per
        # cycle, per input signal in declaration order.
        rng = random.Random(seed)
        input_sigs = list(rtl.module.inputs)
        output_names = [sig.name for sig in rtl.module.outputs]
        vectors = [
            {
                sig.name: rng.randrange(1 << sig.width)
                for sig in input_sigs
            }
            for _ in range(cycles)
        ]
        states, expected = rtl.run_trajectory(vectors, output_names)

        # Pass 2: the implementation checks 64 trajectory cycles at once.
        clean = True
        for base in range(0, cycles, LANES):
            chunk = range(base, min(base + LANES, cycles))
            active = (1 << len(chunk)) - 1
            impl.load_state(
                {
                    name: pack_word(
                        [states[c][name] for c in chunk], reg_widths[name]
                    )
                    for name in register_names
                },
                settle=False,
            )
            impl.set_many({
                sig.name: pack_word(
                    [vectors[c][sig.name] for c in chunk], sig.width
                )
                for sig in input_sigs
            })
            for index, name in enumerate(output_names):
                got = impl.get(name)
                want = pack_word(
                    [expected[c][index] for c in chunk], out_widths[name]
                )
                got += [0] * (out_widths[name] - len(got))
                if any(
                    (g ^ w) & active for g, w in zip(got, want)
                ):
                    clean = False
                    break
            if not clean:
                break
            impl.step()
            for name in register_names:
                got = impl.get_register(name)
                want = pack_word(
                    [states[c + 1][name] for c in chunk], reg_widths[name]
                )
                if any(
                    (g ^ w) & active for g, w in zip(got, want)
                ):
                    clean = False
                    break
            if not clean:
                break
        if tracer.enabled:
            span.set(clean=clean, lanes=impl.lanes)

    elapsed = time.perf_counter() - started
    metrics.counter("sim.packed.vectors").inc(cycles)
    if elapsed > 0:
        metrics.histogram(
            "sim.packed.vectors_per_sec", buckets=_RATE_BUCKETS
        ).observe(cycles / elapsed)
    if not clean:
        # Some lane diverged: the lockstep loop re-derives the exact
        # Mismatch records (cycle, inputs, state, the implementation's
        # own evolved divergence snapshots).
        return None
    return EquivalenceResult(True, cycles, [], seed)


def replay_mismatch(
    module: Module,
    implementation: GateNetlist | MappedNetlist,
    mismatch: Mismatch,
) -> Mismatch | None:
    """Re-apply one recorded (or formally derived) failure directly.

    Loads the recorded register state into the RTL simulator and a
    one-lane engine, applies the input vector, and compares the failing
    output once — no random replay needed.  Returns a fresh
    :class:`Mismatch` if the divergence reproduces, ``None`` if it does
    not.
    """
    rtl = Simulator(module)
    gate = packed_simulator(implementation, lanes=1)
    if mismatch.state:
        rtl.load_state(mismatch.state)
        gate.load_state({
            name: pack_word([value], value.bit_length())
            for name, value in (mismatch.gate_state or mismatch.state).items()
        })
    widths = gate.input_widths()
    for name, value in mismatch.inputs.items():
        rtl.set(name, value)
        _drive(gate, widths, {name: value})
    want = rtl.get(mismatch.output)
    got = extract_lane(gate.get(mismatch.output), 0)
    if want == got:
        return None
    return Mismatch(
        0, mismatch.output, want, got, dict(mismatch.inputs),
        dict(mismatch.state),
    )
