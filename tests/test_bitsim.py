"""Tests for the word-parallel bit-packed simulators.

The packed engines (:mod:`repro.sim.bitsim`) are the only gate-level
simulators, so every answer they produce is checked against an
independent reference:

* packing round-trips (property tests over widths 1-64);
* lockstep differential runs — packed lanes vs the RTL interpreter
  :class:`repro.sim.Simulator` per lane, outputs and register state,
  over catalogue designs and randomly generated modules, plus an
  exhaustive truth table of every standard cell's packed function
  against the cell's own scalar ``function``;
* end-to-end result equality — ``check_equivalence`` JSON, mismatch
  replay and batched LEC replay verdicts must match, byte for byte,
  the golden results the scalar lockstep engines produced
  (``tests/data/equivalence_golden.json``), for passing designs,
  seeded must-fail mutants and hand-built netlists.
"""

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formal import (
    Counterexample,
    check_lec,
    mutate_netlist,
    replay_counterexample,
    replay_counterexamples,
)
from repro.hdl import ModuleBuilder, mux
from repro.ip.catalog import catalogue, generate
from repro.pdk import get_pdk
from repro.pdk.pdks import list_pdks
from repro.sim import Simulator
from repro.sim.bitsim import (
    LANES,
    PackedGateSimulator,
    PackedMappedSimulator,
    PackedSimError,
    broadcast_word,
    extract_lane,
    extract_lane_vector,
    pack_word,
    packed_cell_function,
    unpack_word,
)
from repro.synth import (
    check_equivalence,
    lower,
    optimize,
    synthesize,
)
from repro.synth.netlist import Gate, GateNetlist
from repro.synth.verify import Mismatch, replay_mismatch


@pytest.fixture(scope="module")
def library():
    return get_pdk("edu130").library


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------


class TestPackingRoundTrip:
    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.integers(min_value=0, max_value=2 ** width - 1),
                    min_size=1,
                    max_size=LANES,
                ),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_extract_lane_round_trips_pack(self, width_and_values):
        width, values = width_and_values
        words = pack_word(values, width)
        assert len(words) == width
        for lane, value in enumerate(values):
            assert extract_lane(words, lane) == value
        # Lanes beyond the packed vectors read as zero.
        assert unpack_word(words)[len(values):] == [0] * (
            LANES - len(values)
        )

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=2 ** 64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_broadcast_is_pack_of_identical_lanes(self, width, value):
        value &= (1 << width) - 1
        assert broadcast_word(value, width) == pack_word(
            [value] * LANES, width
        )

    def test_pack_rejects_too_many_lanes(self):
        with pytest.raises(PackedSimError):
            pack_word([0] * (LANES + 1), 4)

    def test_extract_lane_vector_localizes_mismatch(self):
        packed = {"a": pack_word([3, 5, 9], 4), "b": pack_word([1, 0, 7], 3)}
        assert extract_lane_vector(packed, 1) == {"a": 5, "b": 0}


# ---------------------------------------------------------------------------
# Lockstep differential: packed lanes vs the RTL simulator
# ---------------------------------------------------------------------------


def random_stimulus(module, rng, cycles, lanes):
    """Per-cycle packed stimulus plus the per-lane scalar views."""
    widths = {signal.name: signal.width for signal in module.inputs}
    packed, scalar = [], []
    for _ in range(cycles):
        lane_vectors = [
            {name: rng.getrandbits(width) for name, width in widths.items()}
            for _ in range(lanes)
        ]
        packed.append({
            name: pack_word([v[name] for v in lane_vectors], width)
            for name, width in widths.items()
        })
        scalar.append(lane_vectors)
    return packed, scalar


def run_differential(module, packed_sim, scalar_sims, rng, cycles=16):
    """Drive packed and scalar sims in lockstep, compare everything."""
    lanes = len(scalar_sims)
    packed_stim, scalar_stim = random_stimulus(module, rng, cycles, lanes)
    watch = [signal.name for signal in module.outputs]
    for cycle in range(cycles):
        packed_sim.set_many(packed_stim[cycle])
        for lane, sim in enumerate(scalar_sims):
            sim.set_many(scalar_stim[cycle][lane])
        for name in watch:
            got = packed_sim.get(name)
            for lane, sim in enumerate(scalar_sims):
                assert extract_lane(got, lane) == sim.get(name), (
                    f"{name} diverged at cycle {cycle} lane {lane}"
                )
        packed_sim.step()
        for sim in scalar_sims:
            sim.step()
    for name in packed_sim.register_words():
        packed_value = packed_sim.get_register(name)
        for lane, sim in enumerate(scalar_sims):
            assert extract_lane(packed_value, lane) == sim.get_register(name)


DIFF_DESIGNS = ("counter", "gray_counter", "lfsr", "alu", "uart_tx")


class TestLockstepDifferential:
    """Every packed lane against its own RTL interpreter."""

    @pytest.mark.parametrize("name", DIFF_DESIGNS)
    def test_packed_rtl_matches_scalar_simulator(self, name):
        """The lowered RTL, packed, cross-checks lowering too."""
        module = generate(name).module
        rng = random.Random(7)
        packed = PackedGateSimulator(lower(module))
        scalars = [Simulator(module) for _ in range(8)]
        run_differential(module, packed, scalars, rng)

    @pytest.mark.parametrize("name", DIFF_DESIGNS)
    def test_packed_gate_matches_scalar_gate(self, name):
        """The optimized gate netlist, packed, per lane."""
        module = generate(name).module
        netlist, _ = optimize(lower(module))
        rng = random.Random(11)
        packed = PackedGateSimulator(netlist)
        scalars = [Simulator(module) for _ in range(8)]
        run_differential(module, packed, scalars, rng)

    @pytest.mark.parametrize("name", DIFF_DESIGNS)
    def test_packed_mapped_matches_scalar_mapped(self, name, library):
        """The mapped standard cells, packed, per lane."""
        module = generate(name).module
        mapped = synthesize(module, library, verify=False).mapped
        rng = random.Random(13)
        packed = PackedMappedSimulator(mapped)
        scalars = [Simulator(module) for _ in range(8)]
        run_differential(module, packed, scalars, rng)

    def test_random_modules_differential(self, library):
        """Randomly generated datapaths, gate and mapped layers."""
        for seed in range(6):
            module = build_random_module(seed)
            rng = random.Random(seed + 100)
            packed = PackedGateSimulator(lower(module))
            scalars = [Simulator(module) for _ in range(4)]
            run_differential(module, packed, scalars, rng, cycles=8)
            mapped = synthesize(module, library, verify=False).mapped
            rng = random.Random(seed + 200)
            packed = PackedMappedSimulator(mapped)
            scalars = [Simulator(module) for _ in range(4)]
            run_differential(module, packed, scalars, rng, cycles=8)

    def test_partial_lane_counts(self, library):
        module = generate("counter").module
        for netlist, engine in (
            (lower(module), PackedGateSimulator),
            (synthesize(module, library, verify=False).mapped,
             PackedMappedSimulator),
        ):
            for lanes in (1, 3):
                packed = engine(netlist, lanes=lanes)
                scalars = [Simulator(module) for _ in range(lanes)]
                run_differential(
                    module, packed, scalars, random.Random(3), cycles=6
                )

    def test_load_state_round_trip(self):
        module = generate("counter").module
        packed = PackedGateSimulator(lower(module))
        values = [i * 5 % 256 for i in range(LANES)]
        packed.load_state({"count": pack_word(values, 8)})
        assert unpack_word(packed.get_register("count")) == values

    def test_lane_count_bounds(self):
        module = generate("counter").module
        for lanes in (0, LANES + 1):
            with pytest.raises(PackedSimError):
                PackedGateSimulator(lower(module), lanes=lanes)


class TestCellFunctions:
    """The mapped engine's reference: each cell's own scalar function."""

    @pytest.mark.parametrize("pdk", list_pdks())
    def test_packed_function_matches_truth_table(self, pdk):
        checked = set()
        for cell in get_pdk(pdk).library.cells.values():
            if cell.is_sequential:
                continue
            # Lane l carries input combination l, so one packed call
            # evaluates the whole truth table.
            arity = len(cell.inputs)
            rows = 1 << arity
            mask = (1 << rows) - 1
            words = [
                pack_word([row >> pin & 1 for row in range(rows)], 1)[0]
                for pin in range(arity)
            ]
            for fn in (
                packed_cell_function(cell, mask),
                # A kind without a closed form takes the per-lane path.
                packed_cell_function(
                    dataclasses.replace(cell, kind="CUSTOM"), mask
                ),
            ):
                out = fn(*words)
                for row in range(rows):
                    bits = [row >> pin & 1 for pin in range(arity)]
                    assert (out >> row) & 1 == cell.function(*bits), (
                        f"{cell.name} row {row:0{max(arity, 1)}b}"
                    )
            checked.add(cell.kind)
        assert {"INV", "NAND2", "AOI21", "MUX2", "TIE1"} <= checked


def build_random_module(seed):
    """A random small datapath: registers, muxes, arithmetic, slicing."""
    rng = random.Random(seed)
    b = ModuleBuilder(f"rand{seed}")
    width = rng.choice((3, 5, 8))
    a = b.input("a", width)
    c = b.input("c", width)
    sel = b.input("sel", 1)
    acc = b.register("acc", width)
    shift = b.register("shift", width)
    combine = rng.choice((
        lambda x, y: (x + y).trunc(width),
        lambda x, y: x ^ y,
        lambda x, y: (x & y) | (x ^ y),
    ))
    acc.next = mux(sel, combine(acc, a), acc)
    shift.next = combine(shift, c) ^ a
    b.output("y", combine(acc, shift))
    b.output("msb", acc[width - 1])
    return b.build()


# ---------------------------------------------------------------------------
# End to end: check_equivalence must not change its answers
# ---------------------------------------------------------------------------


#: Results captured from the scalar lockstep engines before they were
#: retired: ``EquivalenceResult.to_json()`` for every catalogue design
#: (lowered and mapped), seeded ``mutate_netlist`` mutants of counter,
#: alu, pwm and uart_tx with their LEC witnesses (whole and with only
#: some registers and inputs named) and replay verdicts, and hand-built
#: netlists whose flops carry no register names.
GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "equivalence_golden.json").read_text()
)


def golden_impl(module, kind, library):
    if kind == "lower":
        return lower(module)
    return synthesize(module, library, verify=False).mapped


def golden_mutants(library):
    """``(key, module, base, mutant, record)`` for every golden mutant."""
    bases = {}
    for key, record in GOLDEN["mutants"].items():
        name, kind, seed = key.split("/")
        if (name, kind) not in bases:
            module = generate(name).module
            bases[name, kind] = module, golden_impl(module, kind, library)
        module, base = bases[name, kind]
        mutant, description = mutate_netlist(base, seed=int(seed))
        assert description == record["description"], key
        yield key, module, base, mutant, record


def counter4():
    b = ModuleBuilder("counter4")
    en = b.input("en", 1)
    count = b.register("count", 4)
    count.next = mux(en, (count + 1).trunc(4), count)
    b.output("q", count)
    return b.build()


def handbuilt_counter4(carry_op="AND"):
    """A 4-bit counter whose flops have no register names.

    ``carry_op="OR"`` breaks the carry out of bit 1.
    """
    n = GateNetlist("counter4_hand")
    (en,) = n.add_input("en", 1)
    d_nets = [n.new_net() for _ in range(4)]
    qs = [n.add_dff(d) for d in d_nets]
    carry = en
    for i, q in enumerate(qs):
        total = n.add_gate("XOR", q, carry)
        n.gates.append(Gate("BUF", (total,), d_nets[i]))
        carry = n.add_gate(carry_op if i == 1 else "AND", q, carry)
    n.set_output("q", qs)
    return n


def golden_check(module, impl):
    return check_equivalence(
        module, impl, cycles=GOLDEN["cycles"], seed=GOLDEN["seed"]
    ).to_json()


class TestEquivalenceEngines:
    @pytest.mark.parametrize("name", catalogue())
    def test_passing_results_byte_identical(self, name, library):
        block = generate(name)
        for kind in ("lower", "mapped"):
            impl = golden_impl(block.module, kind, library)
            result = golden_check(block.module, impl)
            assert json.loads(result)["passed"]
            assert result == GOLDEN["equivalence"][f"{block.name}/{kind}"]

    def test_mutated_netlists_byte_identical(self, library):
        """Must-fail path: mismatch records match field for field."""
        failing = capped = 0
        for key, module, _, mutant, record in golden_mutants(library):
            result = check_equivalence(
                module, mutant, cycles=GOLDEN["cycles"], seed=GOLDEN["seed"]
            )
            assert result.to_json() == record["result"], key
            if not result.passed:
                failing += 1
                assert result.mismatches
            capped += len(result.mismatches) == result.mismatch_cap
            replays = [
                replay_mismatch(module, mutant, m) for m in result.mismatches
            ]
            assert [
                None if r is None else r.to_dict() for r in replays
            ] == record["replay_mismatch"], key
        assert failing, "no mutation produced a detectable mismatch"
        assert capped, "no mutation reached the mismatch cap"

    def test_unnamed_flops_take_the_lockstep_loop(self, library):
        """Netlists whose state the RTL registers cannot force."""
        module = counter4()
        golden = GOLDEN["handbuilt"]
        assert golden_check(module, handbuilt_counter4()) == golden["gate"]
        assert (
            golden_check(module, handbuilt_counter4("OR"))
            == golden["gate_broken"]
        )
        mapped = synthesize(module, library, verify=False).mapped
        for inst in mapped.seq_cells:
            inst.tag = ""
        assert golden_check(module, mapped) == golden["mapped_untagged"]
        mutant, _ = mutate_netlist(mapped, seed=1)
        assert (
            golden_check(module, mutant) == golden["mapped_untagged_mutant"]
        )

    def test_unknown_engine_rejected(self, library):
        """There is one engine: ``check_equivalence`` takes no knob."""
        module = generate("counter").module
        with pytest.raises(TypeError):
            check_equivalence(module, lower(module), engine="simd")

    def test_result_json_records_mismatch_cap(self, library):
        module = generate("counter").module
        result = check_equivalence(module, lower(module), cycles=16)
        parsed = type(result).from_json(result.to_json())
        assert parsed.mismatch_cap == result.mismatch_cap == 10


# ---------------------------------------------------------------------------
# Batched LEC replay vs the golden scalar verdicts
# ---------------------------------------------------------------------------


def verdicts(mismatches):
    return [
        None if m is None
        else {"output": m.output, "expect": m.expect, "got": m.got}
        for m in mismatches
    ]


class TestBatchedReplay:
    def test_batch_matches_scalar_witness_by_witness(self, library):
        checked = 0
        for key, module, base, mutant, record in golden_mutants(library):
            cexes = [Counterexample.from_dict(w) for w in record["witnesses"]]
            if not cexes:
                continue
            for impl, golden in (
                (mutant, record["replay"]), (base, record["replay_base"])
            ):
                assert verdicts(
                    replay_counterexamples(module, impl, cexes)
                ) == golden, key
                # One witness per lane: a tiled batch repeats the verdicts.
                assert verdicts(
                    replay_counterexamples(module, impl, cexes * 5)
                ) == golden * 5, key
                assert verdicts(
                    [replay_counterexample(module, impl, cexes[0])]
                ) == golden[:1], key
            # Witnesses naming only some registers and inputs replay
            # from reset values and zero inputs, lane by lane.
            partials = [
                Counterexample.from_dict(w)
                for w in record["partial_witnesses"]
            ]
            mixed = [c for pair in zip(cexes, partials) for c in pair]
            want = [
                v for pair in zip(record["replay"], record["partial_replay"])
                for v in pair
            ]
            assert verdicts(
                replay_counterexamples(module, mutant, mixed)
            ) == want, key
            checked += len(cexes)
        assert checked, "no mutation yielded replayable counterexamples"

    def test_reset_kind_rejected(self, library):
        module = generate("counter").module
        mapped = synthesize(module, library, verify=False).mapped
        mutant, _ = mutate_netlist(mapped, seed=0)
        result = check_lec(module, mutant)
        if result.equivalent or not result.counterexamples:
            pytest.skip("seed 0 mutation was benign")
        cex = result.counterexamples[0]
        fake = type(cex)(
            cone=cex.cone, kind="reset", inputs=cex.inputs,
            state=cex.state, expect=cex.expect, got=cex.got,
        )
        with pytest.raises(ValueError):
            replay_counterexamples(module, mutant, [fake])


# ---------------------------------------------------------------------------
# Malformed input fails the same way on every path
# ---------------------------------------------------------------------------


class TestMalformedInput:
    def test_narrow_impl_port_rejected(self, library):
        module = generate("alu").module
        gate = lower(module)
        gate.inputs["a"] = gate.inputs["a"][:7]
        with pytest.raises(ValueError, match="'a'"):
            check_equivalence(module, gate)
        mapped = synthesize(module, library, verify=False).mapped
        mapped.set_port("input", "a", mapped.inputs["a"][:7])
        with pytest.raises(ValueError, match="'a'"):
            check_equivalence(module, mapped)
        mismatch = Mismatch(0, "y", 0, 0, {"a": 200, "b": 1, "op": 0})
        with pytest.raises(ValueError, match="'a'"):
            replay_mismatch(module, mapped, mismatch)

    @pytest.mark.parametrize("copies", (1, 5))
    def test_narrow_impl_port_rejected_in_replay(self, copies):
        module = generate("alu").module
        gate = lower(module)
        gate.inputs["a"] = gate.inputs["a"][:7]
        cex = Counterexample("y", "output", {"a": 200, "b": 1, "op": 0})
        with pytest.raises(ValueError, match="'a'"):
            replay_counterexamples(module, gate, [cex] * copies)

    @pytest.mark.parametrize("copies", (1, 5))
    def test_unknown_register_in_witness(self, copies):
        module = generate("counter").module
        cex = Counterexample("q", "output", {}, {"bogus": 1})
        with pytest.raises(KeyError, match="bogus"):
            replay_counterexamples(module, lower(module), [cex] * copies)

    @pytest.mark.parametrize("copies", (1, 5))
    def test_unknown_input_in_witness(self, copies):
        module = generate("counter").module
        cex = Counterexample("q", "output", {"nope": 1}, {})
        with pytest.raises(KeyError, match="nope"):
            replay_counterexamples(module, lower(module), [cex] * copies)

    def test_unknown_register_in_mismatch_replay(self):
        module = generate("counter").module
        with pytest.raises(KeyError, match="bogus"):
            replay_mismatch(
                module, lower(module), Mismatch(0, "q", 0, 0, {}, {"bogus": 1})
            )
        # Flops without register names cannot take a register state.
        with pytest.raises(KeyError, match="count"):
            replay_mismatch(
                counter4(), handbuilt_counter4(),
                Mismatch(0, "q", 0, 0, {"en": 1}, {"count": 3}),
            )
