"""Tests of the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import math
import os
import sys
from dataclasses import dataclass, field

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import layer_of  # noqa: E402
from stats import (  # noqa: E402
    Tally,
    best_per_position,
    fold_layers,
    geomean,
    quartile_spread,
    self_times,
    tail,
)


@dataclass
class FakeSpan:
    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    attributes: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class TestTail:
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        t = tail(values)
        assert t["value"] == 90
        assert sum(v > t["value"] for v in values) == 10
        assert t["percentile"] == 90.0
        assert t["samples"] == 100

    def test_ignores_input_order(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0, 12.0]
        assert tail(values) == tail(sorted(values))
        # 12 samples: the 2nd smallest leaves ten above it.
        assert tail(values)["value"] == 2.0
        assert tail(values)["percentile"] == pytest.approx(100 * 2 / 12, abs=1e-3)

    def test_too_few_samples_have_no_tail(self):
        assert tail(list(range(10))) is None
        assert tail([]) is None
        assert tail(list(range(11)))["value"] == 0

    def test_ties_still_leave_ten_beyond_by_rank(self):
        values = [1.0] * 5 + [2.0] * 10
        t = tail(values)
        assert t["value"] == 1.0 and t["samples"] == 15


class TestGeomean:
    def test_weighs_each_value_equally(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)
        assert geomean([0.01, 1.0, 100.0]) == pytest.approx(1.0)

    def test_a_small_value_moves_it_as_much_as_a_large_one(self):
        halved_small = [0.025, 0.1, 20.0]
        halved_large = [0.05, 0.1, 10.0]
        assert geomean(halved_small) == pytest.approx(geomean(halved_large))

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])


class TestTally:
    def test_fail_share_counts_failures_against_attempts(self):
        tally = Tally()
        tally.record(True, "a")
        tally.record(False, "b fell back")
        tally.record(True, "c")
        tally.record(False, "d mismatched")
        assert tally.attempted == 4
        assert tally.failed == 2
        assert tally.failures == ["b fell back", "d mismatched"]
        assert tally.fail_share == 0.5
        assert tally.ok_share == 0.5

    def test_nothing_attempted_is_not_a_failure(self):
        tally = Tally()
        assert tally.fail_share == 0.0 and tally.ok_share == 1.0

    def test_record_returns_the_verdict(self):
        tally = Tally()
        assert tally.record(True, "x") is True
        assert tally.record(False, "y") is False


class TestFold:
    def spans(self):
        # root [0,10) -> synth [1,4) -> sim [2,3)
        #             -> route [5,9) -> unnamed child [6,8)
        return [
            FakeSpan(3, 2, "sim.packed.equivalence", 2.0, 3.0),
            FakeSpan(2, 1, "bench:synth", 1.0, 4.0),
            FakeSpan(5, 4, "route.rip_up", 6.0, 8.0),
            FakeSpan(4, 1, "bench:pnr.route", 5.0, 9.0),
            FakeSpan(1, None, "flow", 0.0, 10.0),
        ]

    def test_self_time_subtracts_direct_children(self):
        own = self_times(self.spans())
        assert own == {3: 1.0, 2: 2.0, 5: 2.0, 4: 2.0, 1: 3.0}

    def test_layers_partition_the_traced_wall_time(self):
        layers = fold_layers(self.spans(), layer_of)
        assert layers == {
            "sim.equiv": 1.0,
            "synth": 2.0,
            "pnr.route": 4.0,  # the unnamed rip-up span inherits
            "other": 3.0,
        }
        assert sum(layers.values()) == pytest.approx(10.0)

    def test_orphan_spans_are_roots(self):
        spans = [FakeSpan(7, 99, "drc.flatten", 0.0, 0.5)]
        assert fold_layers(spans, layer_of) == {"layout.drc": 0.5}

    def test_benchmark_spans_name_their_layer(self):
        assert layer_of("bench:store.read") == "store.read"
        assert layer_of("step.design_rule_check") == "layout.build"
        assert layer_of("lint.rule.rtl.comb-loop") == "lint"
        assert layer_of("route.rip_up") is None


class TestBestPerPosition:
    def test_takes_each_position_minimum(self):
        rounds = [[1.0, 5.0, 3.0], [2.0, 4.0, 3.5], [1.5, 6.0, 2.5]]
        assert best_per_position(rounds) == [1.0, 4.0, 2.5]

    def test_one_round_is_itself(self):
        assert best_per_position([[0.3, 0.1]]) == [0.3, 0.1]

    def test_rejects_ragged_or_empty_rounds(self):
        with pytest.raises(ValueError):
            best_per_position([[1.0, 2.0], [1.0]])
        with pytest.raises(ValueError):
            best_per_position([])


def test_quartile_spread_is_a_share_of_the_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    assert quartile_spread(values) == pytest.approx(0.1)
    assert math.isinf(quartile_spread([0.0, 0.0, 0.0]))
