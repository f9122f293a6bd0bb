"""Tests for multi-corner STA and the tapeout signoff checklist."""

import pytest

from repro.core import OPEN, FlowOptions, run_flow
from repro.core.signoff import run_signoff
from repro.hdl import ModuleBuilder, mux
from repro.pdk import get_pdk
from repro.sta.corners import (
    FF,
    SS,
    TT,
    Corner,
    derated_node,
    multi_corner_analysis,
)
from repro.synth import synthesize


@pytest.fixture(scope="module")
def datapath_mapped():
    b = ModuleBuilder("dp")
    a = b.input("a", 8)
    c = b.input("c", 8)
    acc = b.register("acc", 16)
    acc.next = (acc + a * c).trunc(16)
    b.output("y", acc)
    return synthesize(b.build(), get_pdk("edu130").library).mapped


@pytest.fixture(scope="module")
def counter_flow():
    b = ModuleBuilder("snf")
    en = b.input("en", 1)
    count = b.register("count", 6)
    count.next = mux(en, count + 1, count)
    b.output("q", count)
    return run_flow(b.build(), get_pdk("edu130"),
                    FlowOptions(preset=OPEN, clock_period_ps=5_000.0))


class TestCorners:
    def test_derates_ordering(self, datapath_mapped):
        report = multi_corner_analysis(
            datapath_mapped, get_pdk("edu130").node, 5_000.0
        )
        # SS is slower than TT is slower than FF.
        assert (report.reports["ss"].wns_ps
                < report.reports["tt"].wns_ps
                < report.reports["ff"].wns_ps)

    def test_setup_and_hold_corner_selection(self, datapath_mapped):
        report = multi_corner_analysis(
            datapath_mapped, get_pdk("edu130").node, 5_000.0
        )
        assert report.setup_corner == "ss"
        assert report.hold_corner == "ff"
        assert report.signoff_fmax_mhz == min(
            r.fmax_mhz for r in report.reports.values()
        )

    def test_met_requires_slow_corner(self, datapath_mapped):
        node = get_pdk("edu130").node
        # Pick a period that passes at TT but fails at SS.
        from repro.sta import TimingAnalyzer

        tt_min = TimingAnalyzer(datapath_mapped, node).minimum_period_ps()
        period = tt_min * 1.05  # 5% margin: not enough for a 20% derate
        report = multi_corner_analysis(datapath_mapped, node, period)
        assert report.reports["tt"].wns_ps >= 0
        assert not report.met
        assert "VIOLATED" in report.summary()

    def test_summary_names_hold_slack(self, datapath_mapped):
        node = get_pdk("edu130").node
        report = multi_corner_analysis(datapath_mapped, node, 50_000.0)
        assert report.met
        hold = report.hold_report
        assert f"hold slack {hold.worst_hold_slack_ps:.1f} ps at ff" in (
            report.summary()
        )
        # A hold-only failure: every setup WNS positive, the verdict
        # must show why it is VIOLATED.
        hold.worst_hold_slack_ps = -9.5
        assert all(r.wns_ps > 0 for r in report.reports.values())
        summary = report.summary()
        assert summary.startswith("VIOLATED")
        assert "hold slack -9.5 ps at ff" in summary

    def test_derated_node_values(self):
        node = get_pdk("edu130").node
        slow = derated_node(node, SS)
        fast = derated_node(node, FF)
        assert slow.inv_intrinsic_ps > node.inv_intrinsic_ps > fast.inv_intrinsic_ps
        assert slow.name.endswith("_ss")

    def test_custom_corner_validation(self):
        with pytest.raises(ValueError):
            Corner("bad", delay_derate=0.0)
        with pytest.raises(ValueError):
            multi_corner_analysis(None, None, 1.0, corners=())

    def test_tt_matches_plain_sta(self, datapath_mapped):
        from repro.sta import TimingAnalyzer

        node = get_pdk("edu130").node
        plain = TimingAnalyzer(datapath_mapped, node).analyze(5_000.0)
        report = multi_corner_analysis(
            datapath_mapped, node, 5_000.0, corners=(TT,)
        )
        assert report.reports["tt"].wns_ps == pytest.approx(
            plain.wns_ps, abs=1e-6
        )


class TestSignoff:
    def test_clean_flow_is_ready(self, counter_flow):
        report = run_signoff(counter_flow)
        assert report.ready_for_tapeout, report.summary()
        assert "READY" in report.summary()
        names = {item.name for item in report.items}
        assert {"logic_equivalence", "drc_clean", "setup_timing",
                "multi_corner_timing", "gds_generated"} <= names

    def test_timing_failure_blocks(self):
        b = ModuleBuilder("fast")
        a = b.input("a", 8)
        c = b.input("c", 8)
        acc = b.register("acc", 16)
        acc.next = (acc + a * c).trunc(16)
        b.output("y", acc)
        result = run_flow(
            b.build(), get_pdk("edu130"),
            FlowOptions(preset=OPEN, clock_period_ps=100.0,
                        strict_drc=False),
        )
        report = run_signoff(result)
        assert not report.ready_for_tapeout
        failing = {item.name for item in report.failures}
        assert "setup_timing" in failing

    def test_waiver_unblocks_waivable_item(self):
        b = ModuleBuilder("fast2")
        a = b.input("a", 8)
        c = b.input("c", 8)
        acc = b.register("acc", 16)
        acc.next = (acc + a * c).trunc(16)
        b.output("y", acc)
        result = run_flow(
            b.build(), get_pdk("edu130"),
            FlowOptions(preset=OPEN, clock_period_ps=100.0,
                        strict_drc=False),
        )
        report = run_signoff(
            result,
            waivers={"setup_timing", "multi_corner_timing"},
        )
        assert report.ready_for_tapeout

    def test_die_budget_check(self, counter_flow):
        generous = run_signoff(counter_flow, max_die_area_mm2=10.0,
                               check_corners=False)
        assert generous.ready_for_tapeout
        tight = run_signoff(counter_flow, max_die_area_mm2=1e-9,
                            check_corners=False)
        assert not tight.ready_for_tapeout
        assert any(i.name == "die_area_budget" for i in tight.failures)

    def test_equivalence_cannot_be_waived(self, counter_flow):
        # Forge a failing equivalence and try to waive it.
        class Fake:
            passed = False
            mismatches = []

        original = counter_flow.synthesis.equivalence
        counter_flow.synthesis.equivalence = Fake()
        try:
            report = run_signoff(counter_flow, waivers={"logic_equivalence"},
                                 check_corners=False)
            assert not report.ready_for_tapeout
            assert report.unwaivable_failures
        finally:
            counter_flow.synthesis.equivalence = original


class TestSignoffLint:
    def test_lint_clean_item_present_and_passing(self, counter_flow):
        report = run_signoff(counter_flow, check_corners=False)
        items = {item.name: item for item in report.items}
        assert "lint_clean" in items
        assert items["lint_clean"].passed
        assert "0 errors" in items["lint_clean"].detail

    def test_unwaived_lint_failure_blocks_signoff(self, counter_flow):
        from repro.lint import Finding, LintReport

        original = counter_flow.lint
        counter_flow.lint = LintReport(findings=[
            Finding("rtl.undriven", "error", "snf", "q", "forged")
        ])
        try:
            report = run_signoff(counter_flow, check_corners=False)
            assert not report.ready_for_tapeout
            assert any(i.name == "lint_clean" for i in report.failures)
        finally:
            counter_flow.lint = original

    def test_waived_lint_failure_passes_signoff(self, counter_flow):
        from repro.lint import Finding, LintReport

        original = counter_flow.lint
        counter_flow.lint = LintReport(findings=[
            Finding("rtl.undriven", "error", "snf", "q", "forged")
        ])
        try:
            report = run_signoff(counter_flow, waivers={"lint_clean"},
                                 check_corners=False)
            assert report.ready_for_tapeout
            assert not report.failures
        finally:
            counter_flow.lint = original

    def test_lint_waiver_inside_report_also_passes(self, counter_flow):
        # Waiving the finding itself (lint-level waiver) rather than the
        # checklist item (signoff-level waiver) also restores readiness.
        from repro.lint import Finding, LintReport, Waiver

        original = counter_flow.lint
        counter_flow.lint = LintReport(
            findings=[
                Finding("rtl.undriven", "error", "snf", "q", "forged")
            ],
            waivers=(Waiver("rtl.undriven", reason="accepted"),),
        )
        try:
            report = run_signoff(counter_flow, check_corners=False)
            items = {item.name: item for item in report.items}
            assert items["lint_clean"].passed
            assert report.ready_for_tapeout
        finally:
            counter_flow.lint = original

    def test_signoff_lints_on_demand_when_flow_skipped_it(self, counter_flow):
        original = counter_flow.lint
        counter_flow.lint = None
        try:
            report = run_signoff(counter_flow, check_corners=False)
            items = {item.name: item for item in report.items}
            assert items["lint_clean"].passed
        finally:
            counter_flow.lint = original
