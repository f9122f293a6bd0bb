"""Multi-corner timing analysis.

Real signoff never trusts one operating point: setup is checked where
silicon is slowest (SS process, low voltage, high temperature) and hold
where it is fastest (FF, high voltage, low temperature).  Corners here
are derate factors applied to the node's cell delay parameters — the
standard abstraction one level above SPICE.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..pdk.node import ProcessNode
from ..synth.mapped import MappedNetlist
from .engine import TimingAnalyzer, TimingReport


@dataclass(frozen=True)
class Corner:
    """One process/voltage/temperature corner as delay derates."""

    name: str
    delay_derate: float  # multiplies intrinsic delay and drive resistance
    wire_derate: float = 1.0  # multiplies wire RC

    def __post_init__(self):
        if self.delay_derate <= 0 or self.wire_derate <= 0:
            raise ValueError("derates must be positive")


#: The classic three-corner set.
SS = Corner("ss", delay_derate=1.20, wire_derate=1.10)
TT = Corner("tt", delay_derate=1.00, wire_derate=1.00)
FF = Corner("ff", delay_derate=0.85, wire_derate=0.95)
STANDARD_CORNERS = (SS, TT, FF)


def derated_node(node: ProcessNode, corner: Corner) -> ProcessNode:
    """A copy of ``node`` with the corner's derates applied."""
    return replace(
        node,
        name=f"{node.name}_{corner.name}",
        inv_intrinsic_ps=node.inv_intrinsic_ps * corner.delay_derate,
        inv_resistance_kohm=node.inv_resistance_kohm * corner.delay_derate,
        wire_res_ohm_per_um=node.wire_res_ohm_per_um * corner.wire_derate,
        wire_cap_ff_per_um=node.wire_cap_ff_per_um * corner.wire_derate,
    )


@dataclass
class MultiCornerReport:
    """Per-corner timing plus the signoff verdict."""

    reports: dict[str, TimingReport]
    setup_corner: str
    hold_corner: str

    @property
    def setup_report(self) -> TimingReport:
        return self.reports[self.setup_corner]

    @property
    def hold_report(self) -> TimingReport:
        return self.reports[self.hold_corner]

    @property
    def met(self) -> bool:
        """Setup at the slow corner AND hold at the fast corner."""
        return (
            self.setup_report.wns_ps >= 0
            and self.hold_report.worst_hold_slack_ps >= 0
        )

    @property
    def signoff_fmax_mhz(self) -> float:
        """Frequency limited by the worst setup corner."""
        return min(r.fmax_mhz for r in self.reports.values())

    def summary(self) -> str:
        rows = ", ".join(
            f"{name}: WNS {report.wns_ps:.1f} ps"
            for name, report in sorted(self.reports.items())
        )
        hold = self.hold_report.worst_hold_slack_ps
        status = "MET" if self.met else "VIOLATED"
        return (
            f"{status} across corners ({rows}; "
            f"hold slack {hold:.1f} ps at {self.hold_corner})"
        )


class CornerScaledAnalyzer(TimingAnalyzer):
    """Timing analyzer whose *cell* delays are scaled by a corner derate.

    Node wire parameters are handled by :func:`derated_node`; cell
    intrinsic/resistance values live in the library, so they are scaled
    at delay-computation time instead of by rebuilding the library.
    """

    def __init__(self, *args, cell_derate: float = 1.0, **kwargs):
        # Must be set before super().__init__: the base analyzer builds its
        # stage-delay table there, dispatching to _compute_stage_delay_ps.
        self.cell_derate = cell_derate
        super().__init__(*args, **kwargs)

    def _compute_stage_delay_ps(self, inst) -> float:
        base = super()._compute_stage_delay_ps(inst)
        return base * self.cell_derate


def multi_corner_analysis(
    mapped: MappedNetlist,
    node: ProcessNode,
    clock_period_ps: float,
    wire_lengths_um: dict[int, float] | None = None,
    skew_ps: dict[str, float] | None = None,
    corners: tuple[Corner, ...] = STANDARD_CORNERS,
) -> MultiCornerReport:
    """Run STA at every corner and aggregate the signoff verdict."""
    if not corners:
        raise ValueError("need at least one corner")
    reports: dict[str, TimingReport] = {}
    for corner in corners:
        analyzer = CornerScaledAnalyzer(
            mapped,
            derated_node(node, corner),
            wire_lengths_um=wire_lengths_um,
            skew_ps=skew_ps,
            cell_derate=corner.delay_derate,
        )
        reports[corner.name] = analyzer.analyze(clock_period_ps)
    setup_corner = max(corners, key=lambda c: c.delay_derate).name
    hold_corner = min(corners, key=lambda c: c.delay_derate).name
    return MultiCornerReport(
        reports=reports,
        setup_corner=setup_corner,
        hold_corner=hold_corner,
    )
