"""Pure helpers of the benchmark: summaries, failure accounting, span fold.

Nothing here imports ``repro``; the tests in ``perfbench/tests`` pin
each helper on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def geomean(values) -> float:
    """Geometric mean of positive values; each value weighs the same."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no samples")
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values, beyond: int = TAIL_BEYOND) -> dict | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``{"value", "percentile", "samples"}``: the sample with
    exactly ``beyond`` larger samples above it, and its nearest-rank
    percentile.  With ``beyond`` or fewer samples no percentile
    qualifies and the result is ``None``.
    """
    ranked = sorted(values)
    n = len(ranked)
    if n <= beyond:
        return None
    rank = n - beyond  # 1-based rank of the tail sample
    return {
        "value": float(ranked[rank - 1]),
        "percentile": round(100.0 * rank / n, 3),
        "samples": n,
    }


def best_per_position(rounds) -> list[float]:
    """Element-wise minimum over rounds of equally long sample lists."""
    rounds = [list(r) for r in rounds]
    if not rounds or any(len(r) != len(rounds[0]) for r in rounds):
        raise ValueError("rounds must be non-empty and equally long")
    return [min(column) for column in zip(*rounds)]


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else math.inf


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    An operation fails if it raised, if a proof (LEC, LVS) did not come
    out clean, if an edit fell back to a full rebuild, or if an output
    differed from its independent reference.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def ok_share(self) -> float:
        return 1.0 - self.fail_share


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    child_time: dict[int, float] = {}
    ids = {span.span_id for span in spans}
    for span in spans:
        if span.parent_id is not None and span.parent_id in ids:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration_s
            )
    return {
        span.span_id: max(0.0, span.duration_s - child_time.get(span.span_id, 0.0))
        for span in spans
    }


def fold_layers(spans, layer_of) -> dict[str, float]:
    """Sum span self times per layer.

    ``layer_of(name)`` names the layer a span belongs to, or ``None``;
    a span without a layer of its own belongs to its nearest ancestor's
    layer, and spans with no layer anywhere above them fold into
    ``"other"``.  Since self times partition the traced wall time, the
    layers sum to it.
    """
    by_id = {span.span_id: span for span in spans}
    own = self_times(spans)
    memo: dict[int, str] = {}

    def layer(span) -> str:
        chain = []
        found = None
        while span is not None:
            if span.span_id in memo:
                found = memo[span.span_id]
                break
            chain.append(span.span_id)
            name = layer_of(span.name)
            if name is not None:
                found = name
                break
            span = by_id.get(span.parent_id)
        found = found or "other"
        for span_id in chain:
            memo[span_id] = found
        return found

    totals: dict[str, float] = {}
    for span in spans:
        key = layer(span)
        totals[key] = totals.get(key, 0.0) + own[span.span_id]
    return totals
