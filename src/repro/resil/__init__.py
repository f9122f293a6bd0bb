"""repro.resil — fault tolerance for the enablement platform.

Real shared university compute (the paper's Recommendation 7
infrastructure) has preempted jobs, failed nodes and course deadlines.
This package is the robustness layer threaded through the cloud
simulator and the flow runner:

* :mod:`~repro.resil.faults` — seeded :class:`FaultModel` (MTBF/MTTR,
  preemption, transient vs fatal) for the discrete-event simulator, and
  the deterministic :class:`FaultInjector` drill for flow stages;
* :mod:`~repro.resil.retry` — pluggable :class:`RetryPolicy` with
  :class:`ExponentialBackoff` (jitter, caps, deadline-aware give-up),
  budgeted in simulated minutes;
* :mod:`~repro.resil.store` — the one content-addressed blob store:
  per-stage flow checkpoints so a retried or resumed flow skips
  completed stages, and memoized whole-flow results;
* :mod:`~repro.resil.failure` — structured :class:`FlowFailure` records
  for graceful degradation and the :class:`InjectedFault` drill
  exception.

Nothing here imports :mod:`repro.core`; the core engines import this
package, never the other way around.
"""

from .cachekey import canonical, flow_cache_key
from .failure import FAILURE_KINDS, FlowFailure, InjectedFault
from .faults import FaultInjector, FaultModel, FaultSampler
from .retry import ExponentialBackoff, RetryPolicy
from .store import (
    CHECKPOINT_STAGES,
    BlobStore,
    DirectoryBlobStore,
    MemoryBlobStore,
    StageCheckpointer,
)

__all__ = [
    "BlobStore",
    "CHECKPOINT_STAGES",
    "DirectoryBlobStore",
    "ExponentialBackoff",
    "FAILURE_KINDS",
    "FaultInjector",
    "FaultModel",
    "FaultSampler",
    "FlowFailure",
    "InjectedFault",
    "MemoryBlobStore",
    "RetryPolicy",
    "StageCheckpointer",
    "canonical",
    "flow_cache_key",
]
