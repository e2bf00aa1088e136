"""The paper's primary contribution: the unified SVM framework.

Components map one-to-one onto §3 of the vSoC paper:

* :mod:`~repro.core.manager` — the SVM Manager (§3.2): unified region
  lifecycle, host-side hashtable, per-region metadata.
* :mod:`~repro.core.twin` — the twin hypergraphs (§3.2): virtual and
  physical data-flow layers plus the region→flow hashtable.
* :mod:`~repro.core.prefetch` — the prefetch engine (§3.3): robust
  prediction, adaptive synchronism (compensation), suspension policy.
* :mod:`~repro.core.fence` — virtual command fences (§3.4): signal/wait
  pairs and the page-limited virtual fence table.
* :mod:`~repro.core.coherence` — coherence protocols: the prefetch
  protocol, the write-invalidate baseline, and the copy-path planner.
* :mod:`~repro.core.flowcontrol` — Trinity's MIMD flow control, used to
  pace guest dispatch (§3.4).
"""

from repro.core.coherence import (
    CoherenceProtocol,
    CopyPlanner,
    GuestMemoryWriteInvalidate,
    UnifiedPrefetchProtocol,
    UnifiedWriteInvalidate,
)
from repro.core.fence import (
    FenceState,
    VirtualFence,
    VirtualFenceTable,
)
from repro.core.flowcontrol import MimdFlowControl
from repro.core.hypergraph import DirectedHypergraph, Hyperedge
from repro.core.manager import SvmManager
from repro.core.ordering import OrderingMode
from repro.core.prefetch import PrefetchEngine
from repro.core.region import AccessUsage, SvmRegion, location_of
from repro.core.smoothing import ExponentialSmoothing
from repro.core.twin import TwinHypergraphs

__all__ = [
    "SvmManager",
    "SvmRegion",
    "AccessUsage",
    "location_of",
    "TwinHypergraphs",
    "DirectedHypergraph",
    "Hyperedge",
    "ExponentialSmoothing",
    "PrefetchEngine",
    "CoherenceProtocol",
    "CopyPlanner",
    "UnifiedPrefetchProtocol",
    "UnifiedWriteInvalidate",
    "GuestMemoryWriteInvalidate",
    "VirtualFence",
    "VirtualFenceTable",
    "FenceState",
    "OrderingMode",
    "MimdFlowControl",
]
