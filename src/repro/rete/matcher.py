"""The sequential Rete matcher — the paper's uniprocessor vs1/vs2 engines.

Processes working-memory changes one at a time; each runs to
quiescence on the kernel's inline LIFO stack
(:func:`repro.rete.kernel.match_change`, the sequential twin of the
parallel task queue).  Configurable along the two axes the paper
evaluates:

* ``memory='linear'`` (vs1) or ``'hash'`` (vs2);
* ``mode='interpreted'`` (the Lisp-implementation analogue) or
  ``'compiled'`` (the machine-code analogue) — set on the network.

Optionally records the full task DAG via a
:class:`~repro.rete.trace.TraceRecorder` for the Encore simulator.
"""

from __future__ import annotations

from time import perf_counter
from typing import List, Optional

from ..obs import flight as _flight
from ..ops5.wme import WMEChange
from . import kernel
from .memories import MemorySystem
from .network import ReteNetwork
from .nodes import CSDelta, MatchContext
from .stats import MatchStats
from .trace import TraceRecorder


class SequentialMatcher:
    """Single-process match engine over a compiled network."""

    def __init__(
        self,
        network: ReteNetwork,
        memory: str = "hash",
        n_lines: int = 1024,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        self.network = network
        self.memory = MemorySystem(memory, n_lines)
        self.stats = MatchStats()
        _flight.note_engine("sequential", 1)
        self.recorder = recorder
        self.ctx = MatchContext(self.memory, self.stats, strict=True)
        #: Wall-clock seconds spent inside match (the paper times match
        #: alone, excluding conflict resolution and RHS evaluation).
        self.match_seconds = 0.0

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Process a batch of changes in order (one RHS's output); each
        runs to quiescence on the kernel's stack before the next."""
        start = perf_counter()
        _flight.record("sequential", "batch", {"changes": len(changes)})
        ctx = self.ctx
        deltas: List[CSDelta] = []
        for change in changes:
            ctx.cs_deltas = []
            kernel.match_change(self.network, ctx, change.sign, change.wme, self.recorder)
            deltas.extend(ctx.cs_deltas)
        self.match_seconds += perf_counter() - start
        return deltas
