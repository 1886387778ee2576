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

from typing import List, Optional

from ..obs import flight as _flight
from ..ops5.wme import WMEChange
from . import kernel
from .memories import MemorySystem
from .network import ReteNetwork
from .nodes import CSDelta, MatchContext
from .stats import MatchStats
from .trace import TraceRecorder


class Matcher:
    """The contract the four engines share beyond ``process_changes``.

    Code that built its matcher through :func:`repro.engines.make_matcher`
    (every verb, the serve layer) reads these attributes directly.  The
    interpreter alone still probes ``strict_cs``/``close``/``stats``
    with ``getattr``: ``Interpreter(matcher=...)`` is the one door a
    foreign object — bench's span proxy, a test fake with nothing but
    ``process_changes`` — can come through.  What an engine's workers
    *observed* is not part of the contract: threads and processes alike
    write to the one bus (:func:`repro.obs.events.snapshot`).
    """

    #: Conflict-set deltas arrive in order (``False``: unordered, the
    #: interpreter validates counts after each batch).
    strict_cs = True
    #: The :class:`~repro.obs.watchdog.StallWatchdog`, when one was asked for.
    watchdog = None
    #: Set by the interpreter from its own ``timed`` before each batch.
    #: Engines never bill anyone: while it is set, the ones with a
    #: transport count what it costs into the two plain totals below,
    #: and whoever owns the session reads them.
    timed = False
    #: Nanoseconds tasks sat on a queue between push and pop (threaded).
    queue_wait_ns = 0
    #: Pickled bytes moved over worker pipes, both directions (mp).
    ipc_bytes = 0

    def close(self) -> None:
        """Release workers; idempotent.  Nothing to release by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialMatcher(Matcher):
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

    def process_changes(self, changes: List[WMEChange]) -> List[CSDelta]:
        """Process a batch of changes in order (one RHS's output); each
        runs to quiescence on the kernel's stack before the next."""
        _flight.record("sequential", "batch", {"changes": len(changes)})
        ctx = self.ctx
        deltas: List[CSDelta] = []
        for change in changes:
            ctx.cs_deltas = []
            kernel.match_change(self.network, ctx, change.sign, change.wme, self.recorder)
            deltas.extend(ctx.cs_deltas)
        return deltas
