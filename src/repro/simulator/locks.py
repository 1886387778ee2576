"""The simulator's lock model, and its contention counters.

Every lock is plain numbers in :func:`~.engine.simulate`'s locals;
this is the model they implement (``tests/simulator/test_locks.py``
pins it).  A spin lock — a task queue's, a simple hash line's, an MRSW
line's guard or modification lock — is test-and-test-and-set with
FIFO-by-request-time granting: a request at *t* is granted at
``max(t, free_at)``, the wait counted as one spin per ``spin_period``
instructions, minimum 1 (the paper's 1.00–1.03 without contention,
Table 4-7).  A contended release sets off the TTAS *handoff storm*: the
hold stretches by ``handoff`` per grant still waiting at the request —
the model's one way for a line to slow as processes are added (Table
4-5's declining Tourney; how far it bends depends on ``ttas_handoff``).
An MRSW line is the Unused/Left/Right flag behind the guard, plus the
modification lock for the memory update: same-side users search
together, an opposite-side arrival is requeued.  Requests reach a line
in time order, so the flag clears once the guard's grant passes the
latest exit of an admitted user, and the exit's own guard pass is
charged to the leaving task as ``mrsw_overhead`` (a request at a future
time would serialize every same-side entry behind it).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SpinStats:
    """Accumulated contention for one lock (or one group of locks)."""

    acquisitions: int = 0
    spins: int = 0
    requeues: int = 0

    @property
    def mean_spins(self) -> float:
        return self.spins / self.acquisitions if self.acquisitions else 0.0
