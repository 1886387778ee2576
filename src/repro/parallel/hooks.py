"""Schedule-exploration yield points for the threaded parallel engine.

Every synchronization-relevant operation in :mod:`repro.parallel` —
lock acquire/release, task-queue push/pop, TaskCount updates, token
memory insert/delete, and the idle/quiescence wait loops — calls
:func:`yield_point` with a label naming the operation.

In production no hook is installed and the call is a single global
read plus a ``None`` check: the engine's real-thread behaviour is
unchanged.  Under :mod:`repro.schedck` a cooperative scheduler installs
itself here; each yield point then parks the calling thread on a
per-thread gate until the scheduler hands it the turn, which makes the
interleaving of the whole engine a deterministic function of the
schedule seed (§3.2's "identical conflict sets under any interleaving"
claim becomes testable instead of anecdotal).

Labels are grouped by prefix:

``lock_acquire`` / ``lock_spin`` / ``lock_release``
    :class:`~repro.parallel.locks.SpinLock` operations (``lock_spin``
    fires on every failed test of a busy lock, so a spinning thread
    always cedes the turn and cooperative runs cannot deadlock).
``queue_push`` / ``queue_pop``
    :class:`~repro.parallel.taskqueue.TaskQueueSet` operations.
``taskcount_inc`` / ``taskcount_dec``
    :class:`~repro.parallel.taskqueue.TaskCount` updates.
``mem_insert`` / ``mem_remove``
    :class:`~repro.parallel.conjugate.ConjugateMemory` token traffic
    (``mem_insert`` is the ``+`` twin of a conjugate pair, ``mem_remove``
    the ``-`` twin).
``worker_idle`` / ``quiesce_wait``
    the match-process empty-queue loop and the control process's
    TaskCount-zero wait (§3.2 termination detection).

The labels marked "waiting" below denote a thread that is *blocked on
someone else's progress*; fair policies use this to avoid livelocking
on a spinning thread.
"""

from __future__ import annotations

from typing import Callable, Optional

#: Labels at which a parked thread is waiting for another thread's
#: progress rather than about to change shared state.  ``queue_pop``
#: is included because a pop may find every queue empty: a thread
#: alternating pop/idle must read as continuously waiting or a
#: priority policy would run it forever.
WAIT_LABELS = frozenset({"lock_spin", "worker_idle", "quiesce_wait", "queue_pop"})

_hook: Optional[Callable[[str, object], None]] = None


def install(hook: Callable[[str, object], None]) -> None:
    """Install ``hook(label, detail)`` as the process-wide yield hook."""
    global _hook
    _hook = hook


def uninstall() -> None:
    global _hook
    _hook = None


def yield_point(label: str, detail: object = None) -> None:
    """Production no-op; under a harness, cede the turn at ``label``."""
    hook = _hook
    if hook is not None:
        hook(label, detail)


def thread_exit() -> None:
    """Called by a match process as it dies (poison or failure), so a
    scheduler never waits on a thread that will not yield again."""
    hook = _hook
    if hook is not None:
        exit_fn = getattr(hook, "thread_exit", None)
        if exit_fn is not None:
            exit_fn()
