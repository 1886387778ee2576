"""The threaded parallel match runtime: spin locks, task queues,
conjugate-pair handling, and the PSM-E-structured parallel engine."""

from . import hooks
from .conjugate import ConjugateMemory
from .engine import ParallelMatcher
from .locks import LockStats, MRSWLineLocks, SimpleLineLocks, SpinLock, make_line_locks
from .taskqueue import TaskCount, TaskQueueSet

__all__ = [
    "ConjugateMemory",
    "LockStats",
    "MRSWLineLocks",
    "ParallelMatcher",
    "SimpleLineLocks",
    "SpinLock",
    "TaskCount",
    "TaskQueueSet",
    "hooks",
    "make_line_locks",
]
