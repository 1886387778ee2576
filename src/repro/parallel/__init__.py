"""The threaded parallel match runtime: spin locks, task queues,
conjugate-pair handling, and the PSM-E-structured parallel engine."""

from . import hooks
from .conjugate import ConjugateMemory
from .engine import ParallelMatcher
from .locks import LockStats, MRSWLineLocks, SimpleLineLocks, SpinLock, make_line_locks
from .policy import POLICY_NAMES, Policy, make_policy
from .taskqueue import TaskCount, TaskQueueSet

__all__ = [
    "ConjugateMemory",
    "LockStats",
    "MRSWLineLocks",
    "POLICY_NAMES",
    "ParallelMatcher",
    "Policy",
    "SimpleLineLocks",
    "SpinLock",
    "TaskCount",
    "TaskQueueSet",
    "hooks",
    "make_line_locks",
    "make_policy",
]
