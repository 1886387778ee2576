"""The Rete match algorithm: network compiler, node types, linear (vs1)
and hash-table (vs2) token memories, interpreted and compiled test
evaluation, instrumentation, and task-trace capture."""

from .explain import describe_network, sharing_report, to_dot
from .matcher import SequentialMatcher
from .memories import MemorySystem
from .network import ReteNetwork
from .stats import MatchStats
from .token import ADD, DELETE, Token
from .trace import MatchTrace, TraceRecorder

__all__ = [
    "ADD",
    "describe_network",
    "sharing_report",
    "to_dot",
    "DELETE",
    "MatchStats",
    "MatchTrace",
    "MemorySystem",
    "ReteNetwork",
    "SequentialMatcher",
    "Token",
    "TraceRecorder",
]
