"""Multiprocess match backend (`engine=mp`) — see :mod:`.engine`."""

from .engine import ProcessMatcher, mp_supported
from .shard import ShardMap

__all__ = ["ProcessMatcher", "ShardMap", "mp_supported"]
