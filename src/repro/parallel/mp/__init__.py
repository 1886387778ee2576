"""Multiprocess match backend (`engine=mp`) — see :mod:`.engine`."""

from .engine import ProcessMatcher, mp_supported

__all__ = ["ProcessMatcher", "mp_supported"]
