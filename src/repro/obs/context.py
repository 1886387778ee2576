"""Request-scoped context: who caused this engine work?

The bus (:mod:`repro.obs.events`) answers *where* time goes — nodes,
locks, phases.  This module answers *on whose behalf*: every serve
request gets a :class:`RequestContext` (request id, session id, tenant
label) that travels from the protocol layer through the interpreter's
recognize-act phases into the match engines, so a span in a stitched
multi-process trace can always be attributed back to the client
request that caused it.

Propagation crosses three execution boundaries, each handled where it
happens rather than by ambient magic:

* **asyncio → interpreter** (same thread): a ``contextvars.ContextVar``
  holds the active context; the serve session worker activates it
  around each transaction, and the interpreter reads it when stamping
  phase spans (:func:`tag`); the meter needs no context, the session
  that charges it knows its own id and tenant.
* **control thread → match threads** (threaded engine): worker threads
  do not inherit the contextvar, so the engine captures
  :func:`current_ids` at dispatch time and tags every task it pushes —
  the per-task span args carry the ids explicitly.
* **control process → match processes** (mp engine): the ids ride the
  existing ``("changes", seq, payload)`` pipe message as a fourth
  element; each worker stamps them into its batch span, which is how
  stitched traces gain request-scoped flow arrows end to end.

Everything here follows the obs overhead contract: with no context
active, :func:`current` is one ``ContextVar.get`` and :func:`tag`
returns its argument untouched — no allocation.
"""

from __future__ import annotations

import itertools
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

#: Span-args keys the context contributes (see :meth:`RequestContext.ids`).
CTX_KEYS = ("req", "session", "tenant")

#: Tenant label used when a request names none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class RequestContext:
    """One request's identity, immutable for its whole lifetime."""

    request_id: str
    session_id: str = ""
    tenant: str = DEFAULT_TENANT
    #: Precomputed span-args form, built once so :func:`tag` on the hot
    #: path merges a ready dict instead of formatting per span.
    _ids: Dict[str, str] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_ids",
            {"req": self.request_id, "session": self.session_id,
             "tenant": self.tenant},
        )

    def ids(self) -> Dict[str, str]:
        """The context as span args: ``{"req", "session", "tenant"}``.
        Callers must treat the returned dict as read-only (it is the
        shared precomputed copy)."""
        return self._ids


_current: ContextVar[Optional[RequestContext]] = ContextVar(
    "repro_request_context", default=None
)

#: Process-wide request id source: ids must stay unique across every
#: session of one server so trace args and meter exemplars never alias.
_req_counter = itertools.count(1)


def new_request(
    session_id: str = "", tenant: str = DEFAULT_TENANT
) -> RequestContext:
    """Mint a context with a fresh process-unique request id (``rN``)."""
    return RequestContext(
        request_id=f"r{next(_req_counter)}",
        session_id=session_id,
        tenant=tenant or DEFAULT_TENANT,
    )


def current() -> Optional[RequestContext]:
    """The active context, or None outside any request scope."""
    return _current.get()


def current_ids() -> Optional[Dict[str, str]]:
    """The active context's span-args ids, or None.  This is what the
    engines capture at dispatch time to tag tasks and pipe messages."""
    ctx = _current.get()
    return None if ctx is None else ctx.ids()


def activate(ctx: Optional[RequestContext]) -> Token:
    """Make ``ctx`` current; returns the token for :func:`deactivate`.
    The explicit pair (rather than only the context manager) exists for
    the serve session worker, which activates around an awaited call."""
    return _current.set(ctx)


def deactivate(token: Token) -> None:
    _current.reset(token)


class scope:
    """``with scope(ctx): ...`` — context manager form of activate."""

    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: Optional[RequestContext]) -> None:
        self._ctx = ctx

    def __enter__(self) -> Optional[RequestContext]:
        self._token = _current.set(self._ctx)
        return self._ctx

    def __exit__(self, *exc: Any) -> None:
        _current.reset(self._token)


def tag(args: Optional[dict]) -> Optional[dict]:
    """Merge the active context's ids into span args.

    No context → ``args`` returned untouched (no allocation); with a
    context, a new dict is built so the caller's literal is never
    mutated.  Use at every span site that should be request-scoped.
    """
    ctx = _current.get()
    if ctx is None:
        return args
    merged = dict(args) if args else {}
    merged.update(ctx.ids())
    return merged


def tag_ids(args: Optional[dict], ids: Optional[Dict[str, str]]) -> Optional[dict]:
    """Like :func:`tag` but with explicitly-carried ids — the form for
    engine workers that received the ids via a task tuple or a pipe
    message instead of the contextvar."""
    if ids is None:
        return args
    merged = dict(args) if args else {}
    merged.update(ids)
    return merged
