"""The structured event bus: spans, counters, and hot-spot accumulators.

Design constraints, in order:

1. **Zero overhead when disabled.**  Every instrumentation point in the
   engines reads the module-level :data:`ENABLED` flag *before*
   computing timestamps or allocating anything; a disabled probe is one
   module-attribute read and a branch.

2. **Lock-aware, contention-free recording.**  The parallel engine's
   match threads report concurrently.  Each thread writes into its own
   :class:`_WorkerBuffer` (reached through a ``threading.local``), so
   recording never takes a lock — the only synchronized operation is
   buffer *registration*, once per thread per epoch.  This matters
   because the layer instruments spin locks themselves: a lock inside
   the event path would perturb exactly the contention it measures.
   A worker *process* (the mp engine) is one more such writer: it
   records on its own copy of this module, ships the delta at each
   flush, and the control thread that flushed files it
   (:func:`file_remote`) in a buffer keyed by the worker's OS pid —
   same cap, same drop count, same epoch rules, one writer.

3. **Bounded memory.**  Span buffers are capped per worker
   (:data:`DEFAULT_MAX_EVENTS`); overflowing spans are counted in
   ``dropped`` instead of stored.  Hot-path aggregates (per-node,
   per-lock, counters) are fixed-size dictionaries keyed by node id /
   lock label and never grow with run length.

Timestamps are monotonic ``time.perf_counter_ns`` integers (one clock
for every process of a host, so shipped spans need no translation);
spans are plain tuples ``(t0_ns, dur_ns, cat, name, args)``.
``snapshot()`` merges all live buffers into an :class:`ObsSnapshot`
without stopping collection; the snapshot owns the one JSON form of a
set of observations (:meth:`ObsSnapshot.to_json` / ``from_json``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

#: THE flag.  Instrumentation sites check this before any allocation:
#: ``if events.ENABLED: ...``.  Toggle through :func:`enable` /
#: :func:`disable` only.
ENABLED = False

#: Per-worker span cap; beyond it spans are dropped (and counted).
DEFAULT_MAX_EVENTS = 200_000

#: Monotonic nanosecond clock used for every span boundary.
now = perf_counter_ns

#: Schema id of a snapshot's JSON form (``repro trace --fabric-out``,
#: ``repro obs stitch``).  /1 was a control snapshot beside a list of
#: worker lanes; /2 is the snapshot, workers of every process in it.
SNAPSHOT_SCHEMA = "repro.fabric/2"

_SPAN = Tuple[int, int, str, str, Optional[dict]]


class _WorkerBuffer:
    """One writer's private event storage — a thread of this process
    (``pid`` 0) or a worker process whose shipped deltas one control
    thread files.  Never shared for writing."""

    __slots__ = ("name", "epoch", "max_events", "pid", "spans", "dropped",
                 "nodes", "locks", "counters")

    def __init__(self, name: str, epoch: int, max_events: int, pid: int = 0) -> None:
        self.name = name
        self.epoch = epoch
        self.max_events = max_events
        self.pid = pid
        self.spans: List[_SPAN] = []
        self.dropped = 0
        # node_id -> [kind, activations, self_ns, tokens_examined, emitted]
        self.nodes: Dict[int, list] = {}
        # label -> [acquires, contended, wait_ns, hold_ns]
        self.locks: Dict[str, list] = {}
        self.counters: Dict[str, int] = {}


_tls = threading.local()
_reg_lock = threading.Lock()
_registry: List[_WorkerBuffer] = []
#: OS pid -> the registered buffer of that worker process (this epoch's).
_remote: Dict[int, _WorkerBuffer] = {}
_epoch = 0
_max_events = DEFAULT_MAX_EVENTS
#: Drops carried over from retired buffers (cleared registries, dead
#: epochs) so :func:`dropped_total` stays monotonic — a Prometheus
#: counter must never shrink just because a capture was reset.
_retired_dropped = 0


def _buffer() -> _WorkerBuffer:
    buf = getattr(_tls, "buf", None)
    if buf is None or buf.epoch != _epoch:
        buf = _WorkerBuffer(threading.current_thread().name, _epoch, _max_events)
        with _reg_lock:
            _registry.append(buf)
        _tls.buf = buf
    return buf


# -- control -----------------------------------------------------------------


def enable(max_events_per_worker: int = DEFAULT_MAX_EVENTS) -> None:
    """Turn collection on (idempotent).  Existing data is kept; call
    :func:`reset` first for a fresh capture."""
    global ENABLED, _max_events
    if max_events_per_worker < 0:
        raise ValueError(
            f"the per-worker span cap must be >= 0, got {max_events_per_worker}"
        )
    _max_events = max_events_per_worker
    ENABLED = True


def disable() -> None:
    """Turn collection off.  Buffers stay readable via :func:`snapshot`."""
    global ENABLED
    ENABLED = False


def enabled() -> bool:
    return ENABLED


def current_max_events() -> int:
    """The per-worker span cap in force (what :func:`enable` last set)."""
    return _max_events


def dropped_total() -> int:
    """Spans ever dropped to the per-worker buffer caps: live buffers
    plus drops retained from retired ones, so the value is monotonic
    over a process lifetime (it backs the Prometheus
    ``repro_obs_dropped_events_total`` counter, which must never go
    backwards across capture resets).  Cheaper than :func:`snapshot`
    (no span copying), suited to hot exposition paths like
    ``serve stats``.  Per-capture drop counts live on
    :attr:`ObsSnapshot.dropped` instead."""
    with _reg_lock:
        return _retired_dropped + sum(buf.dropped for buf in _registry)


def reset() -> None:
    """Drop all recorded data.  Threads re-register lazily (their cached
    buffers carry a stale epoch and are abandoned on next use).  Drop
    counts from the retiring buffers are folded into the monotonic
    :func:`dropped_total` before the registry clears."""
    global _epoch, _retired_dropped
    with _reg_lock:
        _epoch += 1
        _retired_dropped += sum(buf.dropped for buf in _registry)
        _registry.clear()
        _remote.clear()


# -- recording (callers must have checked ENABLED) ---------------------------


def span(cat: str, name: str, t0: int, t1: int, args: Optional[dict] = None) -> None:
    """One completed duration event ``[t0, t1]`` (nanoseconds)."""
    buf = _buffer()
    if len(buf.spans) >= buf.max_events:
        buf.dropped += 1
        return
    buf.spans.append((t0, t1 - t0, cat, name, args))


def count(name: str, n: int = 1) -> None:
    """Bump a named counter on the calling thread's buffer."""
    counters = _buffer().counters
    counters[name] = counters.get(name, 0) + n


def node_hit(node_id: int, kind: str, dur_ns: int, examined: int, emitted: int) -> None:
    """One node activation: self time plus size features, aggregated
    per node so a million-activation run stays bounded."""
    nodes = _buffer().nodes
    agg = nodes.get(node_id)
    if agg is None:
        nodes[node_id] = [kind, 1, dur_ns, examined, emitted]
    else:
        agg[1] += 1
        agg[2] += dur_ns
        agg[3] += examined
        agg[4] += emitted


def lock_hit(label: str, wait_ns: int, hold_ns: int, contended: bool) -> None:
    """One completed lock acquire/release pair, aggregated per label."""
    locks = _buffer().locks
    agg = locks.get(label)
    if agg is None:
        locks[label] = [1, 1 if contended else 0, wait_ns, hold_ns]
    else:
        agg[0] += 1
        if contended:
            agg[1] += 1
        agg[2] += wait_ns
        agg[3] += hold_ns


def file_remote(pid: int, name: str, spans: List[_SPAN], nodes: Dict[int, list],
                counters: Dict[str, int], dropped: int = 0) -> int:
    """File a delta that worker process ``pid`` recorded on its own bus
    into that worker's buffer here (registered on first use, like a
    thread's).  ``dropped`` is what the worker already lost; spans
    beyond this buffer's cap are dropped and counted too.  Returns how
    many of ``spans`` were kept.  One thread files for a given pid —
    the one flushing the engine that owns the process."""
    buf = _remote.get(pid)
    if buf is None or buf.epoch != _epoch:
        buf = _WorkerBuffer(name, _epoch, _max_events, pid)
        with _reg_lock:
            _registry.append(buf)
        _remote[pid] = buf
    kept = min(len(spans), buf.max_events - len(buf.spans))
    buf.spans.extend(spans[:kept])
    buf.dropped += dropped + len(spans) - kept
    fold_nodes(buf.nodes, nodes)
    for key, n in counters.items():
        buf.counters[key] = buf.counters.get(key, 0) + n
    return kept


def fold_nodes(into: Dict[int, list], nodes: Dict[int, list]) -> None:
    """Add per-node aggregates ``[kind, activations, self_ns, examined,
    emitted]`` into ``into`` — the one place two writers' node tables
    are summed."""
    for node_id, agg in nodes.items():
        have = into.get(node_id)
        if have is None:
            into[node_id] = list(agg)
        else:
            have[1] += agg[1]
            have[2] += agg[2]
            have[3] += agg[3]
            have[4] += agg[4]


# -- snapshots ---------------------------------------------------------------


@dataclass
class ObsSnapshot:
    """A merged, point-in-time copy of every worker's buffer."""

    #: worker display name -> list of spans (t0_ns, dur_ns, cat, name, args)
    workers: Dict[str, List[_SPAN]] = field(default_factory=dict)
    #: node_id -> [kind, activations, self_ns, tokens_examined, emitted]
    nodes: Dict[int, list] = field(default_factory=dict)
    #: lock label -> [acquires, contended, wait_ns, hold_ns]
    locks: Dict[str, list] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    dropped: int = 0
    #: The ``workers`` that are other processes: display name -> OS pid.
    remote: Dict[str, int] = field(default_factory=dict)

    @property
    def n_spans(self) -> int:
        return sum(len(s) for s in self.workers.values())

    def spans_by_cat(self, cat: str) -> List[_SPAN]:
        return [s for spans in self.workers.values() for s in spans if s[2] == cat]

    def to_json(self) -> Dict[str, Any]:
        """The snapshot as a JSON-serializable document."""
        return {
            "schema": SNAPSHOT_SCHEMA,
            "workers": {
                name: [list(span) for span in spans]
                for name, spans in sorted(self.workers.items())
            },
            "remote": dict(self.remote),
            "nodes": {str(k): list(v) for k, v in self.nodes.items()},
            "locks": {k: list(v) for k, v in self.locks.items()},
            "counters": dict(self.counters),
            "dropped": self.dropped,
        }

    @classmethod
    def from_json(cls, doc: Any) -> "ObsSnapshot":
        """The inverse of :meth:`to_json`, and the one place a saved
        document is validated: raises ``ValueError("<where>: <what>")``
        at the first thing that is not what ``to_json`` writes."""
        if _shaped(doc, dict, "document").get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(f"schema: is {doc.get('schema')!r}, this reader "
                             f"takes {SNAPSHOT_SCHEMA!r}")
        snap = cls(dropped=_shaped(doc.get("dropped"), int, "dropped"))
        for name, spans in _table(doc, "workers", list):
            where = f"workers[{name!r}]"
            snap.workers[name] = [
                tuple(_row(span, _SPAN_SHAPE, f"{where}[{i}]"))
                for i, span in enumerate(spans)
            ]
        for name, pid in _table(doc, "remote", int):
            if name not in snap.workers:
                raise ValueError(f"remote[{name!r}]: names no worker")
            snap.remote[name] = pid
        for key, agg in _table(doc, "nodes", list):
            if not key.isdigit():
                raise ValueError(f"nodes[{key!r}]: the key is not a node id")
            snap.nodes[int(key)] = _row(agg, _NODE_SHAPE, f"nodes[{key!r}]")
        for label, agg in _table(doc, "locks", list):
            snap.locks[label] = _row(agg, _LOCK_SHAPE, f"locks[{label!r}]")
        snap.counters = dict(_table(doc, "counters", int))
        return snap


_OBJECT_OR_NULL = (dict, type(None))
_SPAN_SHAPE = (int, int, str, str, _OBJECT_OR_NULL)
_NODE_SHAPE = (str, int, int, int, int)
_LOCK_SHAPE = (int, int, int, int)
_KIND_NAMES = {int: "an integer", str: "a string", list: "an array",
               dict: "an object", _OBJECT_OR_NULL: "an object or null"}


def _shaped(value: Any, kind, where: str) -> Any:
    # bool is an int to isinstance; no field of a snapshot is one.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where}: {value!r} is not {_KIND_NAMES[kind]}")
    return value


def _table(doc: dict, field_name: str, kind) -> List[Tuple[str, Any]]:
    table = _shaped(doc.get(field_name), dict, field_name)
    return [
        (key, _shaped(value, kind, f"{field_name}[{key!r}]"))
        for key, value in table.items()
    ]


def _row(row: Any, shape: tuple, where: str) -> list:
    if len(_shaped(row, list, where)) != len(shape):
        raise ValueError(f"{where}: {len(shape)} fields expected, got {row!r}")
    return [_shaped(value, kind, f"{where}[{i}]")
            for i, (value, kind) in enumerate(zip(row, shape))]


def snapshot() -> ObsSnapshot:
    """Merge all live buffers.  Collection keeps running; concurrent
    writers may add events not seen by this snapshot, never corrupt it."""
    snap = ObsSnapshot()
    with _reg_lock:
        buffers = list(_registry)
    for buf in buffers:
        name = buf.name
        if name in snap.workers:  # two writers with one name (rare)
            name = f"{name}#{sum(1 for k in snap.workers if k.split('#')[0] == buf.name)}"
        snap.workers[name] = list(buf.spans)
        if buf.pid:
            snap.remote[name] = buf.pid
        snap.dropped += buf.dropped
        fold_nodes(snap.nodes, buf.nodes)
        for label, agg in buf.locks.items():
            have = snap.locks.get(label)
            if have is None:
                snap.locks[label] = list(agg)
            else:
                for i in range(4):
                    have[i] += agg[i]
        for key, n in buf.counters.items():
            snap.counters[key] = snap.counters.get(key, 0) + n
    return snap
