"""The activation kernel — the one match loop under every eager engine.

The paper (§3.1–3.2) has one loop — *pop a task, run the node
activation, push the children* — and varies only where a child goes and
what guards a hash line.  This module is that loop.  An engine is a
scheduler and transport around it, and hands it one thing: the seam
``route(children)``, called with each non-empty list of child
activations.  The sequential matcher passes ``stack.extend``, the
threaded engine a push onto policy-chosen task queues, an mp worker
local-stack-or-owner's-pipe (DESIGN.md, "Engines are transports over
one kernel").

Only this module turns a WM change into alpha statistics and root
tasks, calls a node's ``activate`` (bare in :func:`drain`, on an entered
hash line in :func:`execute`), and attaches the per-activation
instrumentation: the ``ctx.last_*`` probes, the ``node_hit`` hot-spot,
the ``task``/``wm_change`` spans and the
:class:`~repro.rete.trace.TraceRecorder` observer with parent linkage.
``tests/rete/test_kernel.py`` checks that structurally.  Stack engines
call in once per WM change or per drain, never once per activation.

A task is the tuple ``(node, side, sign, token)``.  Only while a
recorder is attached do tasks carry a fifth element, the tid of the
task whose output spawned them (-1 for the roots of a change), so the
unrecorded path pays for the parent link with neither an object nor a
field write.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..obs import context as _context
from ..obs import events as _obs
from ..ops5.wme import WME
from .network import ReteNetwork
from .nodes import AlphaTerminal, BetaNode, MatchContext, Task
from .stats import MatchStats
from .trace import TraceRecorder

Route = Callable[[List[Task]], None]


def alpha_pass(
    network: ReteNetwork, stats: MatchStats, wme: WME
) -> Tuple[List[AlphaTerminal], int]:
    """Run ``wme`` through the constant-test network and charge the
    change and its alpha work to ``stats``; returns ``(alpha terminals
    passed, constant tests run)``."""
    hits, n_tests = network.alpha_dispatch(wme)
    stats.wme_changes += 1
    stats.constant_tests += n_tests
    stats.alpha_passes += len(hits)
    return hits, n_tests


def enter_change(
    network: ReteNetwork, stats: MatchStats, sign: int, wme: WME, route: Route,
) -> Tuple[int, int]:
    """Turn one WM change into root tasks and hand them to ``route``.
    Returns ``(alpha hits, constant tests)``."""
    hits, n_tests = alpha_pass(network, stats, wme)
    token = ((wme,), (wme.timetag,))
    roots: List[Task] = []
    for terminal in hits:
        for node, side in terminal.successors:
            roots.append((node, side, sign, token))
    if roots:
        route(roots)
    return len(hits), n_tests


def _node_hit(ctx: MatchContext, node: BetaNode, dur_ns: int, n_children: int) -> None:
    _obs.node_hit(
        node.node_id, node.kind, dur_ns,
        ctx.last_opp_examined + ctx.last_same_examined, n_children,
    )


def drain(
    ctx: MatchContext, stack: List[Task], route: Route,
    recorder: Optional[TraceRecorder] = None, limit: int = -1,
) -> int:
    """Run tasks off the LIFO ``stack`` until it is empty, or until
    ``limit`` of them have run (the mp worker's inbox-poll interval).
    Children go to ``route``, which may well push them back onto
    ``stack``.  Under a ``recorder`` every task, in and out, is a
    5-tuple ending in its parent's tid.  Returns the number of
    activations run."""
    obs_on = _obs.ENABLED
    tracing = ctx.tracing = obs_on or recorder is not None
    done = 0
    while stack:
        task = stack.pop()
        if not tracing:
            node, side, sign, token = task
            children = node.activate(ctx, side, sign, token)
        else:
            if recorder is None:
                node, side, sign, token = task
            else:
                node, side, sign, token, parent = task
            ctx.last_opp_examined = ctx.last_same_examined = 0
            t0 = _obs.now() if obs_on else 0
            children = node.activate(ctx, side, sign, token)
            if obs_on:
                _node_hit(ctx, node, _obs.now() - t0, len(children))
            if recorder is not None:
                tid = recorder.add_task(
                    parent=parent,
                    kind=node.kind,
                    node_id=node.node_id,
                    side=side,
                    sign=sign,
                    line=ctx.last_line if node.uses_line() else -1,
                    opp_examined=ctx.last_opp_examined,
                    same_examined=ctx.last_same_examined,
                    n_children=len(children),
                )
                for i, (n, s, g, t) in enumerate(children):
                    children[i] = (n, s, g, t, tid)
        if children:
            route(children)
        done += 1
        if done == limit:
            break
    return done


def match_change(
    network: ReteNetwork, ctx: MatchContext, sign: int, wme: WME,
    recorder: Optional[TraceRecorder] = None,
) -> None:
    """One WM change matched to quiescence on an inline LIFO stack —
    the sequential engine's whole match step."""
    obs_on = _obs.ENABLED
    if obs_on:
        t0 = _obs.now()
    stack: List[Task] = []
    n_hits, n_tests = enter_change(network, ctx.stats, sign, wme, stack.extend)
    if recorder is not None:
        recorder.begin_change(n_const_tests=n_tests, n_alpha_hits=n_hits)
        stack = [root + (-1,) for root in stack]
    drain(ctx, stack, stack.extend, recorder)
    if obs_on:
        _obs.span("match", "wm_change", t0, _obs.now(),
                  args={"sign": sign, "alpha_hits": n_hits})


def change_task(
    network: ReteNetwork, stats: MatchStats, sign: int, wme: WME, route: Route,
    ids: Optional[dict],
) -> None:
    """A WM change run as one queue task (the threaded engine): its
    roots go to ``route`` and the worker timeline gets one span, tagged
    with the request ``ids`` that rode in on the task."""
    obs_on = _obs.ENABLED
    if obs_on:
        t0 = _obs.now()
    enter_change(network, stats, sign, wme, route)
    if obs_on:
        _obs.span("task", "wm_change", t0, _obs.now(), args=_context.tag_ids(None, ids))


def execute(ctx: MatchContext, task: Task, route: Route, ids: Optional[dict]) -> bool:
    """Run one task off a queue, on its hash line entered through
    ``ctx.locks`` (§3.2; the node takes the modification bracket inside
    it).  Returns False when MRSW line locking refused entry — tokens
    from the other side are being processed on this line — and the
    caller must put the task back on a queue unprocessed."""
    obs_on = ctx.tracing = _obs.ENABLED
    if obs_on:
        t0 = _obs.now()
        ctx.last_opp_examined = ctx.last_same_examined = 0
    node, side, sign, token = task
    if not node.uses_line():
        children = node.activate(ctx, side, sign, token)
    else:
        locks = ctx.locks
        line = ctx.last_line = ctx.memory.line_of(node.node_id, node.key_for(side, token))
        if not locks.enter(line, side):
            if obs_on:
                _obs.count("task.requeued")
                _obs.span("task", "requeue", t0, _obs.now(),
                          args=_context.tag_ids({"node": node.node_id}, ids))
            return False
        try:
            children = node.activate(ctx, side, sign, token)
        finally:
            locks.exit(line, side)
    if children:
        route(children)
    if obs_on:
        # One span per task (the Chrome-trace worker timeline) plus the
        # per-node hot-spot; both include the time spent pushing.
        t1 = _obs.now()
        _node_hit(ctx, node, t1 - t0, len(children))
        _obs.span("task", node.kind, t0, t1,
                  args=_context.tag_ids({"node": node.node_id}, ids))
    return True
