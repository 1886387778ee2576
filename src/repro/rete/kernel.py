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
activations, calls a node's ``activate`` (bare in :func:`drain`, inside
the line-lock bracket in :func:`execute`), and attaches the
per-activation instrumentation: the ``ctx.last_*`` probes, the
``node_hit`` hot-spot, the ``task``/``wm_change`` spans and the
:class:`~repro.rete.trace.TraceRecorder` observer with parent linkage.
``tests/rete/test_kernel.py`` checks that structurally.  Stack engines
call in once per WM change or per drain, never once per activation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..obs import context as _context
from ..obs import events as _obs
from ..ops5.wme import WME
from .network import ReteNetwork
from .nodes import Activation, AlphaTerminal, BetaNode, JoinNode, MatchContext
from .stats import MatchStats
from .token import Token
from .trace import TraceRecorder

Route = Callable[[List[Activation]], None]


def alpha_pass(
    network: ReteNetwork, stats: MatchStats, wme: WME, count: bool = True
) -> Tuple[List[AlphaTerminal], int]:
    """Run ``wme`` through the constant-test network; returns ``(alpha
    terminals passed, constant tests run)``.

    Charges the change and its alpha work to ``stats`` unless ``count``
    is false — mp workers replicate the alpha pass and only the change's
    designated worker counts it, so merged stats match the sequential
    matcher's.
    """
    hits, n_tests = network.alpha_dispatch(wme)
    if count:
        stats.wme_changes += 1
        stats.constant_tests += n_tests
        stats.alpha_passes += len(hits)
    return hits, n_tests


def enter_change(
    network: ReteNetwork, stats: MatchStats, sign: int, wme: WME, route: Route,
    count: bool = True,
) -> Tuple[int, int]:
    """Turn one WM change into root activations and hand them to
    ``route``.  Returns ``(alpha hits, constant tests)``."""
    hits, n_tests = alpha_pass(network, stats, wme, count)
    token = Token.single(wme)
    roots: List[Activation] = []
    for terminal in hits:
        for node, side in terminal.successors:
            roots.append(Activation(node, side, sign, token))
    if roots:
        route(roots)
    return len(hits), n_tests


def _node_hit(ctx: MatchContext, node: BetaNode, dur_ns: int, n_children: int) -> None:
    _obs.node_hit(
        node.node_id, node.kind, dur_ns,
        ctx.last_opp_examined + ctx.last_same_examined, n_children,
    )


def drain(
    ctx: MatchContext, stack: List[Activation], route: Route,
    recorder: Optional[TraceRecorder] = None, limit: int = -1,
) -> int:
    """Run activations off the LIFO ``stack`` until it is empty, or
    until ``limit`` of them have run (the mp worker's inbox-poll
    interval).  Children go to ``route``, which may well push them back
    onto ``stack``.  Returns the number of activations run."""
    obs_on = _obs.ENABLED
    tracing = ctx.tracing = obs_on or recorder is not None
    done = 0
    while stack:
        act = stack.pop()
        node = act.node
        if tracing:
            ctx.last_opp_examined = ctx.last_same_examined = 0
        if obs_on:
            t0 = _obs.now()
            children = node.activate(ctx, act)
            _node_hit(ctx, node, _obs.now() - t0, len(children))
        else:
            children = node.activate(ctx, act)
        if recorder is not None:
            tid = recorder.add_task(
                parent=act.parent,
                kind=node.kind,
                node_id=node.node_id,
                side=act.side,
                sign=act.sign,
                line=ctx.last_line if node.uses_line() else -1,
                opp_examined=ctx.last_opp_examined,
                same_examined=ctx.last_same_examined,
                n_children=len(children),
            )
            for child in children:
                child.parent = tid
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
    stack: List[Activation] = []
    n_hits, n_tests = enter_change(network, ctx.stats, sign, wme, stack.extend)
    if recorder is not None:
        recorder.begin_change(n_const_tests=n_tests, n_alpha_hits=n_hits)
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


def execute(
    ctx: MatchContext, act: Activation, locks, route: Route, ids: Optional[dict]
) -> bool:
    """Run one activation as a queue task, bracketed by its hash line's
    lock (§3.2).  Returns False when MRSW line locking refused entry —
    tokens from the other side are being processed on this line — and
    the caller must put the task back on a queue unprocessed."""
    obs_on = ctx.tracing = _obs.ENABLED
    if obs_on:
        t0 = _obs.now()
        ctx.last_opp_examined = ctx.last_same_examined = 0
    node = act.node
    if not node.uses_line():
        children = node.activate(ctx, act)
    else:
        key = node.key_for(act.side, act.token)
        line = ctx.memory.line_of(node.node_id, key)
        if not locks.enter(line, act.side):
            if obs_on:
                _obs.count("task.requeued")
                _obs.span("task", "requeue", t0, _obs.now(),
                          args=_context.tag_ids({"node": node.node_id}, ids))
            return False
        try:
            if isinstance(node, JoinNode):
                locks.enter_modify(line)
                try:
                    stored = node.update_memory(ctx, act, key)
                finally:
                    locks.exit_modify(line)
                children = [] if stored is None else node.search_opposite(ctx, act, key)
            else:
                # Negated nodes mutate left-entry counts during the
                # search, so the whole activation holds the
                # modification lock.
                locks.enter_modify(line)
                try:
                    children = node.activate(ctx, act)
                finally:
                    locks.exit_modify(line)
        finally:
            locks.exit(line, act.side)
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
