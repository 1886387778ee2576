"""The activation kernel — the one match loop under every eager engine.

The paper (§3.1–3.2) has one loop — *pop a task, run the node
activation, push the children* — and varies only where a child goes and
what guards a hash line.  This module is that loop, and its body is the
activation: a node is data (:mod:`repro.rete.nodes`), and one token at
one node is one iteration of :func:`drain`, not a call.  An engine is a
scheduler and transport around it.  The sequential matcher lets the
children land straight on the drain's own LIFO stack, and so does an
mp worker, which owns every node below its roots; the threaded engine
hands in ``route(children)`` and gets each activation's children as one
list, a push onto its home task queue (DESIGN.md, "Engines are
transports over one kernel").

Only this module turns a WM change into alpha statistics, and into
root tasks for the sequential and threaded engines (an mp matcher
expands the alpha hits it is sent from its own table,
:func:`repro.parallel.mp.worker.root_tables`), runs activations (in :func:`drain`; :func:`execute` is a drain
of one queue task, entering its hash line), and attaches the
per-activation instrumentation: the ``node_hit`` hot-spot, the
``task``/``wm_change`` spans and the
:class:`~repro.rete.trace.TraceRecorder`'s task records with parent
linkage.  ``tests/rete/test_kernel.py`` checks that structurally.
Stack engines call in once per WM change or per drain, never once per
activation.

A task is the tuple ``(node, side, sign, token)``.  Only while a
recorder is attached do tasks carry a fifth element, the tid of the
task whose output spawned them (-1 for the roots of a change), so the
unrecorded path pays for the parent link with neither an object nor a
field write.
"""

from __future__ import annotations

from itertools import repeat
from operator import add
from typing import Callable, List, Optional, Tuple

from ..obs import context as _context
from ..obs import events as _obs
from ..ops5.wme import WME
from .memories import LEFT
from .network import ReteNetwork
from .nodes import AlphaTerminal, MatchContext, Task
from .stats import MatchStats
from .token import ADD, fmt
from .trace import TaskRecord, TraceRecorder

#: A task record built with no ``__init__`` frame.
_new_record = tuple.__new__

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


def drain(
    ctx: MatchContext, stack: List[Task], route: Optional[Route] = None,
    recorder: Optional[TraceRecorder] = None,
) -> int:
    """Run tasks off the LIFO ``stack`` until it is empty.  Each
    iteration is one whole activation: a terminal turns
    its token into a conflict-set change; a join or not node keys the
    token, stores or deletes it, searches the opposite memory and
    outputs.  Children go straight onto ``stack``, or, given a
    ``route``, to ``route`` as one list per activation.  Under
    ``ctx.locks`` (the threaded engine) a two-input activation first
    enters its hash line — a refusal puts the task back on ``stack``
    and ends the drain — and runs its memory update inside the §3.2
    modification bracket (a not node, which mutates left-entry counts
    while it searches, holds it throughout).  Under a ``recorder``
    every task, in and out, is a 5-tuple ending in its parent's tid.
    Counters accumulate in locals and reach ``ctx.stats`` once, when
    the drain ends.  Returns the number of activations run."""
    memory = ctx.memory
    left_mem, right_mem = memory.left, memory.right
    keyed, strict, locks = ctx.keyed, ctx.strict, ctx.locks
    cs_append = ctx.cs_deltas.append
    obs_on = _obs.ENABLED
    plain = route is None and recorder is None and not obs_on
    if recorder is not None:
        tasks, change = recorder.trace.tasks, recorder.change
        lines, line_of = recorder.lines, recorder.line_of
    push, pop = stack.append, stack.pop
    out, append, base = stack, push, 0
    start = len(stack)
    line, modifying = -1, False
    done = n_not = n_term = emitted = 0
    opp_l = opp_l_n = opp_r = opp_r_n = del_l = del_l_n = del_r = del_r_n = 0
    try:
        while stack:
            task = pop()
            done += 1
            if plain:
                node, side, sign, token = task
            else:
                if recorder is None:
                    node, side, sign, token = task
                else:
                    node, side, sign, token, parent = task
                if route is None:
                    base = len(stack)
                else:
                    out = []
                    append = out.append
                opp_seen = same_seen = 0
                if obs_on:
                    t0 = _obs.now()
            production = node.production
            if production is not None:
                n_term += 1
                cs_append((production, token, sign))
            else:
                node_id = node.node_id
                negated = node.negated
                wmes, token_key = token
                # Hash buckets already guarantee the equality tests via
                # the key; the unkeyed (linear) layout re-checks them all.
                if side == LEFT:
                    same, opposite, counted = left_mem, right_mem, negated
                    if keyed:
                        key_fn = node.left_key_fn
                        key = () if key_fn is None else key_fn(wmes)
                else:
                    same, opposite, counted = right_mem, left_mem, False
                    if keyed:
                        key_fn = node.right_key_fn
                        key = () if key_fn is None else key_fn(wmes[-1])
                if keyed:
                    passes = node.tests_fn
                else:
                    passes = node.all_tests_fn
                    key = ()
                slot = (node_id, key)
                if locks is not None:
                    line = memory.line_of(node_id, key)
                    if not locks.enter(line, side):
                        # MRSW: the other side holds the line.
                        line = -1
                        push(task)
                        done -= 1
                        break
                    locks.enter_modify(line)
                    modifying = True
                if negated:
                    n_not += 1
                # Store or delete.  A not node's left token is stored as
                # the list [token, key, count], count the consistent
                # right WMEs; index 1 is the key in a token and an entry
                # alike, so one delete scan serves both.
                if sign == ADD:
                    item = token
                    if counted:
                        count = 0
                        rights = opposite.get(slot)
                        if rights:
                            opp_seen = len(rights)
                            opp_l += opp_seen
                            opp_l_n += 1
                            for r in rights:
                                if passes is None or passes(wmes, r[0][0]):
                                    count += 1
                        item = [token, token_key, count]
                    if not strict and memory.before_insert(node_id, side, key, token_key):
                        item = None         # a parked early delete annihilated it
                    else:
                        bucket = same.get(slot)
                        if bucket is None:
                            same[slot] = [item]
                        else:
                            bucket.append(item)
                else:
                    if not strict:
                        memory.before_remove(node_id, side, key)
                    bucket = same.get(slot, ())
                    item = None
                    examined = 0
                    for stored in bucket:
                        examined += 1
                        if stored[1] == token_key:
                            item = stored
                            del bucket[examined - 1]
                            if not bucket:
                                del same[slot]
                            break
                    if examined:
                        same_seen = examined
                        if side == LEFT:
                            del_l += examined
                            del_l_n += 1
                        else:
                            del_r += examined
                            del_r_n += 1
                    if item is None:
                        if strict:
                            raise RuntimeError(
                                f"delete of unknown token {fmt(token)} at {node.kind} node {node_id}"
                            )
                        memory.park(node_id, side, key, token_key)
                if modifying and not negated:
                    locks.exit_modify(line)
                    modifying = False
                # Output.  No copy of the opposite bucket is taken:
                # whatever guards the line keeps the other side out.
                if item is None:
                    pass
                elif counted:
                    # A not node's left token is live iff its count is 0.
                    if not item[2]:
                        for child in node.children:
                            append((child, LEFT, sign, token))
                else:
                    candidates = opposite.get(slot)
                    # An empty opposite memory is left out of the Table
                    # 4-2 average: the paper's convention.
                    if candidates:
                        opp_seen = len(candidates)
                        children = node.children
                        if side == LEFT:
                            opp_l += opp_seen
                            opp_l_n += 1
                            for r in candidates:
                                w = r[0][0]
                                if passes is None or passes(wmes, w):
                                    joined = (wmes + (w,), token_key + (w.timetag,))
                                    for child in children:
                                        append((child, LEFT, sign, joined))
                        else:
                            opp_r += opp_seen
                            opp_r_n += 1
                            w = wmes[-1]
                            if negated:
                                # A blocker arriving takes a count 0 -> 1
                                # and retracts the left token; one
                                # leaving, 1 -> 0, re-asserts it.
                                edge = 1 if sign == ADD else 0
                                for entry in candidates:
                                    lt = entry[0]
                                    if passes is None or passes(lt[0], w):
                                        entry[2] += sign
                                        if entry[2] == edge:
                                            for child in children:
                                                append((child, LEFT, -sign, lt))
                            else:
                                tail = (w,)
                                tag = (w.timetag,)
                                for left_wmes, left_key in candidates:
                                    if passes is None or passes(left_wmes, w):
                                        joined = (left_wmes + tail, left_key + tag)
                                        for child in children:
                                            append((child, LEFT, sign, joined))
                if line >= 0:
                    if modifying:
                        locks.exit_modify(line)
                        modifying = False
                    locks.exit(line, side)
                    line = -1
            if not plain:
                n_out = len(out) - base
                if recorder is not None:
                    # A task that filed no bucket touched no line.
                    if production is not None:
                        where = -1
                    else:
                        where = lines.get(slot)
                        if where is None:
                            where = line_of(memory, slot)
                    tid = len(tasks)
                    tasks.append(_new_record(TaskRecord, (
                        tid, parent, node.kind, node.node_id, side, sign, where,
                        opp_seen, same_seen, n_out, change.seq,
                    )))
                    if parent < 0:
                        change.first_level.append(tid)
                    if n_out:
                        out[base:] = map(add, out[base:], repeat((tid,)))
                if route is not None and n_out:
                    emitted += n_out
                    route(out)
                if obs_on:
                    _obs.node_hit(node.node_id, node.kind, _obs.now() - t0,
                                  opp_seen + same_seen, n_out)
    finally:
        if line >= 0:
            if modifying:
                locks.exit_modify(line)
            locks.exit(line, side)
        if route is None:
            # Every push is a child: pushes = growth + pops.
            emitted = len(stack) - start + done
        stats = ctx.stats
        stats.node_activations += done
        stats.not_activations += n_not
        stats.term_activations += n_term
        stats.cs_changes += n_term
        stats.tokens_emitted += emitted
        stats.opp_examined_left += opp_l
        stats.opp_count_left += opp_l_n
        stats.opp_examined_right += opp_r
        stats.opp_count_right += opp_r_n
        stats.same_del_examined_left += del_l
        stats.same_del_count_left += del_l_n
        stats.same_del_examined_right += del_r
        stats.same_del_count_right += del_r_n
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
        recorder.begin_change(n_tests, n_hits)
        stack[:] = map(add, stack, repeat((-1,)))
    drain(ctx, stack, None, recorder)
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
    """Run one task off a queue: :func:`drain` on a one-task stack,
    which enters the task's hash line through ``ctx.locks`` (§3.2).
    Returns False when MRSW line locking refused entry — tokens from
    the other side are being processed on this line — and the caller
    must put the task back on a queue unprocessed."""
    obs_on = _obs.ENABLED
    if obs_on:
        t0 = _obs.now()
    node = task[0]
    if not drain(ctx, [task], route):
        if obs_on:
            _obs.count("task.requeued")
            _obs.span("task", "requeue", t0, _obs.now(),
                      args=_context.tag_ids({"node": node.node_id}, ids))
        return False
    if obs_on:
        # One span per task: the Chrome-trace worker timeline.
        _obs.span("task", node.kind, t0, _obs.now(),
                  args=_context.tag_ids({"node": node.node_id}, ids))
    return True
