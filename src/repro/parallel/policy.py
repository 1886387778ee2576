"""Pluggable scheduling/placement policies for the parallel engines.

The paper's speedup hinges on *where* match work runs: which worker
owns a token hash line (the mp backend's shard routing), and which
task queue a spawned activation lands on (the threaded engine and the
Encore simulator).  A :class:`Policy` packages both decisions behind
one small interface, mirroring the ray-scheduler-prototype's registry
of interchangeable schedulers replayed over one trace:

``place_lines(n_lines, n_workers)``
    Static shard placement — the ``line -> owner worker`` map the mp
    backend partitions token memories by.  Must be a pure function of
    its arguments (every forked process must compute the same map), so
    all placement is decided at construction time.

``home_for(line, pusher, seq, queues)``
    Dynamic task dispatch — which queue a task is pushed to.  ``line``
    is the task's hash line (``None`` for line-less tasks: root WM
    changes, terminal activations), ``pusher`` the pushing worker id
    (``None`` for the control process), ``seq`` a monotone push
    sequence number, ``queues`` the live queue sequence (only
    ``len(queues[i])`` may be read — depths are racy snapshots, good
    enough for load heuristics).

Registered policies (:data:`POLICY_NAMES`):

``round-robin``
    The default: pushes deal queues in sequence order, lines deal to
    workers modulo.  No load feedback.

``affinity``
    Hash-line locality: a task is routed to ``line % n_queues``, so
    every activation touching one line serializes through one queue —
    the paper's per-line mutual exclusion recast as routing.  Places
    lines in contiguous blocks per worker (the mp layout axis).

``least-loaded``
    Shallowest-queue dispatch (ties break to the lowest index), the
    classic load-balancing baseline.

``work-stealing``
    Producers push to their own queue (the control process deals
    round-robin); consumers pop home-first and steal from peers when
    empty.  Keeps spawned work cache-warm like the paper's LIFO
    queues.

``rebalance``
    Hot-shard rebalancing on top of affinity: route by line unless the
    line's home queue is *hot* (deeper than ``hot_depth`` and more
    than twice the shallowest queue), then spill to the least-loaded
    queue and count a rebalance.

A policy decides where a push lands, never whether a pop finds it: an
idle worker always scans peer queues
(:meth:`~repro.parallel.taskqueue.TaskQueueSet.pop`), so every policy
terminates with the sequential answer at any queue and worker count
(the policyck battery, the conformance matrix).  Policy objects are
cheap, per-matcher, and carry only counters as mutable state;
:func:`make_policy` builds one from its registry name.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

#: Every registered policy name, in documentation order — the registry
#: the CLI ``--policy`` flags, the serve ``open`` verb, the conformance
#: matrix, and the policyck battery validate against.
POLICY_NAMES: Tuple[str, ...] = (
    "round-robin",
    "affinity",
    "least-loaded",
    "work-stealing",
    "rebalance",
)


class Policy:
    """Base policy: shard placement plus task dispatch.

    Subclasses set ``name`` and override the two decision methods.
    ``needs_line`` tells the engine whether to compute a task's hash
    line before pushing (a ``line_hash`` per push — skipped for
    line-blind policies).
    """

    name = "?"
    needs_line = False

    def __init__(self) -> None:
        #: Dispatch decisions that overrode the natural home because it
        #: was hot (only the rebalancing policy bumps this).
        self.rebalances = 0

    # -- static placement (the mp backend's shard map) ----------------------

    def place_lines(self, n_lines: int, n_workers: int) -> Tuple[int, ...]:
        """``owner[line]`` for every line; must partition the lines."""
        raise NotImplementedError

    # -- dynamic dispatch (task queues, real and simulated) -----------------

    def home_for(
        self,
        line: Optional[int],
        pusher: Optional[int],
        seq: int,
        queues: Sequence[Sequence],
    ) -> int:
        """The queue index this task should be pushed to."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def _interleaved(n_lines: int, n_workers: int) -> Tuple[int, ...]:
        """Round-robin placement: consecutive lines on distinct workers."""
        return tuple(line % n_workers for line in range(n_lines))

    @staticmethod
    def _blocked(n_lines: int, n_workers: int) -> Tuple[int, ...]:
        """Contiguous-block placement: worker ``w`` owns one dense run
        of lines, so activations that walk neighbouring lines stay on
        one worker (the locality-aware layout)."""
        return tuple(line * n_workers // n_lines for line in range(n_lines))

    @staticmethod
    def _shallowest(queues: Sequence[Sequence]) -> int:
        best, best_depth = 0, len(queues[0])
        for qi in range(1, len(queues)):
            depth = len(queues[qi])
            if depth < best_depth:
                best, best_depth = qi, depth
        return best


class RoundRobinPolicy(Policy):
    """Sequence-order dispatch, modulo placement (the legacy default)."""

    name = "round-robin"

    def place_lines(self, n_lines: int, n_workers: int) -> Tuple[int, ...]:
        return self._interleaved(n_lines, n_workers)

    def home_for(self, line, pusher, seq, queues) -> int:
        return seq % len(queues)


class AffinityPolicy(Policy):
    """Hash-line locality: one line, one queue, one worker block."""

    name = "affinity"
    needs_line = True

    def place_lines(self, n_lines: int, n_workers: int) -> Tuple[int, ...]:
        return self._blocked(n_lines, n_workers)

    def home_for(self, line, pusher, seq, queues) -> int:
        if line is None:
            return seq % len(queues)
        return line % len(queues)


class LeastLoadedPolicy(Policy):
    """Always push to the shallowest queue (ties to the lowest index)."""

    name = "least-loaded"

    def place_lines(self, n_lines: int, n_workers: int) -> Tuple[int, ...]:
        return self._interleaved(n_lines, n_workers)

    def home_for(self, line, pusher, seq, queues) -> int:
        return self._shallowest(queues)


class WorkStealingPolicy(Policy):
    """Push local, steal on empty — the paper's LIFO cache-warm shape.

    This is also exactly how the Encore simulator always dispatched
    (workers push spawned tasks to their home queue, the control
    process deals round-robin), which is why it is the simulator's
    default: the pre-policy stable metrics are preserved bit for bit.
    """

    name = "work-stealing"

    def place_lines(self, n_lines: int, n_workers: int) -> Tuple[int, ...]:
        return self._interleaved(n_lines, n_workers)

    def home_for(self, line, pusher, seq, queues) -> int:
        if pusher is None:
            return seq % len(queues)
        return pusher % len(queues)


class RebalancePolicy(AffinityPolicy):
    """Affinity routing with hot-queue spill to the least-loaded queue."""

    name = "rebalance"

    #: A home queue this deep is a candidate for shedding (and must
    #: also be more than twice the shallowest queue's depth).
    hot_depth = 8

    def home_for(self, line, pusher, seq, queues) -> int:
        home = super().home_for(line, pusher, seq, queues)
        depth = len(queues[home])
        if depth <= self.hot_depth:
            return home
        shallow = self._shallowest(queues)
        if depth > 2 * (len(queues[shallow]) + 1):
            self.rebalances += 1
            return shallow
        return home


_POLICY_CLASSES = {
    cls.name: cls
    for cls in (
        RoundRobinPolicy,
        AffinityPolicy,
        LeastLoadedPolicy,
        WorkStealingPolicy,
        RebalancePolicy,
    )
}

assert set(_POLICY_CLASSES) == set(POLICY_NAMES)


def make_policy(spec) -> Policy:
    """Build a fresh policy instance from its registry name.

    Accepts an existing :class:`Policy` unchanged, so engines can take
    either a name or a preconfigured object.  Unknown names raise
    ``ValueError`` listing the registry, mirroring
    :func:`repro.engines.make_matcher`.
    """
    if isinstance(spec, Policy):
        return spec
    cls = _POLICY_CLASSES.get(spec)
    if cls is None:
        raise ValueError(
            f"unknown policy {spec!r}; expected one of {', '.join(POLICY_NAMES)}"
        )
    return cls()

