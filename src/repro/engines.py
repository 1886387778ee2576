"""Engine registry: one place that knows how to build every matcher.

The interpreter, the CLI, the service layer, the perf scenarios, and
the conformance suite all pick match backends by name through this
module, so adding a fourth engine means adding one entry here (and one
fixture line in ``tests/conformance/``).

Engines:

``sequential``
    :class:`~repro.rete.matcher.SequentialMatcher` — the paper's
    uniprocessor engine.  Options: ``memory``, ``n_lines``,
    ``recorder``.

``threaded``
    :class:`~repro.parallel.engine.ParallelMatcher` — thread-per-worker
    with per-line locks.  Demonstrates the paper's synchronization
    design under real interleavings but no speedup under the GIL.
    Options: ``n_workers``, ``n_queues``, ``lock_scheme``, ``n_lines``,
    ``policy`` (task dispatch, :data:`repro.parallel.policy.POLICY_NAMES`),
    ``watchdog_s``/``watchdog_dump`` (stall watchdog).

``mp``
    :class:`~repro.parallel.mp.engine.ProcessMatcher` —
    process-per-worker with shard-routed lines; the backend that can
    actually use multiple CPUs.  Options: ``n_workers``, ``n_lines``,
    ``policy`` (shard placement), ``watchdog_s``/``watchdog_dump``
    (stall watchdog).
    Requires the ``fork`` start method (see :func:`mp_supported`).

``corgi``
    :class:`~repro.corgi.engine.CorgiMatcher` — bounded-cost matching
    without beta memories: left/right unlinking, lazy (demand-driven)
    join evaluation and hoisted negation gates keep adversarial
    cross-product programs polynomial where Rete goes super-linear.
    Takes no options (it is sequential and memory-less by design).
"""

from __future__ import annotations

from typing import Optional, Tuple

from .rete.network import ReteNetwork

#: Every engine name accepted by ``make_matcher`` / ``--engine`` /
#: the serve ``open`` request, in documentation order.
ENGINE_NAMES: Tuple[str, ...] = ("sequential", "threaded", "mp", "corgi")


def mp_supported() -> bool:
    """Whether the ``mp`` engine can run on this platform."""
    from .parallel.mp import mp_supported as _supported

    return _supported()


#: The engines that run a worker pool — the only ones a dispatch /
#: placement ``policy`` or a stall watchdog means anything to.
POOL_ENGINES: Tuple[str, ...] = ("threaded", "mp")


def check_engine_opts(
    engine: str, *, policy: Optional[str] = None, watchdog_s: Optional[float] = None
) -> None:
    """Every rule about which options an engine accepts, in one place.

    Raises ``ValueError`` naming the offending value; :func:`make_matcher`
    applies it, and the CLI and the serve ``open`` handler call it on
    their raw input and map the error to their own surface
    (``SystemExit``, ``bad-request``).  Options that are merely unused
    by an engine (``n_workers`` on sequential) are not errors; ones that
    would be a silent no-op the caller asked for by name are.
    """
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINE_NAMES)}"
        )
    if policy is not None:
        from .parallel.policy import POLICY_NAMES

        if policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of "
                f"{', '.join(POLICY_NAMES)}"
            )
        if engine not in POOL_ENGINES:
            raise ValueError(
                f"policy {policy!r} requires a parallel engine "
                f"(threaded or mp), not {engine!r}"
            )
    if watchdog_s and engine not in POOL_ENGINES:
        raise ValueError(
            "a stall watchdog requires a parallel engine "
            f"(threaded or mp), not {engine!r}"
        )
    if engine == "mp" and not mp_supported():
        raise ValueError(
            "engine 'mp' needs the 'fork' start method, which this "
            "platform lacks; use 'threaded' or 'sequential'"
        )


def make_matcher(
    engine: str,
    network: ReteNetwork,
    *,
    memory: str = "hash",
    n_lines: int = 1024,
    n_workers: int = 2,
    n_queues: Optional[int] = None,
    lock_scheme: str = "simple",
    policy: Optional[str] = None,
    recorder=None,
    watchdog_s: Optional[float] = None,
    watchdog_dump: Optional[str] = None,
):
    """Build the named match backend over a compiled ``network``.

    Bad engine/option combinations raise ``ValueError``
    (:func:`check_engine_opts`), so CLI and serve-layer validation can
    simply try and re-raise.
    """
    check_engine_opts(engine, policy=policy, watchdog_s=watchdog_s)
    if engine == "sequential":
        from .rete.matcher import SequentialMatcher

        return SequentialMatcher(
            network, memory=memory, n_lines=n_lines, recorder=recorder
        )
    if engine == "threaded":
        from .parallel.engine import ParallelMatcher

        return ParallelMatcher(
            network,
            n_workers=n_workers,
            n_queues=n_queues if n_queues is not None else 1,
            lock_scheme=lock_scheme,
            n_lines=n_lines,
            policy=policy if policy is not None else "round-robin",
            watchdog_s=watchdog_s,
            watchdog_dump=watchdog_dump,
        )
    if engine == "mp":
        from .parallel.mp import ProcessMatcher

        return ProcessMatcher(
            network,
            n_workers=n_workers,
            n_lines=n_lines,
            policy=policy if policy is not None else "round-robin",
            watchdog_s=watchdog_s,
            watchdog_dump=watchdog_dump,
        )
    from .corgi.engine import CorgiMatcher

    return CorgiMatcher(network)
