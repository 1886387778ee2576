"""Set-up runs with the cyclic garbage collector paused.

The paper compiles a production system ahead of time, so the Multimax
pays nothing between source text and the first cycle.  Here set-up
(``parse_program``, ``ReteNetwork.compile``, ``CompiledRHS`` and corgi's
``compile_plans``) allocates container objects by the hundred thousand,
and every 700 of them the collector walks the young generation looking
for cycles: unpaused, weaver 8×4's set-up runs ~187 young, 16 middle
and one full collection, 25–50 ms.  Set-up makes no cyclic garbage —
every cycle it builds is still reachable when it returns
(``tests/rete/test_setup_garbage.py`` holds it there) — so a collection
during it can reclaim nothing, and :func:`collector_paused` skips them.
The objects set-up leaves are scanned once, by the first collection
after it.

The switch is process-wide.  Set-up runs on the thread that asked for
it, and nothing in the tree runs two set-ups on two threads at once.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def collector_paused(fn: F) -> F:
    """``fn`` runs with ``gc`` disabled; the caller's state comes back
    on return and on raise.  A caller that already disabled ``gc`` (an
    enclosing set-up call, or the caller's own choice) keeps it so."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]
