"""What a metered session is charged, pinned per engine.

One :class:`SessionCore` per engine runs the same 60-transaction blocks
stream with the meter on.  The driver plays the session worker's part
(``Session._run``): it activates a request scope around each
transaction, times it, and reports the latency with ``meter.txn`` — so
what lands in the account besides ``txns`` is exactly what the engine
stack charged for the work.  The deterministic counters are literal
numbers, equal on every engine; the clocks are only held to their
shape (every phase measured, and no more phase time than wall time).
"""

from time import perf_counter

import pytest

from repro.obs import context as obs_context
from repro.obs import meter as obs_meter
from repro.programs import blocks
from repro.serve.netcache import NetworkCache
from repro.serve.session import SessionCore
from repro.serve.traffic import build

ENGINES = {
    "sequential": {},
    "threaded": {"n_workers": 2, "n_queues": 2},
    "mp": {"n_workers": 2},
    "corgi": {},
}

N_TXNS = 60
FIRINGS = 216
WM_CHANGES = 991


@pytest.fixture(autouse=True)
def metered():
    obs_meter.enable()
    yield
    obs_meter.disable()
    obs_meter.reset()


def _drive(engine):
    """Run the stream on ``engine``; returns the session and tenant
    accounts of the meter snapshot."""
    traffic = build("blocks", 0, N_TXNS, 1988)
    entry, _cached = NetworkCache().get(traffic.program)
    sid, tenant = f"s-{engine}", f"t-{engine}"
    core = SessionCore(sid, entry, engine=engine,
                       engine_opts=ENGINES[engine], tenant=tenant)
    try:
        for txn in traffic.txns:
            ctx = obs_context.new_request(session_id=sid, tenant=tenant)
            t_submit = perf_counter()
            with obs_context.scope(ctx):
                core.transact(txn.ops, txn.max_cycles)
            obs_meter.txn(sid, perf_counter() - t_submit,
                          request_id=ctx.request_id, tenant=tenant)
    finally:
        core.close()
    snap = obs_meter.snapshot()
    assert snap["schema"] == "repro.meter/1"
    return snap["sessions"][sid], snap["tenants"][tenant]


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_session_charges(engine):
    session, tenant = _drive(engine)
    counters = session["counters"]
    assert sorted(counters) == sorted(obs_meter.COUNTER_NAMES)
    # Every quantity lands twice, under the session and its tenant.
    assert tenant["counters"] == counters

    assert counters["txns"] == N_TXNS
    assert counters["firings"] == FIRINGS
    assert counters["wm_changes"] == WM_CHANGES
    assert counters["rejected_busy"] == 0
    assert counters["rejected_budget"] == 0
    assert counters["dropped_events"] == 0

    phases = [counters["match_s"], counters["select_s"], counters["act_s"]]
    assert all(s > 0 for s in phases), phases
    assert session["latency"]["count"] == N_TXNS
    assert sum(phases) * 1e3 <= session["latency"]["sum_ms"]

    # Engine-side charges: queue wait is the threaded task queues'
    # (nothing here goes through a session inbox), IPC bytes the mp
    # pipes'.
    if engine == "threaded":
        assert counters["queue_wait_s"] > 0
    else:
        assert counters["queue_wait_s"] == 0
    if engine == "mp":
        assert counters["ipc_bytes"] > 0
    else:
        assert counters["ipc_bytes"] == 0


def test_startup_at_construction_is_free():
    """``(startup ...)`` runs while the session is built, before any
    request exists: it is matched and fired but billed to no one."""
    entry, _cached = NetworkCache().get(blocks.source())
    core = SessionCore("s-startup", entry, tenant="t-startup")
    try:
        assert core.interp.stats.wme_changes > 0  # startup did match
        snap = obs_meter.snapshot()
        for acct in (snap["sessions"]["s-startup"], snap["tenants"]["t-startup"]):
            assert not any(acct["counters"].values()), acct["counters"]
        ctx = obs_context.new_request(session_id="s-startup", tenant="t-startup")
        with obs_context.scope(ctx):
            result = core.transact((), 50)
        assert result.firings
        counters = obs_meter.snapshot()["sessions"]["s-startup"]["counters"]
        assert counters["firings"] == len(result.firings)
        assert counters["match_s"] > 0
    finally:
        core.close()
