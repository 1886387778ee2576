"""repro.obs — unified tracing, metrics, and profiling.

One observability layer shared by every engine in the repository: the
sequential Rete matcher, the threaded parallel runtime, the mp
backend's forked match processes (:mod:`repro.obs.fabric`: each ships
what it recorded with its reports and is filed as one more writer
of the control process's bus), the OPS5 recognize-act interpreter, and
the service layer all report into the same structured event bus
(:mod:`repro.obs.events`), which feeds

* hot-spot profiles (:mod:`repro.obs.profile`) — per-node,
  per-production, per-lock, and per-phase tables, and
* exporters (:mod:`repro.obs.export`) — Chrome-trace JSON for
  ``chrome://tracing``/Perfetto (one document for every process, with
  dispatch and request flow arrows), and a Prometheus-style text
  exposition of the service counters.

Around the opt-in bus sit two always-available diagnostics:

* the flight recorder (:mod:`repro.obs.flight`) — a fixed-size
  always-on ring of recent engine events plus the last-known tail of
  the most recent worker processes, dumped as a schema-versioned
  snapshot on demand, on unhandled engine error, or on watchdog trip;
* the stall watchdog (:mod:`repro.obs.watchdog`) — no-progress
  detection for the parallel engines, emitting a self-describing
  diagnostic bundle (queue depths, lock holders, flight tails).

The paper's contribution is *measured* — nine tables of timings and
contention counts — and this package is the runtime evidence chain for
our own measurements: every instrumentation point is guarded by a
module-level enabled flag so a disabled build pays one attribute read
per probe and allocates nothing (see docs/OBSERVABILITY.md for the
overhead guarantee).
"""

from .events import disable, enable, enabled, reset, snapshot

__all__ = ["enable", "disable", "enabled", "reset", "snapshot"]
