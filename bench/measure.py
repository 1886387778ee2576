"""What one invocation measures, and how it keeps the host out of the numbers.

The hosts this benchmark runs on are small shared virtual machines.
Two things happen to them that have nothing to do with the program
(measured on the 2-core VM the baseline comes from; see README,
"Keeping the host out of the numbers"):

* the speed of a vCPU drifts by a factor of up to 1.8 over seconds to
  minutes, without any steal being accounted;
* for tens of seconds at a time the hypervisor takes CPU away (steal
  shows in ``/proc/stat``), which hardly touches a single-process run
  but doubles or triples one that needs both vCPUs (mp workers, the
  serve subprocess).

Either is larger than any bound a regression gate could use, so every
timed region is (1) interleaved with a fixed speed probe and reported
in seconds *at the reference host's speed* (:class:`HostSpeed`), and
(2) set aside when the host stole more than ``STEAL_LIMIT`` of the CPU
while it ran (:class:`Repetitions`).
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.metrics import nearest_rank

#: Set-up is sampled at least this often in a run, and (for set-ups of
#: a few milliseconds) until SETUP_SHARE of the run's ``--seconds`` has
#: been spent or SETUP_MAX_SAMPLES taken, so its median is steady.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 60
SETUP_SHARE = 0.1
#: Probes before and after each set-up sample, so that a set-up of a
#: few milliseconds still has a speed factor worth dividing by.
SETUP_EDGE_PROBES = 10

#: The speed probe is run once per this much measured time (a 2 % tax).
PROBE_EVERY_S = 0.002
#: What one probe takes on the host the committed baseline was taken
#: on (2-core Firecracker VM, Python 3.11).  Only the scale of the
#: normalised seconds depends on it.
PROBE_REF_S = 40e-6

#: A repetition is clean when the host stole at most this share of the
#: CPU time that passed while it ran.
STEAL_LIMIT = 0.02
#: A run wants this many clean repetitions and may measure for up to
#: ``STEAL_PATIENCE`` times its ``--seconds`` to get them.
CLEAN_WANTED = 3
STEAL_PATIENCE = 1.4


def median(values: Sequence[float]) -> float:
    """Lower median: always one of the samples, so it keeps its digits."""
    return nearest_rank(sorted(values), 50)


def percentile(values: Sequence[float], p: float) -> float:
    return nearest_rank(sorted(values), p)


def sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


class _Cell:
    __slots__ = ("index", "key")

    def __init__(self, index, key):
        self.index = index
        self.key = key


def _probe() -> int:
    """A fixed piece of interpreter work shaped like the program's own:
    tuple and string keys, dict stores, small objects, attribute reads."""
    table = {}
    for i in range(60):
        key = (i, "k%d" % (i & 7))
        table[key] = _Cell(i, key)
    total = 0
    for cell in table.values():
        if cell.index & 1:
            total += len(cell.key)
    return total


class HostSpeed:
    """How fast this host is running right now, next to the reference.

    ``catch_up(busy)`` runs one probe per ``PROBE_EVERY_S`` of measured
    time, between the measured calls and outside their timing;
    ``factor`` is the probe's median duration over ``PROBE_REF_S``.
    Dividing measured seconds by it gives seconds at the reference
    host's speed; ``bench.host_speed_x`` reports the factor itself.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        #: Measured time at which the next probe is due.
        self.due = 0.0

    def catch_up(self, busy: float) -> None:
        """Run the probes that ``busy`` seconds of measured time owe."""
        while busy >= self.due:
            self.due += PROBE_EVERY_S
            self.burst(1)

    def burst(self, n: int) -> None:
        # The probe allocates; a collection of the workload's heap
        # landing inside it would be charged to the host.
        gc.disable()
        for _ in range(n):
            t0 = perf_counter()
            _probe()
            self.probes.append(perf_counter() - t0)
        gc.enable()

    @property
    def factor(self) -> float:
        # The median: a probe that was preempted says nothing of speed.
        return median(self.probes) / PROBE_REF_S


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def _cpu_jiffies() -> Optional[Tuple[int, int]]:
    """(steal, total) CPU time of the machine so far, if the OS tells."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


class Repetitions:
    """Runs repetitions for ``seconds`` and says which of them are clean."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.began = perf_counter()
        self.clean = 0

    def run(self, rep: Callable[[], object]):
        """One repetition; returns (its result, whether it was clean)."""
        gc.collect()
        before = _cpu_jiffies()
        result = rep()
        after = _cpu_jiffies()
        clean = True
        if before and after and after[1] > before[1]:
            clean = (after[0] - before[0]) / (after[1] - before[1]) <= STEAL_LIMIT
        self.clean += clean
        return result, clean

    def enough(self) -> bool:
        spent = perf_counter() - self.began
        if spent < self.seconds:
            return False
        return self.clean >= CLEAN_WANTED or spent >= self.seconds * STEAL_PATIENCE


@dataclass
class Measurement:
    """Everything one workload invocation produced.

    ``run``/``steps``/``speed``/``clean`` hold one entry per untraced
    repetition: its seconds, the latencies of its steps in input order
    (a recognise-act cycle, a serve transaction, a simulator call),
    the speed factor both were divided by, and whether the host left
    it alone.  ``setup`` holds the set-up samples.  All seconds are at
    the reference host's speed.  ``attempted`` and ``failed`` count
    operations (cycles, transactions, simulator calls); a repetition
    whose output check fails counts all of its operations as failed.
    ``exact`` holds the counts that must repeat from run to run.
    ``layers`` and ``spans`` are filled by a traced invocation only.
    """

    setup: List[float] = field(default_factory=list)
    run: List[float] = field(default_factory=list)
    steps: List[List[float]] = field(default_factory=list)
    speed: List[float] = field(default_factory=list)
    clean: List[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    exact: Dict[str, float] = field(default_factory=dict)
    rates: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)
    #: Which ``resource`` scopes make up ``peak_rss_mb``.
    rss_scopes: Tuple[str, ...] = ("self",)

    def add(self, run_s: float, steps: List[float], speed: float, clean: bool) -> None:
        self.run.append(run_s)
        self.steps.append(steps)
        self.speed.append(speed)
        self.clean.append(clean)

    def fail(self, operations: int, message: str) -> None:
        self.failed += operations
        if len(self.failures) < 20:
            self.failures.append(message)

    def kept(self, values: Sequence) -> List:
        """The entries of the clean repetitions — of all, if none was."""
        return keep(values, self.clean)

    @property
    def run_s(self) -> float:
        return median(self.kept(self.run))


def keep(values: Sequence, clean: Sequence[bool]) -> List:
    chosen = [v for v, ok in zip(values, clean) if ok]
    return chosen or list(values)


def step_profile(reps: Sequence[Sequence[float]]) -> List[float]:
    """One latency per step of the workload: its median over repetitions.

    Every repetition runs the same steps in the same order, so a host
    hiccup that lands on step *i* in one repetition is voted out by the
    others, and the percentiles taken over this profile describe the
    workload's slow steps, not the host's slow moments.  Repetitions of
    unequal length (a failed run) are pooled as they are.
    """
    if len({len(rep) for rep in reps}) == 1:
        return [median(column) for column in zip(*reps)]
    return [s for rep in reps for s in rep]


def sample_setup(build: Callable[[HostSpeed], Tuple[object, Tuple[float, ...]]],
                 discard: Callable[[object], None], seconds: float):
    """Run ``build`` repeatedly; returns (totals, part samples, last product).

    ``build`` returns ``(product, part seconds)`` and lets the
    ``HostSpeed`` it is given catch up between parts; the total of the
    normalised parts is one ``setup_s`` sample.  Every product but the
    last is handed to ``discard`` (outside the timed region).
    """
    totals: List[float] = []
    parts: List[Tuple[float, ...]] = []
    product = None
    began = perf_counter()
    while True:
        if product is not None:
            discard(product)
            product = None
            gc.collect()
        speed = HostSpeed()
        speed.burst(SETUP_EDGE_PROBES)
        product, part = build(speed)
        speed.burst(SETUP_EDGE_PROBES)
        part = tuple(seconds / speed.factor for seconds in part)
        totals.append(sum(part))
        parts.append(part)
        enough = len(totals) >= SETUP_MIN_SAMPLES
        spent = perf_counter() - began
        if enough and (spent >= seconds * SETUP_SHARE
                       or len(totals) >= SETUP_MAX_SAMPLES):
            return totals, parts, product
