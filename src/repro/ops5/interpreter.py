"""The OPS5 recognize-act interpreter — the paper's *control process*.

Drives the three-phase cycle of §2.1:

1. **Match** — delegate the WM changes of the last firing to the match
   engine (sequential Rete, or the threaded parallel engine — anything
   whose ``process_changes`` turns a list of changes into conflict-set
   changes, ``(production, token, sign)`` tuples).
2. **Conflict resolution** — LEX or MEA over the conflict set, with
   refraction.
3. **Act** — execute the chosen instantiation's compiled RHS, producing
   the next batch of WM changes (and output / halt).

The interpreter is deliberately single-threaded even when the matcher
is parallel: conflict resolution, RHS evaluation and I/O all belong to
the control process (§3.1).  Each phase is called from one place and
timed by one bracket into ``Interpreter.phase_ns`` — only when someone
asked (``timed``, or the obs bus) — and nobody is billed here: who pays
for a phase is the serve layer's business.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import monotonic
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .astnodes import ConditionElement, Constant, Production, Program
from .conflict import ConflictSet, Instantiation, make_strategy
from .errors import RuntimeOps5Error
from .parser import parse_program
from .rhs import CompiledRHS
from .wme import WME, WMEChange, WorkingMemory
from ..obs import context as _context
from ..obs import events as _obs
from ..obs import flight as _flight
from ..rete.network import ReteNetwork
from ..rete.token import EMPTY
from ..rete.trace import TraceRecorder


@dataclass
class Firing:
    """One production firing, for run logs and tests."""

    cycle: int
    production: str
    timetags: tuple


@dataclass
class RunResult:
    """Outcome of :meth:`Interpreter.run` / :meth:`Interpreter.run_cycles`.

    ``halted`` means the program executed ``(halt)``; ``exhausted``
    means the cycle budget ran out while at least one eligible
    instantiation was still waiting to fire (the service layer must
    tell those apart from ordinary quiescence); ``deadline_hit`` means
    a wall-clock deadline expired first.
    """

    cycles: int
    halted: bool
    firings: List[Firing] = field(default_factory=list)
    output: List[str] = field(default_factory=list)
    exhausted: bool = False
    deadline_hit: bool = False

    @property
    def outcome(self) -> str:
        """``'halted'`` | ``'deadline'`` | ``'exhausted'`` | ``'quiescent'``."""
        if self.halted:
            return "halted"
        if self.deadline_hit:
            return "deadline"
        if self.exhausted:
            return "exhausted"
        return "quiescent"


class TransactionError(RuntimeOps5Error):
    """A batched WM transaction failed validation; nothing was applied."""


@dataclass(frozen=True)
class WMOp:
    """One operation in a batched working-memory transaction.

    The service layer's unit of ingress — a list of these is applied
    atomically (all or nothing) before the recognize-act cycles of one
    request, mirroring the paper's "WM changes per cycle" unit.
    """

    op: str  # 'make' | 'remove' | 'modify'
    klass: Optional[str] = None
    attrs: Tuple[Tuple[str, Constant], ...] = ()
    timetag: Optional[int] = None

    @staticmethod
    def make(klass: str, attrs: Optional[Mapping[str, Constant]] = None) -> "WMOp":
        return WMOp(op="make", klass=klass, attrs=tuple(sorted((attrs or {}).items())))

    @staticmethod
    def remove(timetag: int) -> "WMOp":
        return WMOp(op="remove", timetag=timetag)

    @staticmethod
    def modify(timetag: int, attrs: Mapping[str, Constant]) -> "WMOp":
        return WMOp(op="modify", timetag=timetag, attrs=tuple(sorted(attrs.items())))


class Interpreter:
    """A complete OPS5 interpreter over a pluggable match engine.

    Parameters
    ----------
    program:
        A :class:`~repro.ops5.astnodes.Program` or OPS5 source text.
    matcher:
        Any object with ``process_changes`` (the engines add the
        :class:`~repro.rete.matcher.Matcher` contract); defaults to a
        :class:`~repro.rete.matcher.SequentialMatcher` built with the
        given ``memory``/``mode``.
    engine:
        Alternative to ``matcher``: a backend name from
        :data:`repro.engines.ENGINE_NAMES` (``'sequential'``,
        ``'threaded'``, ``'mp'``, ``'corgi'``), built over the
        compiled network via
        :func:`repro.engines.make_matcher` with ``engine_opts`` as
        keyword options (e.g. ``{'n_workers': 4}``).  Mutually
        exclusive with ``matcher``.
    strategy:
        ``'lex'`` (default) or ``'mea'``.
    recorder:
        Optional :class:`~repro.rete.trace.TraceRecorder` capturing the
        task DAG for the Encore simulator (sequential matcher only; a
        ``matcher`` passed in must have been built with it).
    network:
        A prebuilt :class:`~repro.rete.network.ReteNetwork` for this
        program, e.g. from :class:`~repro.serve.netcache.NetworkCache`.
        Networks hold no per-run token state (memories live in the
        matcher), so one compiled network is shared safely by many
        interpreters.
    rhs_table:
        Prebuilt ``{production name: CompiledRHS}``, shareable for the
        same reason; compiled from ``program`` when omitted.
    """

    def __init__(
        self,
        program: Union[Program, str],
        matcher=None,
        strategy: str = "lex",
        memory: str = "hash",
        mode: str = "compiled",
        recorder: Optional[TraceRecorder] = None,
        input_values: Optional[Sequence[Constant]] = None,
        network: Optional[ReteNetwork] = None,
        rhs_table: Optional[Dict[str, CompiledRHS]] = None,
        engine: Optional[str] = None,
        engine_opts: Optional[Dict[str, object]] = None,
    ) -> None:
        if isinstance(program, str):
            program = parse_program(program)
        self.program = program
        self.network = network if network is not None else ReteNetwork.compile(
            program, mode=mode
        )
        if matcher is None:
            from ..engines import make_matcher

            opts = {"memory": memory, "recorder": recorder}
            opts.update(engine_opts or {})
            matcher = make_matcher(engine or "sequential", self.network, **opts)
        elif engine is not None:
            raise ValueError("pass either matcher= or engine=, not both")
        elif recorder is not None and getattr(matcher, "recorder", None) is not recorder:
            raise ValueError(
                "a trace recorder (recorder) needs a sequential matcher built "
                "with it; this matcher would record no tasks"
            )
        self.matcher = matcher
        self.recorder = recorder
        self.strategy = make_strategy(strategy)
        self.wm = WorkingMemory()
        # ``matcher=`` is the one door a foreign matcher (bench's span
        # proxy, a test fake with only ``process_changes``) comes
        # through, so the Matcher contract is probed here, in close()
        # and in ``stats`` — and nowhere else in the tree.
        self._strict_cs = getattr(matcher, "strict_cs", True)
        self.conflict_set = ConflictSet(strict=self._strict_cs)
        self.output: List[str] = []
        self.halted = False
        self.cycle = 0
        self.input_values: List[Constant] = list(input_values or ())
        self._rhs: Dict[str, CompiledRHS] = (
            rhs_table
            if rhs_table is not None
            else {p.name: CompiledRHS(p) for p in program.productions}
        )
        self._startup_done = False
        self._closed = False
        #: Ask for the phase ledger without the bus (``run --stats``, a
        #: metered session); passed on to the matcher, whose engine-side
        #: counts (queue wait, IPC bytes) run under the same switch.
        self.timed = False
        #: The phase ledger: nanoseconds inside each phase.  The only
        #: clock the control process reads, and only while ``timed`` or
        #: the bus is on; who is billed for it is the reader's business
        #: (:class:`~repro.serve.session.SessionCore`).
        self.phase_ns = {"match": 0, "select": 0, "act": 0}

    # -- working-memory entry points ---------------------------------------

    def add_wme(self, klass: str, attrs: Optional[dict] = None) -> WME:
        """Add a WME directly (outside any firing) and match it."""
        wme = self.wm.add(klass, attrs or {})
        self._apply_changes([WMEChange(sign=1, wme=wme)])
        return wme

    def remove_wme(self, wme: WME) -> None:
        self.wm.remove(wme)
        self._apply_changes([WMEChange(sign=-1, wme=wme)])

    def apply_transaction(self, ops: Sequence[WMOp]) -> List[int]:
        """Apply a batch of make/remove/modify ops atomically.

        Every op is validated against the current working memory before
        anything mutates; any invalid op raises
        :class:`TransactionError` and leaves WM and match state
        untouched.  Valid ops apply in order, and all resulting WM
        changes are filtered through the matcher as a single batch.

        Returns the fresh timetags created, one per ``make``/``modify``
        op in op order (clients need them to address later removes and
        modifies).
        """
        gone: set = set()
        for i, op in enumerate(ops):
            if op.op == "make":
                if not op.klass:
                    raise TransactionError(f"op {i}: make requires a class")
            elif op.op in ("remove", "modify"):
                tag = op.timetag
                if not isinstance(tag, int):
                    raise TransactionError(f"op {i}: {op.op} requires a timetag")
                if tag in gone or self.wm.by_timetag(tag) is None:
                    raise TransactionError(
                        f"op {i}: no WME with timetag {tag} ({op.op})"
                    )
                gone.add(tag)  # a later op may not target the same element
            else:
                raise TransactionError(f"op {i}: unknown op {op.op!r}")

        changes: List[WMEChange] = []
        created: List[int] = []
        for op in ops:
            if op.op == "make":
                wme = self.wm.add(op.klass, dict(op.attrs))
                changes.append(WMEChange(sign=1, wme=wme))
                created.append(wme.timetag)
            elif op.op == "remove":
                wme = self.wm.by_timetag(op.timetag)
                self.wm.remove(wme)
                changes.append(WMEChange(sign=-1, wme=wme))
            else:  # modify = remove + make with a fresh timetag
                old = self.wm.by_timetag(op.timetag)
                old, new = self.wm.modify(old, dict(op.attrs))
                changes.append(WMEChange(sign=-1, wme=old))
                changes.append(WMEChange(sign=1, wme=new))
                created.append(new.timetag)
        self._apply_changes(changes)
        return created

    def startup(self) -> None:
        """Execute the program's ``(startup ...)`` actions once."""
        if self._startup_done:
            return
        self._startup_done = True
        if not self.program.startup:
            return
        dummy = Production(
            name="<startup>",
            ces=(ConditionElement(klass="<none>", tests=()),),
            actions=self.program.startup,
        )
        env = CompiledRHS(dummy).execute(self.wm, EMPTY, self.input_values)
        self.output.extend(env.out)
        self.halted = self.halted or env.halted
        self._apply_changes(env.changes)

    def _clock(self, phase: str, t0: int, args: dict) -> None:
        """Close the bracket a phase opened at ``t0``: into the ledger,
        and onto the bus as a request-tagged ``phase`` span when on."""
        t1 = _obs.now()
        self.phase_ns[phase] += t1 - t0
        if _obs.ENABLED:
            _obs.span("phase", phase, t0, t1, args=_context.tag(args))

    def _apply_changes(self, changes: List[WMEChange]) -> int:
        timed = self.matcher.timed = self.timed
        clocked = timed or _obs.ENABLED
        try:
            if clocked:
                t0 = _obs.now()
            deltas = self.matcher.process_changes(changes)
            if clocked:
                self._clock("match", t0,
                            {"cycle": self.cycle, "changes": len(changes)})
        except Exception as exc:
            # The black box survives the crash: note the failure in the
            # flight ring and dump it (no-op unless a dump path is
            # configured), then let the original exception propagate.
            _flight.record(
                "interpreter", "match_error",
                {"cycle": self.cycle, "changes": len(changes),
                 "error": repr(exc)},
            )
            _flight.dump_on_error("match_error")
            raise
        for delta in deltas:
            self.conflict_set.apply(*delta)
        if not self._strict_cs:
            # Parallel deltas arrive unordered; after the batch every
            # count must have settled to 0 or 1.
            self.conflict_set.validate()
        return len(deltas)

    def close(self) -> None:
        """Release matcher resources (kills parallel match processes).

        Idempotent: safe to call any number of times, including after a
        ``with`` block has already closed the interpreter.
        """
        if self._closed:
            return
        self._closed = True
        closer = getattr(self.matcher, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the recognize-act cycle -------------------------------------------

    def step(self) -> Optional[Firing]:
        """One recognize-act cycle; returns the firing or None if quiescent."""
        if not self._startup_done:
            self.startup()
        if self.halted:
            return None
        clocked = self.timed or _obs.ENABLED
        if clocked:
            t0 = _obs.now()
        inst = self.strategy.select(self.conflict_set)
        if clocked:
            self._clock("select", t0, {"cycle": self.cycle})
        if inst is None:
            return None
        self.conflict_set.mark_fired(inst)  # refraction
        self.cycle += 1
        production = inst.production
        _flight.record(
            "interpreter", "fire",
            {"cycle": self.cycle, "production": production.name},
        )
        if self.recorder is not None:
            self.recorder.begin_cycle(production.name, len(production.actions))
        if clocked:
            t0 = _obs.now()
        env = self._rhs[production.name].execute(
            self.wm, inst.token, self.input_values
        )
        if clocked:
            self._clock("act", t0,
                        {"cycle": self.cycle, "production": production.name})
        self.output.extend(env.out)
        if env.halted:
            self.halted = True
        n_cs_deltas = self._apply_changes(env.changes)
        if self.recorder is not None:
            self.recorder.end_cycle(cs_deltas=n_cs_deltas)
        return Firing(
            cycle=self.cycle, production=production.name, timetags=inst.token[1]
        )

    def run_cycles(self, budget: int, deadline: Optional[float] = None) -> RunResult:
        """One resumable, budgeted slice of the recognize-act loop.

        Runs at most ``budget`` cycles from the current state (a budget
        of 0 applies no firings — useful for pure WM ingestion) and
        stops early if ``deadline`` (a ``time.monotonic()`` timestamp)
        passes.  The returned result's ``firings``/``output`` cover
        only this slice; ``cycles`` is the cumulative cycle count.
        Call again to resume exactly where the budget ran out.
        """
        firings: List[Firing] = []
        out_start = len(self.output)
        if not self._startup_done:
            self.startup()
        deadline_hit = False
        while not self.halted and len(firings) < budget:
            if deadline is not None and monotonic() >= deadline:
                deadline_hit = True
                break
            firing = self.step()
            if firing is None:
                break
            firings.append(firing)
        exhausted = (
            not self.halted
            and not deadline_hit
            and len(firings) >= budget
            and self.strategy.select(self.conflict_set) is not None
        )
        return RunResult(
            cycles=self.cycle,
            halted=self.halted,
            firings=firings,
            output=list(self.output[out_start:]),
            exhausted=exhausted,
            deadline_hit=deadline_hit,
        )

    def run(self, max_cycles: int = 100000) -> RunResult:
        """Run until halt, quiescence, or ``max_cycles``.

        ``output`` holds the full accumulated program output;
        ``result.exhausted`` distinguishes a ``max_cycles`` stop with
        work still pending from genuine quiescence.
        """
        part = self.run_cycles(max_cycles)
        return RunResult(
            cycles=self.cycle,
            halted=self.halted,
            firings=part.firings,
            output=list(self.output),
            exhausted=part.exhausted,
        )

    # -- inspection ----------------------------------------------------------

    def conflict_set_names(self) -> List[str]:
        return sorted(i.production.name for i in self.conflict_set.instantiations())

    @property
    def stats(self):
        return getattr(self.matcher, "stats", None)
