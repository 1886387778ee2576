"""RHS evaluation — the paper's threaded-code analogue (§3.3).

Each production's RHS is compiled once, at network-build time, into a
list of small Python closures ("threaded code": an array of operation
addresses walked by a trivial dispatch loop).  Executing an RHS walks
the list, producing a list of :class:`~repro.ops5.wme.WMEChange`
objects plus any output text; the *control process* applies the changes
to working memory and hands them to the matcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .astnodes import (
    Action,
    BindAction,
    Conjunction,
    Constant,
    HaltAction,
    MakeAction,
    ModifyAction,
    Production,
    RemoveAction,
    RhsAccept,
    RhsCompute,
    RhsConst,
    RhsValue,
    RhsVar,
    Test,
    Var,
    WriteAction,
)
from .collector import collector_paused
from .errors import RuntimeOps5Error
from .wme import WME, WMEChange, WorkingMemory
from ..rete.token import Token


@dataclass
class RhsEnv:
    """Execution environment for one RHS firing."""

    wm: WorkingMemory
    token: Token
    bindings: Dict[str, Constant]
    out: List[str] = field(default_factory=list)
    changes: List[WMEChange] = field(default_factory=list)
    halted: bool = False
    #: CE-number -> current WME; updated as modifies replace elements.
    ce_wmes: Dict[int, Optional[WME]] = field(default_factory=dict)
    #: Values consumed by ``(accept)``.
    input_values: List[Constant] = field(default_factory=list)


ThreadedOp = Callable[[RhsEnv], None]


def binding_plan(production: Production) -> Tuple[Tuple[str, int, str], ...]:
    """``(variable, token position, attribute)`` for each LHS variable.

    Walks the LHS the same way the network compiler does, so a variable
    is bound by its first ``=`` occurrence in a positive CE.
    """
    plan: Dict[str, Tuple[str, int, str]] = {}
    pos = 0
    for ce in production.ces:
        if ce.negated:
            continue
        for at in ce.tests:
            tests = at.test.tests if isinstance(at.test, Conjunction) else (at.test,)
            for t in tests:
                if isinstance(t, Test) and t.op == "=" and isinstance(t.operand, Var):
                    plan.setdefault(t.operand.name, (t.operand.name, pos, at.attr))
        pos += 1
    return tuple(plan.values())


def _bind(plan, wmes: Tuple[WME, ...]) -> Dict[str, Constant]:
    n = len(wmes)  # startup fires on the empty token
    return {var: wmes[pos].vals.get(attr) for var, pos, attr in plan if pos < n}


def extract_bindings(production: Production, token: Token) -> Dict[str, Constant]:
    """Variable bindings implied by an instantiation's WMEs."""
    return _bind(binding_plan(production), token[0])


class CompiledRHS:
    """The threaded-code form of one production's RHS."""

    @collector_paused
    def __init__(self, production: Production) -> None:
        self.production = production
        self._ce_token_pos = _ce_positions(production)
        #: Computed once: ``execute`` binds from it without touching the AST.
        self._plan = binding_plan(production)
        self.ops: List[ThreadedOp] = [self._compile_action(a) for a in production.actions]

    # -- public ------------------------------------------------------------

    def execute(
        self,
        wm: WorkingMemory,
        token: Token,
        input_values: Optional[List[Constant]] = None,
    ) -> RhsEnv:
        """Run the RHS against ``wm``; returns the populated environment.

        ``input_values`` is the ``(accept)`` stream itself, consumed in place.
        """
        wmes = token[0]
        env = RhsEnv(
            wm=wm,
            token=token,
            bindings=_bind(self._plan, wmes),
            input_values=input_values if input_values is not None else [],
        )
        for i, pos in self._ce_token_pos.items():
            env.ce_wmes[i] = wmes[pos] if pos < len(wmes) else None
        for op in self.ops:
            op(env)
            if env.halted:
                break
        return env

    # -- compilation --------------------------------------------------------

    def _compile_action(self, action: Action) -> ThreadedOp:
        if isinstance(action, MakeAction):
            assigns = [(a, _compile_value(v)) for a, v in action.assigns]
            klass = action.klass

            def op_make(env: RhsEnv) -> None:
                attrs = {a: fn(env) for a, fn in assigns}
                wme = env.wm.add(klass, attrs)
                env.changes.append(WMEChange(sign=1, wme=wme))

            return op_make

        if isinstance(action, ModifyAction):
            assigns = [(a, _compile_value(v)) for a, v in action.assigns]
            index = action.ce_index
            if index not in self._ce_token_pos:
                raise RuntimeOps5Error(
                    f"{self.production.name}: modify {index} refers to a "
                    f"negated or out-of-range condition element"
                )

            def op_modify(env: RhsEnv) -> None:
                target = env.ce_wmes.get(index)
                if target is None:
                    raise RuntimeOps5Error(
                        f"{self.production.name}: modify {index} after the "
                        f"element was removed"
                    )
                updates = {a: fn(env) for a, fn in assigns}
                old, new = env.wm.modify(target, updates)
                env.ce_wmes[index] = new
                env.changes.append(WMEChange(sign=-1, wme=old))
                env.changes.append(WMEChange(sign=1, wme=new))

            return op_modify

        if isinstance(action, RemoveAction):
            index = action.ce_index
            if index not in self._ce_token_pos:
                raise RuntimeOps5Error(
                    f"{self.production.name}: remove {index} refers to a "
                    f"negated or out-of-range condition element"
                )

            def op_remove(env: RhsEnv) -> None:
                target = env.ce_wmes.get(index)
                if target is None:
                    raise RuntimeOps5Error(
                        f"{self.production.name}: remove {index} repeated"
                    )
                env.wm.remove(target)
                env.ce_wmes[index] = None
                env.changes.append(WMEChange(sign=-1, wme=target))

            return op_remove

        if isinstance(action, WriteAction):
            value_fns = [_compile_value(v) for v in action.values]

            def op_write(env: RhsEnv) -> None:
                env.out.append(" ".join(str(fn(env)) for fn in value_fns))

            return op_write

        if isinstance(action, BindAction):
            var = action.var
            fn = _compile_value(action.value)

            def op_bind(env: RhsEnv) -> None:
                env.bindings[var] = fn(env)

            return op_bind

        if isinstance(action, HaltAction):

            def op_halt(env: RhsEnv) -> None:
                env.halted = True

            return op_halt

        raise RuntimeOps5Error(f"unknown action type {type(action).__name__}")


def _ce_positions(production: Production) -> Dict[int, int]:
    """Map 1-based CE numbers to token positions (positive CEs only)."""
    mapping: Dict[int, int] = {}
    pos = 0
    for i, ce in enumerate(production.ces, start=1):
        if not ce.negated:
            mapping[i] = pos
            pos += 1
    return mapping


def _compile_value(value: RhsValue) -> Callable[[RhsEnv], Constant]:
    if isinstance(value, RhsConst):
        v = value.value
        return lambda env: v
    if isinstance(value, RhsVar):
        name = value.name

        def get_var(env: RhsEnv) -> Constant:
            if name not in env.bindings:
                raise RuntimeOps5Error(f"unbound RHS variable <{name}>")
            return env.bindings[name]

        return get_var
    if isinstance(value, RhsCompute):
        operand_fns = [_compile_value(v) for v in value.operands]
        ops = value.ops

        def compute(env: RhsEnv) -> Constant:
            acc = _as_number(operand_fns[0](env))
            for op, fn in zip(ops, operand_fns[1:]):
                rhs = _as_number(fn(env))
                if op == "+":
                    acc = acc + rhs
                elif op == "-":
                    acc = acc - rhs
                elif op == "*":
                    acc = acc * rhs
                elif op == "//":
                    acc = acc // rhs
                elif op == "\\":
                    acc = acc % rhs
                else:  # pragma: no cover - parser rejects unknown ops
                    raise RuntimeOps5Error(f"unknown compute operator {op!r}")
            return acc

        return compute
    if isinstance(value, RhsAccept):

        def accept(env: RhsEnv) -> Constant:
            if not env.input_values:
                raise RuntimeOps5Error("(accept) with no pending input")
            return env.input_values.pop(0)

        return accept
    raise RuntimeOps5Error(f"unknown RHS value type {type(value).__name__}")


def _as_number(v: Constant):
    if isinstance(v, (int, float)):
        return v
    raise RuntimeOps5Error(f"compute applied to non-number {v!r}")
