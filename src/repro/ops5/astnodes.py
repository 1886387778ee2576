"""Abstract syntax for OPS5 programs.

A *program* is a sequence of ``literalize`` declarations, productions and
top-level actions (``startup`` blocks).  A *production* has a left-hand
side (ordered condition elements, possibly negated) and a right-hand side
(ordered actions).

The grammar of value tests inside a condition element:

======================  =======================================
syntax                  AST node
======================  =======================================
``red``                 ``Test('=', Lit('red'))``
``<> red``              ``Test('<>', Lit('red'))``
``> 7``                 ``Test('>', Lit(7))``
``<x>``                 ``Test('=', Var('x'))``
``> <x>``               ``Test('>', Var('x'))``
``<< red green >>``     ``Disjunction(('red', 'green'))``
``{ <x> > 2 }``         ``Conjunction((Test('=', Var('x')), Test('>', Lit(2))))``
======================  =======================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

#: The comparison operators OPS5 supports in condition elements.
PREDICATES = ("=", "<>", "<", "<=", ">", ">=", "<=>")

#: Scalar constant values: symbols are Python ``str``.
Constant = Union[str, int, float]


@dataclass(frozen=True)
class Lit:
    """A literal operand in a test, e.g. the ``red`` of ``<> red``."""

    value: Constant


@dataclass(frozen=True)
class Var:
    """A variable operand in a test, e.g. ``<x>``."""

    name: str


Operand = Union[Lit, Var]


@dataclass(frozen=True)
class Test:
    """A single predicate applied to an attribute value.

    ``op`` is one of :data:`PREDICATES`; ``operand`` is a literal or a
    variable reference.  ``Test('=', Var('x'))`` either *binds* ``x`` (on
    the variable's first occurrence in the LHS) or requires consistency
    with the prior binding.
    """

    op: str
    operand: Operand

    #: Keep pytest from trying to collect this dataclass as a test class.
    __test__ = False

    def __post_init__(self) -> None:
        if self.op not in PREDICATES:
            raise ValueError(f"unknown predicate {self.op!r}")


@dataclass(frozen=True)
class Disjunction:
    """``<< a b c >>`` — the attribute must equal one of the constants."""

    values: Tuple[Constant, ...]


@dataclass(frozen=True)
class Conjunction:
    """``{ t1 t2 ... }`` — every contained test must be satisfied."""

    tests: Tuple[Union[Test, Disjunction], ...]


ValueTest = Union[Test, Disjunction, Conjunction]


@dataclass(frozen=True)
class AttrTest:
    """One ``^attr value-test`` pair inside a condition element."""

    attr: str
    test: ValueTest


@dataclass(frozen=True)
class ConditionElement:
    """One condition element of a production's LHS."""

    klass: str
    tests: Tuple[AttrTest, ...]
    negated: bool = False

    def variables(self) -> Tuple[str, ...]:
        """All variable names referenced anywhere in this CE, in order."""
        seen = []

        def visit(t: ValueTest) -> None:
            if isinstance(t, Test):
                if isinstance(t.operand, Var) and t.operand.name not in seen:
                    seen.append(t.operand.name)
            elif isinstance(t, Conjunction):
                for sub in t.tests:
                    visit(sub)

        for at in self.tests:
            visit(at.test)
        return tuple(seen)


# ---------------------------------------------------------------------------
# RHS values and actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhsConst:
    """A constant value in an RHS expression."""

    value: Constant


@dataclass(frozen=True)
class RhsVar:
    """A variable reference in an RHS expression (LHS- or ``bind``-bound)."""

    name: str


@dataclass(frozen=True)
class RhsCompute:
    """``(compute a op b ...)`` — left-to-right arithmetic, OPS5 style.

    ``ops`` holds the operator symbols (``+ - * // \\``) between the
    ``len(ops) + 1`` operands.  ``\\`` is modulus in OPS5.
    """

    operands: Tuple["RhsValue", ...]
    ops: Tuple[str, ...]


@dataclass(frozen=True)
class RhsAccept:
    """``(accept)`` — read a value from the program's input stream."""


RhsValue = Union[RhsConst, RhsVar, RhsCompute, RhsAccept]


@dataclass(frozen=True)
class MakeAction:
    """``(make class ^a v ...)`` — add a new WME."""

    klass: str
    assigns: Tuple[Tuple[str, RhsValue], ...]


@dataclass(frozen=True)
class ModifyAction:
    """``(modify k ^a v ...)`` — change attributes of the WME matching CE k.

    ``ce_index`` is 1-based, counting *all* condition elements (negated
    CEs count for numbering but cannot be modified).
    """

    ce_index: int
    assigns: Tuple[Tuple[str, RhsValue], ...]


@dataclass(frozen=True)
class RemoveAction:
    """``(remove k)`` — delete the WME matching CE k (1-based)."""

    ce_index: int


@dataclass(frozen=True)
class WriteAction:
    """``(write v ...)`` — append values to the interpreter's output."""

    values: Tuple[RhsValue, ...]


@dataclass(frozen=True)
class BindAction:
    """``(bind <x> v)`` — bind an RHS variable."""

    var: str
    value: RhsValue


@dataclass(frozen=True)
class HaltAction:
    """``(halt)`` — stop the recognize-act cycle after this RHS."""


Action = Union[MakeAction, ModifyAction, RemoveAction, WriteAction, BindAction, HaltAction]


@dataclass(frozen=True)
class Production:
    """A complete production: name, LHS condition elements, RHS actions."""

    name: str
    ces: Tuple[ConditionElement, ...]
    actions: Tuple[Action, ...]
    line: int = 0
    #: Computed once: conflict resolution reads it for every eligible
    #: instantiation on every cycle.
    _specificity: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.ces:
            raise ValueError(f"production {self.name} has an empty LHS")
        if self.ces[0].negated:
            raise ValueError(
                f"production {self.name}: first condition element may not be negated"
            )
        total = 0
        for ce in self.ces:
            total += 1  # class test
            for at in ce.tests:
                if isinstance(at.test, Conjunction):
                    total += len(at.test.tests)
                else:
                    total += 1
        object.__setattr__(self, "_specificity", total)

    def specificity(self) -> int:
        """Number of tests in the LHS — the OPS5 specificity measure.

        Counts the class test plus every attribute test (conjunctions
        count each contained test).
        """
        return self._specificity


@dataclass(frozen=True)
class Literalize:
    """``(literalize class a1 a2 ...)`` — declares the attributes of a class."""

    klass: str
    attrs: Tuple[str, ...]


@dataclass
class Program:
    """A parsed OPS5 program.

    ``startup`` holds the actions of any top-level ``(startup ...)``
    blocks; they are executed once before the first recognize-act cycle.
    """

    literalizes: Tuple[Literalize, ...] = ()
    productions: Tuple[Production, ...] = ()
    startup: Tuple[Action, ...] = ()
    declared_attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.declared_attrs = {lit.klass: lit.attrs for lit in self.literalizes}
        counts = Counter(p.name for p in self.productions)
        dupes = [name for name, n in counts.items() if n > 1]
        if dupes:
            raise ValueError(f"duplicate production names: {sorted(dupes)}")

    def production(self, name: str) -> Production:
        for p in self.productions:
            if p.name == name:
                return p
        raise KeyError(name)
