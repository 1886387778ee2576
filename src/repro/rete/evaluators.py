"""Test evaluation strategies: interpreted vs compiled.

The paper's central uniprocessor point (Table 4-4) is that compiling the
Rete network "directly into machine code" removes the per-node
interpretation overhead of the Lisp OPS5.  The Python analogue:

* :class:`InterpretedEvaluator` keeps the tests as *descriptor tuples*
  and walks them at match time with a generic dispatch function — one
  indirection and one operator dispatch per test, like an interpreter.
* :class:`CompiledEvaluator` generates Python source for every node's
  test set and compiles it once with :func:`compile`/``exec`` — the
  match inner loop then runs straight-line code with no dispatch.

Descriptor formats
------------------

Alpha (constant-test) descriptors, applied to a single WME ``w``::

    ('const', attr, op, value)      value of attr  OP  constant
    ('intra', attr, op, attr2)      value of attr  OP  value of attr2
    ('disj',  attr, values)         value of attr in frozenset(values)

Join descriptors, applied to (left token wmes, right WME ``w``)::

    (rattr, op, lpos, lattr)        w.rattr  OP  wmes[lpos].lattr

``op`` is one of ``= <> < <= > >= <=>``.

Absent means ``None``: both evaluators return ``None`` for an empty
join-test list and ``(None, None)`` for an empty key, and the two-input
node then joins, or files under ``()``, without a call.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from ..ops5.wme import WME

_NUMERIC = (int, float)

AlphaDesc = Tuple
JoinDesc = Tuple[str, str, int, str]


def compare(a, op: str, b) -> bool:
    """OPS5 comparison semantics.

    Equality/inequality work across all types.  Ordering predicates
    require both operands to be numbers or both to be symbols; a type
    mismatch (or a missing attribute) simply fails the test.  ``<=>``
    tests that both values have the same type class.
    """
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == "<=>":
        a_num = isinstance(a, _NUMERIC)
        b_num = isinstance(b, _NUMERIC)
        if a is None or b is None:
            return False
        return a_num == b_num
    if a is None or b is None:
        return False
    a_num = isinstance(a, _NUMERIC)
    b_num = isinstance(b, _NUMERIC)
    if a_num != b_num:
        return False
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown predicate {op!r}")


# ---------------------------------------------------------------------------
# Interpreted evaluation
# ---------------------------------------------------------------------------


def _eval_alpha(desc: AlphaDesc, w: WME) -> bool:
    kind = desc[0]
    if kind == "const":
        return compare(w.vals.get(desc[1]), desc[2], desc[3])
    if kind == "intra":
        return compare(w.vals.get(desc[1]), desc[2], w.vals.get(desc[3]))
    if kind == "disj":
        return w.vals.get(desc[1]) in desc[2]
    raise ValueError(f"unknown alpha descriptor {desc!r}")


def _eval_joins(descs: Sequence[JoinDesc], wmes: Tuple[WME, ...], w: WME) -> bool:
    for rattr, op, lpos, lattr in descs:
        if not compare(w.vals.get(rattr), op, wmes[lpos].vals.get(lattr)):
            return False
    return True


class InterpretedEvaluator:
    """Walks test descriptors at match time (the 'Lisp interpreter' analogue)."""

    name = "interpreted"

    def alpha_test(self, desc: AlphaDesc) -> Callable[[WME], bool]:
        def test(w: WME, _desc=desc) -> bool:
            return _eval_alpha(_desc, w)

        return test

    def join_tests(self, descs: Sequence[JoinDesc]) -> Optional[Callable]:
        descs = tuple(descs)
        if not descs:
            return None

        def test(wmes: Tuple[WME, ...], w: WME, _descs=descs) -> bool:
            return _eval_joins(_descs, wmes, w)

        return test

    def key_fns(self, eq_descs: Sequence[JoinDesc]):
        """(left_key_fn, right_key_fn) for the hash-memory eq-test key."""
        eq_descs = tuple(eq_descs)
        if not eq_descs:
            return None, None

        def left_key(wmes: Tuple[WME, ...], _descs=eq_descs) -> tuple:
            return tuple(wmes[lpos].vals.get(lattr) for (_r, _o, lpos, lattr) in _descs)

        def right_key(w: WME, _descs=eq_descs) -> tuple:
            return tuple(w.vals.get(rattr) for (rattr, _o, _p, _a) in _descs)

        return left_key, right_key


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


_SIMPLE_OPS = {"=": "==", "<>": "!="}


def _inline(lhs: str, op: str, rhs: str, i: int, rhs_numeric: Optional[bool] = None) -> str:
    """``compare(lhs, op, rhs)`` spelled as one expression that calls no
    Python function.  An ordering test (and ``<=>``) binds its operands
    to the walrus temporaries ``_a{i}`` / ``_b{i}`` — unique per
    descriptor, so several can share one generated function — and fails
    on an absent value or a number/symbol mismatch.  ``rhs_numeric`` is
    the class of a literal ``rhs``, known when the text is generated
    (``None``: read at match time)."""
    if op in _SIMPLE_OPS:
        return f"({lhs} {_SIMPLE_OPS[op]} {rhs})"
    if op not in ("<", "<=", ">", ">=", "<=>"):
        raise ValueError(f"unknown predicate {op!r}")
    a = f"_a{i}"
    if rhs_numeric is None:
        b = f"_b{i}"
        guard = (f"({a} := {lhs}) is not None and ({b} := {rhs}) is not None"
                 f" and isinstance({a}, _N) is isinstance({b}, _N)")
    elif rhs_numeric:  # an absent value fails isinstance on its own
        b = rhs
        guard = f"isinstance({a} := {lhs}, _N)"
    else:
        b = rhs
        guard = f"({a} := {lhs}) is not None and not isinstance({a}, _N)"
    if op == "<=>":
        return f"({guard})"
    return f"({guard} and {a} {op} {b})"


def _alpha_expr(desc: AlphaDesc) -> str:
    kind = desc[0]
    if kind == "const":
        _, attr, op, value = desc
        numeric = None if value is None else isinstance(value, _NUMERIC)
        return _inline(f"w.vals.get({attr!r})", op, repr(value), 0, numeric)
    if kind == "intra":
        _, attr, op, attr2 = desc
        return _inline(f"w.vals.get({attr!r})", op, f"w.vals.get({attr2!r})", 0)
    if kind == "disj":
        _, attr, values = desc
        return f"(w.vals.get({attr!r}) in {set(values)!r})"
    raise ValueError(f"unknown alpha descriptor {desc!r}")


def _join_expr(desc: JoinDesc, i: int) -> str:
    rattr, op, lpos, lattr = desc
    return _inline(f"w.vals.get({rattr!r})", op, f"wmes[{lpos}].vals.get({lattr!r})", i)


class CompiledEvaluator:
    """Generates and compiles straight-line Python per distinct test (the
    'machine code' analogue).

    The generated functions are pure (``w`` / ``wmes`` in, bool or tuple
    out, one global: ``_N``, the numeric classes) and call no Python
    function: every predicate, ordering included, is an inline
    expression (:func:`_inline`), so a test costs its own frame and no
    other.  Nodes whose descriptors render to the same text share one
    function object — Figure 2-2's node sharing applied to the code —
    and :func:`compile` runs once per distinct text.  The memo lives and
    dies with the evaluator, one per
    :class:`~repro.rete.network.ReteNetwork`.
    """

    name = "compiled"

    def __init__(self) -> None:
        self._compiled: Dict[str, Callable] = {}

    def _exec(self, src: str, fn_name: str):
        fn = self._compiled.get(src)
        if fn is None:
            namespace = {"_N": _NUMERIC}
            code = compile(src, f"<rete-codegen-{len(self._compiled) + 1}>", "exec")
            exec(code, namespace)
            fn = self._compiled[src] = namespace[fn_name]
        return fn

    def alpha_test(self, desc: AlphaDesc) -> Callable[[WME], bool]:
        src = f"def _t(w):\n    return {_alpha_expr(desc)}\n"
        return self._exec(src, "_t")

    def join_tests(self, descs: Sequence[JoinDesc]) -> Optional[Callable]:
        descs = tuple(descs)
        if not descs:
            return None
        body = " and ".join(_join_expr(d, i) for i, d in enumerate(descs))
        src = f"def _t(wmes, w):\n    return {body}\n"
        return self._exec(src, "_t")

    def key_fns(self, eq_descs: Sequence[JoinDesc]):
        eq_descs = tuple(eq_descs)
        if not eq_descs:
            return None, None
        lparts = ", ".join(
            f"wmes[{lpos}].vals.get({lattr!r})" for (_r, _o, lpos, lattr) in eq_descs
        )
        rparts = ", ".join(f"w.vals.get({rattr!r})" for (rattr, _o, _p, _a) in eq_descs)
        lsrc = f"def _lk(wmes):\n    return ({lparts},)\n"
        rsrc = f"def _rk(w):\n    return ({rparts},)\n"
        return self._exec(lsrc, "_lk"), self._exec(rsrc, "_rk")


def make_evaluator(mode: str):
    """Factory: ``mode`` is ``'compiled'`` or ``'interpreted'``."""
    if mode == "compiled":
        return CompiledEvaluator()
    if mode == "interpreted":
        return InterpretedEvaluator()
    raise ValueError(f"unknown evaluation mode {mode!r}")
