"""Test evaluation strategies: interpreted vs compiled.

The paper's central uniprocessor point (Table 4-4) is that compiling the
Rete network "directly into machine code" removes the per-node
interpretation overhead of the Lisp OPS5.  The Python analogue:

* :class:`InterpretedEvaluator` keeps the tests as *descriptor tuples*
  and walks them at match time with a generic dispatch function — one
  indirection and one operator dispatch per test, like an interpreter;
  a WME class's constant-test tree is walked node by node.
* :class:`CompiledEvaluator` generates Python source and compiles it
  once with :func:`compile`/``exec`` — the match inner loop then runs
  straight-line code with no dispatch: one function per WME class for
  its whole constant-test tree (the alpha discrimination automaton,
  :meth:`CompiledEvaluator.class_dispatch`), and one per distinct join
  test set or key.

Both build the same four things for the network: a class's alpha
dispatch (``class_dispatch``), a two-input node's tests
(``join_tests``) and its pair of key functions (``key_fns``).

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

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..ops5.wme import WME
from .nodes import AlphaTerminal, ConstantTestNode

_NUMERIC = (int, float)

AlphaDesc = Tuple
JoinDesc = Tuple[str, str, int, str]
#: One class's alpha dispatch: WME -> (alpha terminals passed, in
#: order; constant tests run, the class test included).
Dispatch = Callable[[WME], Tuple[List[AlphaTerminal], int]]


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

    def class_dispatch(
        self, terminal: Optional[AlphaTerminal], roots: Sequence[ConstantTestNode]
    ) -> Dispatch:
        """One class's alpha dispatch: the node-by-node walk of its
        constant-test tree, each test one :func:`_eval_alpha` call."""
        first = [] if terminal is None else [terminal]
        roots = tuple(roots)

        def walk(w: WME, _first=first, _roots=roots) -> Tuple[List[AlphaTerminal], int]:
            hits = list(_first)
            tests = 1  # the class test
            stack = list(_roots)
            while stack:
                node = stack.pop()
                tests += 1
                if _eval_alpha(node.desc, w):
                    hits.extend(node.terminals)
                    stack.extend(node.children)
            return hits, tests

        return walk

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


def _alpha_expr(desc: AlphaDesc, read: Dict[str, str]) -> str:
    """One alpha test as an expression over the locals ``read[attr]``,
    each holding that attribute's value (``None`` if absent)."""
    kind = desc[0]
    if kind == "const":
        _, attr, op, value = desc
        numeric = None if value is None else isinstance(value, _NUMERIC)
        return _inline(read[attr], op, repr(value), 0, numeric)
    if kind == "intra":
        _, attr, op, attr2 = desc
        return _inline(read[attr], op, read[attr2], 0)
    if kind == "disj":
        _, attr, values = desc
        return f"({read[attr]} in {set(values)!r})"
    raise ValueError(f"unknown alpha descriptor {desc!r}")


def _alpha_attrs(desc: AlphaDesc) -> Tuple[str, ...]:
    return (desc[1], desc[3]) if desc[0] == "intra" else (desc[1],)


#: Deepest indent a class function's text reaches: a sibling list
#: entered below it is generated as a function of its own (CPython's
#: tokenizer stops at 100 levels).
_MAX_DEPTH = 32
#: Most siblings one switch picks among: its ``elif`` chain nests in
#: CPython's parser and compiler, which give out near 3 000.
_MAX_SWITCH = 64


def _runs(order: Sequence[ConstantTestNode]) -> List[Sequence[ConstantTestNode]]:
    """Split one sibling list, in visit order, into runs: a single test,
    or a switch -- two or more adjacent ``=`` tests on one attribute, at
    most :data:`_MAX_SWITCH`.  At most one of a switch's tests passes
    (the tree holds no two siblings with ``==`` descriptors), so one
    dict lookup, value -> sibling index, picks it, and the index picks
    its terminals and its subtree's branch."""
    runs: List[Sequence[ConstantTestNode]] = []
    i = 0
    while i < len(order):
        head = order[i].desc[:3]
        end = i + 1
        if head[0] == "const" and head[2] == "=":
            while end < len(order) and end - i < _MAX_SWITCH and order[end].desc[:3] == head:
                end += 1
        runs.append(order[i:end])
        i = end
    return runs


def _join_expr(desc: JoinDesc, i: int) -> str:
    rattr, op, lpos, lattr = desc
    return _inline(f"w.vals.get({rattr!r})", op, f"wmes[{lpos}].vals.get({lattr!r})", i)


class CompiledEvaluator:
    """Generates and compiles straight-line Python (the 'machine code'
    analogue): one function per WME class for its alpha tree, one per
    distinct join test set or key.

    The generated functions hold no mutable state (``w`` / ``wmes`` in,
    bool, tuple or ``(hits, count)`` out; globals: ``_N``, the numeric
    classes, and a class function's terminals, lookup tables and the
    functions of its subtrees below :data:`_MAX_DEPTH`) and call no
    other Python function: every predicate, ordering included, is an
    inline expression (:func:`_inline`), so a test costs no frame of its
    own and a class's whole alpha tree one (plus one per such subtree
    entered).  Two-input nodes whose
    descriptors render to the same text share one function object —
    Figure 2-2's node sharing applied to the code — and :func:`compile`
    runs once per distinct text.  The memo lives and dies with the
    evaluator, one per :class:`~repro.rete.network.ReteNetwork`.
    """

    name = "compiled"

    def __init__(self) -> None:
        self._compiled: Dict[str, Callable] = {}
        self._generated = 0

    def _define(self, src: str, namespace: dict, name: str) -> Callable:
        """Compile and run ``src``, which defines ``name``, in
        ``namespace``; returns that function.  It is taken out of the
        namespace, so the function and its globals form no cycle."""
        self._generated += 1
        exec(compile(src, f"<rete-codegen-{self._generated}>", "exec"), namespace)
        return namespace.pop(name)

    def _exec(self, src: str, fn_name: str) -> Callable:
        fn = self._compiled.get(src)
        if fn is None:
            fn = self._compiled[src] = self._define(src, {"_N": _NUMERIC}, fn_name)
        return fn

    def class_dispatch(
        self, terminal: Optional[AlphaTerminal], roots: Sequence[ConstantTestNode]
    ) -> Dispatch:
        """One class's constant-test tree as one generated function: the
        automaton of the whole tree, with what the node walk would do
        spelled out as nested ``if`` blocks in its visit order (each
        sibling list from last to first, a passing node's terminals
        before its subtree).  Each attribute the tree tests is read
        once, into a local; a sibling list adds its length to the test
        count when it is entered; a run of ``=`` tests on one attribute
        is one dict lookup (:func:`_runs`).  Never shared: the text
        names terminals and tables by id, and a later ``add_production``
        can change a table behind the same text."""
        namespace = self._namespace()
        first = "" if terminal is None else self._name(terminal, namespace)
        roots = tuple(roots)
        reads, body = self._forest(roots, namespace)
        lines = ["def _alpha(w):", *reads, f"    hits = [{first}]",
                 f"    n = {1 + len(roots)}", *body, "    return hits, n"]
        return self._define("\n".join(lines) + "\n", namespace, "_alpha")

    def _subtree(self, siblings: Tuple[ConstantTestNode, ...]) -> Callable:
        """A sibling list and its subtrees below :data:`_MAX_DEPTH` as a
        function of their own: ``(w, hits)`` in, appends to ``hits``,
        returns the tests it counted."""
        namespace = self._namespace()
        reads, body = self._forest(siblings, namespace)
        lines = ["def _alpha(w, hits):", *reads, "    n = 0", *body, "    return n"]
        return self._define("\n".join(lines) + "\n", namespace, "_alpha")

    @staticmethod
    def _namespace() -> dict:
        # ``inf``: how ``repr`` spells a constant such as ``1e999``.
        return {"_N": _NUMERIC, "inf": math.inf}

    def _forest(self, roots: Tuple[ConstantTestNode, ...], namespace: dict):
        """The lines, indented once, that visit the sibling list
        ``roots`` and its subtrees: ``(reads, body)``, the attribute
        loads and then the tests.  The tests' names (terminals, tables,
        deeper subtrees) go into ``namespace``."""
        read: Dict[str, str] = {}  # attribute -> the local holding its value
        body: List[str] = []
        # Items run last-in first-out: a line of text, or a sibling list
        # and its indent.
        pending: list = [(roots, 1)]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                body.append(item)
                continue
            siblings, depth = item
            pad = "    " * depth
            if depth > _MAX_DEPTH:
                name = f"_f{siblings[0].node_id}"
                namespace[name] = self._subtree(siblings)
                body.append(f"{pad}n += {name}(w, hits)")
                continue
            out: list = []
            for node in siblings:
                for attr in _alpha_attrs(node.desc):
                    read.setdefault(attr, f"_v{len(read)}")
            for nodes in _runs(siblings[::-1]):
                if len(nodes) == 1:
                    out.append(f"{pad}if {_alpha_expr(nodes[0].desc, read)}:")
                    out += self._body(nodes[0], depth + 1, namespace)
                    continue
                # The passing sibling's terminals are one index into a
                # tuple; only a sibling with a subtree needs a branch.
                tag = nodes[0].node_id
                namespace[f"_D{tag}"] = {node.desc[3]: i for i, node in enumerate(nodes)}
                out += [f"{pad}_k = _D{tag}.get({read[nodes[0].desc[1]]})",
                        f"{pad}if _k is not None:"]
                if any(node.terminals for node in nodes):
                    namespace[f"_H{tag}"] = tuple(tuple(node.terminals) for node in nodes)
                    out.append(f"{pad}    hits += _H{tag}[_k]")
                branches = [(i, node) for i, node in enumerate(nodes) if node.children]
                for j, (i, node) in enumerate(branches):
                    out += [f"{pad}    {'elif' if j else 'if'} _k == {i}:",
                            f"{pad}        n += {len(node.children)}",
                            (tuple(node.children), depth + 2)]
            pending.extend(reversed(out))
        reads = ["    _g = w.vals.get"] if read else []
        reads += [f"    {local} = _g({attr!r})" for attr, local in read.items()]
        return reads, body

    @staticmethod
    def _name(terminal: AlphaTerminal, namespace: dict) -> str:
        name = f"_t{terminal.alpha_id}"
        namespace[name] = terminal
        return name

    @classmethod
    def _body(cls, node: ConstantTestNode, depth: int, namespace: dict) -> list:
        """What a passing ``node`` does: record its terminals, count and
        enter its children (a pending sibling list)."""
        pad = "    " * depth
        out: list = [f"{pad}hits.append({cls._name(t, namespace)})" for t in node.terminals]
        if node.children:
            out.append(f"{pad}n += {len(node.children)}")
            out.append((tuple(node.children), depth))
        return out

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
