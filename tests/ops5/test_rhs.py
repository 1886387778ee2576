"""Unit tests for threaded-code RHS evaluation."""

import pytest

from repro.ops5.errors import RuntimeOps5Error
from repro.ops5.parser import parse_production
from repro.ops5.rhs import CompiledRHS, extract_bindings
from repro.ops5.wme import WorkingMemory
from repro.rete.token import of


def setup(src: str, *wme_specs):
    """Compile a production and build a token from (class, attrs) specs."""
    prod = parse_production(src)
    wm = WorkingMemory()
    wmes = tuple(wm.add(klass, attrs) for klass, attrs in wme_specs)
    return CompiledRHS(prod), wm, of(wmes)


class TestBindings:
    def test_extract_simple(self):
        rhs, wm, tok = setup(
            "(p r (a ^x <v>) --> (halt))", ("a", {"x": 42})
        )
        assert extract_bindings(rhs.production, tok) == {"v": 42}

    def test_first_occurrence_binds(self):
        rhs, wm, tok = setup(
            "(p r (a ^x <v>) (b ^y <v>) --> (halt))",
            ("a", {"x": 1}), ("b", {"y": 1}),
        )
        assert extract_bindings(rhs.production, tok) == {"v": 1}

    def test_negated_ces_skipped(self):
        rhs, wm, tok = setup(
            "(p r (a ^x <v>) - (c ^z <w>) (b ^y <u>) --> (halt))",
            ("a", {"x": 1}), ("b", {"y": 2}),
        )
        bindings = extract_bindings(rhs.production, tok)
        assert bindings == {"v": 1, "u": 2}


class TestActions:
    def test_make(self):
        rhs, wm, tok = setup("(p r (a ^x <v>) --> (make b ^y <v>))", ("a", {"x": 9}))
        env = rhs.execute(wm, tok)
        assert len(env.changes) == 1
        assert env.changes[0].sign == 1
        assert env.changes[0].wme.klass == "b"
        assert env.changes[0].wme.get("y") == 9

    def test_remove(self):
        rhs, wm, tok = setup("(p r (a) --> (remove 1))", ("a", {}))
        env = rhs.execute(wm, tok)
        assert env.changes[0].sign == -1
        assert len(wm) == 0

    def test_modify_emits_delete_then_add(self):
        rhs, wm, tok = setup("(p r (a ^x 1) --> (modify 1 ^x 2))", ("a", {"x": 1}))
        env = rhs.execute(wm, tok)
        signs = [c.sign for c in env.changes]
        assert signs == [-1, 1]
        assert env.changes[1].wme.get("x") == 2
        assert env.changes[1].wme.timetag > env.changes[0].wme.timetag

    def test_double_modify_chains(self):
        rhs, wm, tok = setup(
            "(p r (a ^x 1) --> (modify 1 ^x 2) (modify 1 ^y 3))", ("a", {"x": 1})
        )
        env = rhs.execute(wm, tok)
        final = env.changes[-1].wme
        assert final.get("x") == 2 and final.get("y") == 3
        assert len(env.changes) == 4

    def test_modify_after_remove_raises(self):
        rhs, wm, tok = setup(
            "(p r (a) --> (remove 1) (modify 1 ^x 2))", ("a", {})
        )
        with pytest.raises(RuntimeOps5Error):
            rhs.execute(wm, tok)

    def test_modify_negated_ce_rejected_at_compile(self):
        prod = parse_production("(p r (a) - (b) --> (modify 2 ^x 1))")
        with pytest.raises(RuntimeOps5Error):
            CompiledRHS(prod)

    def test_ce_index_counts_negated(self):
        # CE numbering includes negated CEs: 'b' is CE 3.
        rhs, wm, tok = setup(
            "(p r (a) - (x) (b ^v 1) --> (modify 3 ^v 2))",
            ("a", {}), ("b", {"v": 1}),
        )
        env = rhs.execute(wm, tok)
        assert env.changes[-1].wme.klass == "b"

    def test_write(self):
        rhs, wm, tok = setup("(p r (a ^x <v>) --> (write value <v>))", ("a", {"x": 3}))
        env = rhs.execute(wm, tok)
        assert env.out == ["value 3"]

    def test_bind_then_use(self):
        rhs, wm, tok = setup(
            "(p r (a) --> (bind <n> 5) (make b ^v <n>))", ("a", {})
        )
        env = rhs.execute(wm, tok)
        assert env.changes[0].wme.get("v") == 5

    def test_halt_stops_remaining_actions(self):
        rhs, wm, tok = setup("(p r (a) --> (halt) (make b))", ("a", {}))
        env = rhs.execute(wm, tok)
        assert env.halted
        assert env.changes == []

    def test_unbound_variable_raises(self):
        rhs, wm, tok = setup("(p r (a) --> (make b ^v <nope>))", ("a", {}))
        with pytest.raises(RuntimeOps5Error):
            rhs.execute(wm, tok)


class TestCompute:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("(compute <v> + 3)", 10),
            ("(compute <v> - 3)", 4),
            ("(compute <v> * 2)", 14),
            ("(compute <v> // 2)", 3),
            ("(compute <v> \\ 4)", 3),
            ("(compute <v> + 1 * 2)", 16),  # left-to-right, OPS5 style
        ],
    )
    def test_arithmetic(self, expr, expected):
        rhs, wm, tok = setup(f"(p r (a ^x <v>) --> (make b ^v {expr}))", ("a", {"x": 7}))
        env = rhs.execute(wm, tok)
        assert env.changes[0].wme.get("v") == expected

    def test_compute_on_symbol_raises(self):
        rhs, wm, tok = setup(
            "(p r (a ^x <v>) --> (make b ^v (compute <v> + 1)))", ("a", {"x": "sym"})
        )
        with pytest.raises(RuntimeOps5Error):
            rhs.execute(wm, tok)


class TestAccept:
    def test_accept_consumes_input(self):
        rhs, wm, tok = setup("(p r (a) --> (make b ^v (accept)))", ("a", {}))
        env = rhs.execute(wm, tok, input_values=[41])
        assert env.changes[0].wme.get("v") == 41

    def test_accept_without_input_raises(self):
        rhs, wm, tok = setup("(p r (a) --> (make b ^v (accept)))", ("a", {}))
        with pytest.raises(RuntimeOps5Error):
            rhs.execute(wm, tok)
