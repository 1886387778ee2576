"""Unit tests for working memory."""

import pickle

import pytest

from repro.ops5.errors import RuntimeOps5Error
from repro.ops5.wme import WME, WMEChange, WorkingMemory


class TestWME:
    def test_make_and_get(self):
        w = WME.make("block", {"color": "red", "id": 1}, timetag=7)
        assert w.klass == "block"
        assert w.get("color") == "red"
        assert w.get("id") == 1
        assert w.timetag == 7

    def test_missing_attribute_default(self):
        w = WME.make("block", {}, timetag=1)
        assert w.get("color") is None
        assert w.get("color", "nil") == "nil"

    def test_attrs_sorted_canonically(self):
        a = WME.make("c", {"b": 2, "a": 1}, 1)
        b = WME.make("c", {"a": 1, "b": 2}, 1)
        assert a == b
        assert hash(a) == hash(b)

    def test_timetag_distinguishes(self):
        a = WME.make("c", {"a": 1}, 1)
        b = WME.make("c", {"a": 1}, 2)
        assert a != b

    def test_with_updates(self):
        w = WME.make("c", {"a": 1, "b": 2}, 1)
        w2 = w.with_updates({"a": 9}, timetag=5)
        assert w2.get("a") == 9
        assert w2.get("b") == 2
        assert w2.timetag == 5
        assert w.get("a") == 1  # original untouched

    def test_str(self):
        w = WME.make("c1", {"attr1": 12}, 3)
        assert str(w) == "(c1 ^attr1 12)"

    def test_vals_cache_consistent(self):
        w = WME.make("c", {"x": 1, "y": "s"}, 1)
        assert w.vals == {"x": 1, "y": "s"}
        assert w.as_dict == w.vals


class TestPickle:
    """A WME crosses an mp pipe as a pickle: the copy must be the same
    element, and the pickle small (it rides every ``+`` change a batch
    ships to a forked matcher)."""

    #: Four attributes, as a weaver cell carries them.
    CELL = WME.make("cell", {"x": 3, "y": 4, "net": 1, "state": "free"}, 1234)

    @pytest.mark.parametrize("w", [
        CELL, WME.make("goal", {}, 1), WME.make("c", {"a": 1.5, "b": "s"}, 9)])
    def test_a_round_trip_keeps_the_element(self, w):
        copy = pickle.loads(pickle.dumps(w, pickle.HIGHEST_PROTOCOL))
        assert copy == w and hash(copy) == hash(w)
        assert (copy.klass, copy.attrs, copy.timetag) == (w.klass, w.attrs, w.timetag)
        assert str(copy) == str(w) and repr(copy) == repr(w)
        assert copy.vals == w.vals == dict(w.attrs)
        assert copy.with_updates({"a": 2}, 99) == w.with_updates({"a": 2}, 99)

    def test_a_pickle_carries_no_vals_cache(self):
        """``vals`` is rebuilt on load, so a 4-attribute WME pickles as
        its class, attributes and timetag."""
        assert len(pickle.dumps(self.CELL, pickle.HIGHEST_PROTOCOL)) <= 80


class TestWMEChange:
    def test_valid_signs(self):
        w = WME.make("c", {}, 1)
        assert WMEChange(1, w).sign == 1
        assert WMEChange(-1, w).sign == -1

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            WMEChange(0, WME.make("c", {}, 1))


class TestWorkingMemory:
    def test_add_assigns_increasing_timetags(self):
        wm = WorkingMemory()
        a = wm.add("c", {"v": 1})
        b = wm.add("c", {"v": 2})
        assert b.timetag > a.timetag
        assert len(wm) == 2

    def test_remove(self):
        wm = WorkingMemory()
        w = wm.add("c", {})
        wm.remove(w)
        assert len(wm) == 0
        assert w not in wm

    def test_remove_absent_raises(self):
        wm = WorkingMemory()
        w = wm.add("c", {})
        wm.remove(w)
        with pytest.raises(RuntimeOps5Error):
            wm.remove(w)

    def test_modify_returns_old_and_new(self):
        wm = WorkingMemory()
        w = wm.add("c", {"v": 1})
        old, new = wm.modify(w, {"v": 2})
        assert old is w
        assert new.get("v") == 2
        assert new.timetag > old.timetag
        assert old not in wm
        assert new in wm

    def test_of_class(self):
        wm = WorkingMemory()
        wm.add("a", {})
        wm.add("b", {})
        wm.add("a", {})
        assert len([w for w in wm if w.klass == "a"]) == 2
        assert len([w for w in wm if w.klass == "b"]) == 1
        assert [w for w in wm if w.klass == "zzz"] == []

    def test_by_timetag(self):
        wm = WorkingMemory()
        w = wm.add("c", {})
        assert wm.by_timetag(w.timetag) is w
        assert wm.by_timetag(999) is None

    def test_classes_excludes_empty(self):
        wm = WorkingMemory()
        w = wm.add("a", {})
        wm.add("b", {})
        wm.remove(w)
        assert [w.klass for w in wm] == ["b"]

    def test_snapshot_ordered_by_timetag(self):
        wm = WorkingMemory()
        ws = [wm.add("c", {"i": i}) for i in range(5)]
        assert wm.snapshot() == ws

    def test_iteration(self):
        wm = WorkingMemory()
        wm.add("a", {})
        wm.add("b", {})
        assert len(list(wm)) == 2
