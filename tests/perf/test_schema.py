"""BENCH artifact schema validation and text form."""

import json

from repro.perf.schema import dumps, validate_bench_doc

from .helpers import make_doc, make_scenario


def valid_doc():
    return make_doc({
        "s": make_scenario(
            {"m": 1.0, "n": 20168},
            profile=[[3, "join", "p", 2, 4, 1], [4, "term", "p", 1, 0, 0]],
        ),
        "t": make_scenario({}, skipped="host cannot"),
    })


class TestValidateBenchDoc:
    def test_valid_doc_passes(self):
        assert validate_bench_doc(valid_doc()) == []

    def test_not_an_object(self):
        assert validate_bench_doc([]) == ["document is not a JSON object"]

    def test_missing_top_level_fields(self):
        problems = validate_bench_doc({})
        assert any("schema" in p for p in problems)
        assert any("suite" in p for p in problems)
        assert any("scenarios" in p for p in problems)

    def test_unknown_schema_family(self):
        for schema in ("other.format/9", "repro.bench/1"):
            doc = valid_doc()
            doc["schema"] = schema
            assert any("expected 'repro.bench/2'" in p
                       for p in validate_bench_doc(doc))

    def test_counter_values_must_be_numbers(self):
        for bad in ("lots", None, True, {"median": 1.0}):
            doc = valid_doc()
            doc["scenarios"]["s"]["metrics"]["m"] = bad
            assert any("value must be a number" in p
                       for p in validate_bench_doc(doc))

    def test_unmeasured_scenario_needs_a_reason(self):
        doc = valid_doc()
        del doc["scenarios"]["t"]["skipped"]
        assert any("metrics missing or empty" in p
                   for p in validate_bench_doc(doc))
        doc["scenarios"]["t"]["skipped"] = ""
        assert any("non-empty string" in p for p in validate_bench_doc(doc))

    def test_profile_rows_need_keys(self):
        doc = valid_doc()
        doc["scenarios"]["s"]["profile"] = [[3, "join", "p", 2, 4]]
        assert any("6-column row" in p for p in validate_bench_doc(doc))
        doc["scenarios"]["s"]["profile"] = [[3, "join", "p", 2.5, 4, 1]]
        assert any("activations must be int" in p
                   for p in validate_bench_doc(doc))
        doc["scenarios"]["s"]["profile"] = {"nodes": []}
        assert any("not an array" in p for p in validate_bench_doc(doc))

    def test_profile_optional(self):
        doc = valid_doc()
        del doc["scenarios"]["s"]["profile"]
        assert validate_bench_doc(doc) == []


class TestDumps:
    def test_round_trips_with_one_line_per_row_and_metric(self):
        doc = valid_doc()
        text = dumps(doc)
        assert json.loads(text) == doc
        lines = text.splitlines()
        assert '    [3, "join", "p", 2, 4, 1],' in lines
        assert '    "m": 1.0,' in lines
        assert text.endswith("}\n")

    def test_key_order_does_not_reach_the_bytes(self):
        doc = valid_doc()
        flipped = dict(reversed(list(doc.items())))
        flipped["scenarios"] = dict(reversed(list(doc["scenarios"].items())))
        assert dumps(flipped) == dumps(doc)
