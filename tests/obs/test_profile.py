"""Profile aggregation: hot-spot tables from snapshots, and the
end-to-end attribution guarantee (profile activations equal
``MatchStats.node_activations``) on a real run."""

from repro.obs import events, profile
from repro.obs.events import ObsSnapshot
from repro.ops5.interpreter import Interpreter
from repro.programs import blocks


def synthetic_snapshot() -> ObsSnapshot:
    snap = ObsSnapshot()
    snap.nodes = {
        1: ["join", 4, 4_000_000, 12, 3],   # 4 ms self time
        2: ["not", 2, 1_000_000, 5, 0],
        3: ["term", 1, 500_000, 0, 0],
    }
    snap.locks = {"queue": [10, 2, 2_000_000, 3_000_000]}
    snap.workers = {
        "MainThread": [
            (0, 7_000_000, "phase", "match", None),
            (0, 1_000_000, "phase", "act", None),
            (0, 2_000_000, "phase", "match", None),
        ]
    }
    snap.counters = {"queue.pop": 10}
    return snap


class FakeNetwork:
    node_owner = {1: "move-block", 2: "move-block", 3: "all-done"}


class TestBuild:
    def test_node_rows_sorted_hottest_first(self):
        prof = profile.build(synthetic_snapshot())
        assert [r["node_id"] for r in prof["nodes"]] == [1, 2, 3]
        assert prof["nodes"][0]["self_ms"] == 4.0
        assert prof["nodes"][0]["production"] == "?"  # no network supplied

    def test_production_attribution_and_rollup(self):
        prof = profile.build(synthetic_snapshot(), network=FakeNetwork())
        by_name = {r["production"]: r for r in prof["productions"]}
        assert by_name["move-block"]["activations"] == 6  # nodes 1 + 2
        assert by_name["move-block"]["examined"] == 17
        assert by_name["all-done"]["activations"] == 1
        assert prof["total_activations"] == 7

    def test_lock_rows(self):
        prof = profile.build(synthetic_snapshot())
        (row,) = prof["locks"]
        assert row["label"] == "queue"
        assert row["acquires"] == 10 and row["contended"] == 2
        assert row["contention_ratio"] == 0.2
        assert row["wait_ms"] == 2.0 and row["hold_ms"] == 3.0

    def test_phases_aggregated(self):
        prof = profile.build(synthetic_snapshot())
        match = next(r for r in prof["phases"] if r["phase"] == "match")
        assert match["count"] == 2 and match["total_ms"] == 9.0
        assert prof["phases"][0]["phase"] == "match"  # hottest first


class TestRenderers:
    def test_render_text_names_productions(self):
        text = profile.render_text(
            profile.build(synthetic_snapshot(), network=FakeNetwork())
        )
        assert "move-block" in text
        assert "total activations: 7" in text
        assert "lock contention:" in text

    def test_render_empty(self):
        assert profile.render_text(profile.build(ObsSnapshot())) == (
            "(no events recorded)"
        )

    def test_to_json_is_serializable_and_complete(self):
        import json

        doc = profile.build(synthetic_snapshot(), network=FakeNetwork())
        json.dumps(doc)  # must not raise
        assert doc["total_activations"] == 7
        assert {r["production"] for r in doc["productions"]} == {
            "move-block", "all-done"
        }
        assert doc["locks"][0]["contention_ratio"] == 0.2


class TestEndToEnd:
    def test_profile_activations_equal_match_stats(self, obs):
        """The issue's acceptance criterion: per-production activation
        counts roll up to exactly ``MatchStats.node_activations``."""
        interp = Interpreter(blocks.source())
        interp.run(max_cycles=1000)
        prof = profile.build(events.snapshot(), network=interp.network)
        assert prof["total_activations"] == interp.stats.node_activations
        assert prof["total_activations"] > 0
        named = {r["production"] for r in prof["productions"]}
        assert "move-block" in named
        assert "?" not in named  # every beta node attributed
