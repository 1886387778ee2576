"""Builders for synthetic BENCH documents used across the perf tests."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.perf.schema import SCHEMA_ID


def make_scenario(
    metrics: Dict[str, float],
    profile: Optional[List[list]] = None,
    skipped: Optional[str] = None,
) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"title": "synthetic", "metrics": metrics}
    if profile is not None:
        entry["profile"] = profile
    if skipped is not None:
        entry["skipped"] = skipped
    return entry


def make_doc(scenarios: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {"schema": SCHEMA_ID, "suite": "smoke", "scenarios": scenarios}
