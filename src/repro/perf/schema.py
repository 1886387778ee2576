"""The BENCH artifact schema: identifier, shape, text form, validator.

One ``repro bench run`` emits one ``BENCH_<suite>.json`` document:

.. code-block:: json

    {
     "schema": "repro.bench/2",
     "suite": "smoke",
     "scenarios": {
      "match-weaver": {
       "title": "...",
       "metrics": {"activations": 20168.0, "wm_changes": 288.0},
       "profile": [
        [57, "join", "route-net", 310, 1240, 96]
       ]
      },
      "fabric-mp": {"title": "...", "skipped": "<reason>", "metrics": {}}
     }
    }

The document is a pure function of the tree: no run id, timestamp or
host block, so two runs of one tree write identical bytes and the
``git diff`` of the committed baseline is the history.  Every metric is
one deterministic number.  ``profile`` (profiled scenarios only) holds
one row per activated Rete node, columns :data:`PROFILE_COLUMNS`,
ordered by node id — counts only, nothing timed.

A scenario whose host precondition failed is recorded as
``{"title": ..., "skipped": "<reason>", "metrics": {}}`` — the reason
string is mandatory when ``metrics`` is empty, so an artifact can never
silently contain an unmeasured scenario.

:func:`validate_bench_doc` is the check ``repro bench compare`` applies
before trusting a file; like
:func:`repro.obs.export.validate_chrome_trace` it returns a list of
human-readable problems, empty when the document is valid.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List

#: Version tag written into every artifact.
SCHEMA_ID = "repro.bench/2"

#: Column order of one ``profile`` row.
PROFILE_COLUMNS = (
    "node_id", "kind", "production", "activations", "examined", "emitted",
)
_COLUMN_TYPES = (int, str, str, int, int, int)

#: One profile row as ``json.dumps(indent=1)`` spreads it over lines.
_SPREAD_ROW = re.compile(
    r"\[\n\s+(\d+),\n\s+(\"[^\"\n]*\"),\n\s+(\"[^\"\n]*\"),"
    r"\n\s+(\d+),\n\s+(\d+),\n\s+(\d+)\n\s+\]"
)


def dumps(doc: Dict[str, Any]) -> str:
    """The artifact's byte-stable text: sorted keys, one line per metric
    and per profile row, so a moved counter is a one-line diff that
    names its node."""
    text = json.dumps(doc, indent=1, sort_keys=True)
    return _SPREAD_ROW.sub(r"[\1, \2, \3, \4, \5, \6]", text) + "\n"


def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_profile(problems: List[str], where: str, profile: Any) -> None:
    if not isinstance(profile, list):
        problems.append(f"{where}: profile is not an array")
        return
    for i, row in enumerate(profile):
        if not isinstance(row, list) or len(row) != len(PROFILE_COLUMNS):
            problems.append(
                f"{where}: profile[{i}] is not a "
                f"{len(PROFILE_COLUMNS)}-column row"
            )
            continue
        for name, kind, value in zip(PROFILE_COLUMNS, _COLUMN_TYPES, row):
            if not isinstance(value, kind) or isinstance(value, bool):
                problems.append(
                    f"{where}: profile[{i}] {name} must be {kind.__name__}"
                )


def validate_bench_doc(doc: Any) -> List[str]:
    """Schema-check one BENCH document; empty list means valid."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    schema = doc.get("schema")
    if schema != SCHEMA_ID:
        problems.append(f"schema is {schema!r}, expected {SCHEMA_ID!r}")
    if not isinstance(doc.get("suite"), str) or not doc.get("suite"):
        problems.append("suite is missing or not a non-empty string")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict):
        problems.append("scenarios is missing or not an object")
        return problems
    for sid, scenario in scenarios.items():
        where = f"scenario {sid!r}"
        if not isinstance(scenario, dict):
            problems.append(f"{where}: not an object")
            continue
        skipped = scenario.get("skipped")
        if skipped is not None and (
            not isinstance(skipped, str) or not skipped
        ):
            problems.append(f"{where}: skipped must be a non-empty string")
        metrics = scenario.get("metrics")
        if not isinstance(metrics, dict) or (not metrics and skipped is None):
            problems.append(f"{where}: metrics missing or empty")
        else:
            for name, value in metrics.items():
                if not _is_num(value):
                    problems.append(
                        f"{where} metric {name!r}: value must be a number"
                    )
        if "profile" in scenario:
            _check_profile(problems, where, scenario["profile"])
    return problems
