"""Golden simulated counters: a committed record of what each query costs.

The executor's contract is that rows and every simulated statistic are
independent of how the plan is driven (batch size, serial or parallel).
Comparing runs with each other only proves they agree; this module pins them
to a fixed record instead.  ``tests/fixtures/golden_counters.json`` holds one
entry per named scenario -- the fuzz seeds of
``tests/engine/test_fuzz_parity.py``, the Figure 1 lookups of
``benchmarks/test_batch_parity.py`` and the parity scenarios of
``tests/engine/test_batched_executor.py`` -- and :func:`assert_golden`
requires a fresh result to reproduce its entry bit for bit.

Re-recording is deliberate and rare: run the three modules with
``REPRO_GOLDEN_RECORD=1`` (and ``--fuzz-iterations 200``) from a checkout
whose counters are known good; entries are written on first sight and every
later run of the same key in that session must agree with the first.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
from pathlib import Path
from typing import Any

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_counters.json"

#: Seeds of each fuzzer the fixture covers (the CI corpus).
GOLDEN_FUZZ_SEEDS = 200

_RECORDING = bool(os.environ.get("REPRO_GOLDEN_RECORD"))
_entries: dict[str, Any] | None = None

_IO_FIELDS = (
    "sequential_reads",
    "random_reads",
    "sequential_writes",
    "random_writes",
    "log_flushes",
    "log_pages_written",
    "cpu_tuples",
)


def rows_digest(rows: list[dict[str, Any]]) -> str:
    """sha256 of the rows in order, each with its keys sorted."""
    payload = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def record_of(result: Any, *, rows: bool = True) -> dict[str, Any]:
    """The golden view of one ``QueryResult``.

    ``rows=False`` leaves out the row digest and the value, for runs whose
    float aggregates may legitimately drift in the last ulps (parallel
    partial merging); every counter is still included.
    """
    record: dict[str, Any] = {
        "access_method": result.access_method,
        "rows_examined": result.rows_examined,
        "rows_matched": result.rows_matched,
        "rows_emitted": result.rows_emitted,
        "pages_visited": result.pages_visited,
        "join_probes": result.join_probes,
        "io": {name: getattr(result.io, name) for name in _IO_FIELDS},
        "elapsed_ms": result.elapsed_ms,
        "rewritten_sql": result.rewritten_sql,
        "nodes": [
            [
                node.label(),
                node.actual.rows_out,
                node.actual.rows_examined,
                node.actual.pages_visited,
                node.actual.lookups,
                node.actual.join_probes,
            ]
            for node in result.plan.walk()
        ],
    }
    if rows:
        record["rows_sha256"] = rows_digest(result.rows)
        record["value"] = result.value
    return record


def _load() -> dict[str, Any]:
    global _entries
    if _entries is None:
        if GOLDEN_PATH.exists():
            _entries = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        else:
            _entries = {}
        if _RECORDING:
            atexit.register(_save)
    return _entries


def _save() -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    # One entry per line: compact, yet a re-recording diffs entry by entry.
    lines = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}"
        for key, entry in sorted(_entries.items())
    )
    GOLDEN_PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")


def has_golden(key: str) -> bool:
    return _RECORDING or key in _load()


def assert_golden(key: str, result: Any, *, rows: bool = True) -> None:
    """``result`` must reproduce the fixture entry ``key`` exactly."""
    entries = _load()
    fresh = record_of(result, rows=rows)
    if key not in entries:
        assert _RECORDING, f"no golden entry {key!r} in {GOLDEN_PATH.name}"
        entries[key] = record_of(result)
        return
    expected = entries[key]
    if not rows:
        expected = {
            name: value
            for name, value in expected.items()
            if name not in ("rows_sha256", "value")
        }
    # JSON turns node rows into lists; compare like with like.
    assert json.loads(json.dumps(fresh)) == expected, f"golden mismatch for {key}"
