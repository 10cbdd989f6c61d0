"""Hand-rolled validators for the telemetry artifact schemas.

No jsonschema dependency: each artifact kind (series / trace rows, the
run manifest) gets a small structural checker that returns a list of
human-readable problem strings — empty means valid.
The CI telemetry smoke job runs ``python -m repro.obs validate DIR``
over a real run, so these checkers *are* the schema documentation's
executable form (the prose lives in EXPERIMENTS.md).

Checks are exact: unexpected keys are errors, not ignored — the schemas
are this repo's own output format, so any drift between writer and
checker is a bug worth failing on.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple, Union

from .trace import SPAN_KINDS

__all__ = [
    "SCHEMA_VERSIONS",
    "header_line",
    "header_row",
    "is_header_row",
    "load_jsonl",
    "validate_header",
    "validate_manifest",
    "validate_run_dir",
    "validate_series_row",
    "validate_trace_row",
]

#: Current schema version of every JSONL artifact kind.  The first row
#: of each file is a header — ``{"artifact": kind, "schema_version": N}``
#: — so readers can reject files written by an incompatible future
#: build with a clear error instead of a KeyError three fields in.
SCHEMA_VERSIONS = {
    "series": 1,
    "trace": 2,
}


def header_row(kind: str) -> Dict[str, Any]:
    """The header row every ``kind`` JSONL artifact starts with."""
    return {"artifact": kind, "schema_version": SCHEMA_VERSIONS[kind]}


def header_line(kind: str) -> str:
    """:func:`header_row` serialized exactly as the writers emit it."""
    return json.dumps(header_row(kind), sort_keys=True,
                      separators=(",", ":"))


def is_header_row(row: Any) -> bool:
    """True for a schema header row (of any artifact kind/version)."""
    return isinstance(row, dict) and "schema_version" in row


def load_jsonl(path: Union[str, Path]) -> List[Any]:
    """Read a JSONL artifact's data rows, skipping the schema header.

    The lenient reader the dashboards use: no validation beyond JSON
    parsing (run ``validate_run_dir`` for that), tolerant of files
    predating the header row.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            if not is_header_row(row):
                rows.append(row)
    return rows

#: JSON numbers (bool is an int subclass in Python; exclude explicitly).
def _is_num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(row: Dict[str, Any], required: Tuple[str, ...],
                where: str) -> List[str]:
    problems = []
    for key in required:
        if key not in row:
            problems.append(f"{where}: missing key {key!r}")
    for key in row:
        if key not in required:
            problems.append(f"{where}: unexpected key {key!r}")
    return problems


_SERIES_KEYS = ("access", "part", "occupancy", "target", "alpha",
                "miss_rate", "insertions", "evictions")


def validate_series_row(row: Any, where: str = "series") -> List[str]:
    """Problems with one ``series/*.jsonl`` row (empty list = valid)."""
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    problems = _check_keys(row, _SERIES_KEYS, where)
    for key in ("access", "part", "occupancy", "target",
                "insertions", "evictions"):
        value = row.get(key)
        if not _is_int(value) or value < 0:
            problems.append(f"{where}: {key!r} must be an int >= 0")
    if _is_int(row.get("access")) and row["access"] < 1:
        problems.append(f"{where}: 'access' must be >= 1")
    alpha = row.get("alpha")
    if alpha is not None and not _is_num(alpha):
        problems.append(f"{where}: 'alpha' must be a number or null")
    rate = row.get("miss_rate")
    if rate is not None and not (_is_num(rate) and 0.0 <= rate <= 1.0):
        problems.append(f"{where}: 'miss_rate' must be null or in [0, 1]")
    return problems


_TRACE_KEYS = ("trace", "span", "parent", "kind", "name", "key",
               "attempt", "status", "events", "wall")
_TRACE_STATUSES = ("ok", "error", "cached", "failed", "pending")
_TRACE_WALL_KEYS = ("start", "end", "worker")


def validate_trace_row(row: Any, where: str = "trace") -> List[str]:
    """Problems with one ``traces/trace.jsonl`` row (empty list = valid)."""
    if not isinstance(row, dict):
        return [f"{where}: row must be an object, got {type(row).__name__}"]
    problems = _check_keys(row, _TRACE_KEYS, where)
    for key in ("trace", "span"):
        value = row.get(key)
        if not isinstance(value, str) or not value:
            problems.append(f"{where}: {key!r} must be a non-empty string")
    parent = row.get("parent")
    if parent is not None and not (isinstance(parent, str) and parent):
        problems.append(
            f"{where}: 'parent' must be a non-empty string or null")
    if row.get("kind") not in SPAN_KINDS:
        problems.append(
            f"{where}: 'kind' must be one of {list(SPAN_KINDS)}")
    for key in ("name", "key"):
        if not isinstance(row.get(key), str):
            problems.append(f"{where}: {key!r} must be a string")
    if not _is_int(row.get("attempt")) or row.get("attempt", 0) < 0:
        problems.append(f"{where}: 'attempt' must be an int >= 0")
    if row.get("status") not in _TRACE_STATUSES:
        problems.append(
            f"{where}: 'status' must be one of {list(_TRACE_STATUSES)}")
    events = row.get("events")
    if not isinstance(events, list):
        problems.append(f"{where}: 'events' must be a list")
    else:
        for n, event in enumerate(events):
            ewhere = f"{where}.events[{n}]"
            if not isinstance(event, dict):
                problems.append(f"{ewhere}: must be an object")
                continue
            if not isinstance(event.get("name"), str) or not event["name"]:
                problems.append(
                    f"{ewhere}: 'name' must be a non-empty string")
            if not isinstance(event.get("det"), bool):
                problems.append(f"{ewhere}: 'det' must be a bool")
            for key in sorted(event):
                if key in ("name", "det"):
                    continue
                value = event[key]
                if not isinstance(value, (str, bool)) and not _is_num(value):
                    problems.append(
                        f"{ewhere}: {key!r} must be a scalar")
    wall = row.get("wall")
    if not isinstance(wall, dict):
        problems.append(f"{where}: 'wall' must be an object")
    else:
        problems.extend(
            _check_keys(wall, _TRACE_WALL_KEYS, f"{where}.wall"))
        for key in ("start", "end"):
            value = wall.get(key)
            if value is not None and not _is_num(value):
                problems.append(
                    f"{where}.wall: {key!r} must be a number or null")
        if not isinstance(wall.get("worker"), str):
            problems.append(f"{where}.wall: 'worker' must be a string")
    return problems


_MANIFEST_KEYS = ("version", "experiment", "interval", "profile", "cells",
                  "artifacts", "wall")
_CELL_COUNT_KEYS = ("total", "completed", "cached", "failed", "retries",
                    "losses")


def validate_manifest(doc: Any, where: str = "manifest") -> List[str]:
    """Problems with a ``manifest.json`` document (empty list = valid)."""
    if not isinstance(doc, dict):
        return [f"{where}: must be an object, got {type(doc).__name__}"]
    problems = _check_keys(doc, _MANIFEST_KEYS, where)
    if not isinstance(doc.get("version"), str) or not doc.get("version"):
        problems.append(f"{where}: 'version' must be a non-empty string")
    if not isinstance(doc.get("experiment"), str):
        problems.append(f"{where}: 'experiment' must be a string")
    if not _is_int(doc.get("interval")) or doc.get("interval", 0) < 1:
        problems.append(f"{where}: 'interval' must be an int >= 1")
    if not isinstance(doc.get("profile"), bool):
        problems.append(f"{where}: 'profile' must be a bool")
    cells = doc.get("cells")
    if not isinstance(cells, dict):
        problems.append(f"{where}: 'cells' must be an object")
    else:
        problems.extend(_check_keys(cells, _CELL_COUNT_KEYS, f"{where}.cells"))
        for key, value in cells.items():
            if key in _CELL_COUNT_KEYS and (not _is_int(value) or value < 0):
                problems.append(
                    f"{where}.cells: {key!r} must be an int >= 0")
    artifacts = doc.get("artifacts")
    if not isinstance(artifacts, dict):
        problems.append(f"{where}: 'artifacts' must be an object")
    else:
        # "traces" is optional: it appears only once a sweep ran.
        if "series" not in artifacts:
            problems.append(f"{where}.artifacts: missing key 'series'")
        for key in artifacts:
            if key not in ("series", "traces"):
                problems.append(
                    f"{where}.artifacts: unexpected key {key!r}")
        for key in ("series", "traces"):
            listed = artifacts.get(key, [])
            if not isinstance(listed, list) or not all(
                    isinstance(s, str) for s in listed):
                problems.append(
                    f"{where}.artifacts: {key!r} must be a list of strings")
    if not isinstance(doc.get("wall"), dict):
        problems.append(f"{where}: 'wall' must be an object")
    return problems


def validate_header(row: Any, kind: str, where: str) -> List[str]:
    """Problems with one artifact's schema header row."""
    if not is_header_row(row):
        return [f"{where}: missing schema header row; expected "
                f"{header_line(kind)} as the first line"]
    problems = []
    artifact = row.get("artifact")
    if artifact != kind:
        problems.append(
            f"{where}: header names artifact {artifact!r}, "
            f"expected {kind!r}")
    version = row.get("schema_version")
    supported = SCHEMA_VERSIONS[kind]
    if not _is_int(version):
        problems.append(
            f"{where}: 'schema_version' must be an int, got {version!r}")
    elif version != supported:
        problems.append(
            f"{where}: unsupported {kind} schema_version {version}; "
            f"this build reads version {supported} — re-record the run "
            f"or validate with a matching repro build")
    for key in sorted(row):
        if key not in ("artifact", "schema_version"):
            problems.append(f"{where}: unexpected header key {key!r}")
    return problems


def _validate_jsonl(path: Path, checker: Callable[[Any, str], List[str]],
                    kind: str) -> List[str]:
    problems: List[str] = []
    saw_header = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path.name}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{where}: invalid JSON ({exc.msg})")
                continue
            if not saw_header:
                saw_header = True
                problems.extend(validate_header(row, kind, where))
                if is_header_row(row):
                    continue
                # Fall through: a headerless first row is still checked
                # as data so one problem doesn't mask another.
            problems.extend(checker(row, where))
    if not saw_header:
        problems.append(
            f"{path.name}: empty artifact; expected at least the "
            f"schema header row {header_line(kind)}")
    return problems


def validate_run_dir(path: Union[str, Path]) -> List[str]:
    """Validate every telemetry artifact of one run directory.

    Checks ``manifest.json``, every ``series/*.jsonl`` and (when
    present) ``traces/trace.jsonl`` — including each file's
    ``schema_version`` header — plus manifest/directory agreement on the
    series and traces file lists.  Returns all problems found (empty = valid).
    """
    root = Path(path)
    problems: List[str] = []
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        problems.append("manifest.json: missing")
    else:
        try:
            doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            problems.append(f"manifest.json: invalid JSON ({exc.msg})")
        else:
            problems.extend(validate_manifest(doc, "manifest.json"))
            artifacts = doc.get("artifacts", {})
            if not isinstance(artifacts, dict):
                artifacts = {}
            for key in ("series", "traces"):
                listed = artifacts.get(key, [])
                if isinstance(listed, list):
                    actual = sorted(
                        p.name for p in (root / key).glob("*.jsonl"))
                    if sorted(listed) != actual:
                        problems.append(
                            f"manifest.json: artifacts.{key} "
                            f"{sorted(listed)} does not match {key}/ "
                            f"contents {actual}")
    for subdir, checker, kind in (
            ("series", validate_series_row, "series"),
            ("traces", validate_trace_row, "trace")):
        for file_path in sorted((root / subdir).glob("*.jsonl")):
            problems.extend(_validate_jsonl(file_path, checker, kind))
    return problems
