"""JSONL corpus of named degree sets and the batch verifier over it.

One record per line:

    {"name": "PSL(2,11)", "order": 660, "degrees": [1,5,10,11,12],
     "solvable": false, "source": "psl2 formula"}

`order` and `solvable` are optional.  Degrees must be below
primes.PRIME_LIMIT, the bound of exact factorization.  Parsing is strict
by default (unknown fields are rejected); lax mode downgrades them to
warnings.  Duplicate degrees are collapsed with a warning since
multiplicity never affects the graph.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from importlib import resources
from typing import Any, Iterable, Mapping

from .duke import screen
from .graphs import DegreeSet, PrimeGraph, bipartition_or_odd_cycle, build_graph
from .primes import PRIME_LIMIT

RECORD_FIELDS = ("name", "order", "degrees", "solvable", "source")


class MalformedRecord(ValueError):
    """The line is not syntactically a JSON record."""


class InvalidRecord(ValueError):
    """The record parses but violates an invariant of the data model."""

    def __init__(self, field: str, message: str, name: str | None = None):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.name = name


class RecordWarning(UserWarning):
    """Non-fatal oddity in a record (duplicate degrees, unknown field in lax mode)."""


@dataclass(frozen=True)
class GroupRecord:
    """A named degree set with optional order, solvability flag, and provenance."""

    name: str
    degrees: DegreeSet
    order: int | None = None
    solvable: bool | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if self.order is not None:
            if self.order < 1:
                raise InvalidRecord("order", f"must be >= 1, got {self.order}", self.name)
            for d in self.degrees.degrees:
                if self.order % d != 0:
                    raise InvalidRecord(
                        "degrees", f"{d} does not divide order {self.order}", self.name
                    )
                if d > 1 and d * d >= self.order:
                    raise InvalidRecord(
                        "degrees",
                        f"degree {d} squared is not below order {self.order}",
                        self.name,
                    )


def parse_record(line: str, *, strict: bool = True) -> GroupRecord:
    """Parse one JSONL line into a validated GroupRecord.

    Raises MalformedRecord on syntax problems and InvalidRecord (with the
    offending field) on invariant violations.
    """
    try:
        raw = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, an integer beyond Python's digit limit, or
        # nesting deeper than the interpreter's recursion limit
        raise MalformedRecord(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise MalformedRecord(f"record must be a JSON object, got {type(raw).__name__}")

    name = raw.get("name")
    name_hint = name if isinstance(name, str) else None
    for key in raw:
        if key not in RECORD_FIELDS:
            if strict:
                raise InvalidRecord(key, "unknown field", name_hint)
            warnings.warn(f"record {name_hint!r}: ignoring unknown field {key!r}", RecordWarning)

    if not isinstance(name, str) or not name:
        raise InvalidRecord("name", "required nonempty string", name_hint)
    source = raw.get("source")
    if not isinstance(source, str):
        raise InvalidRecord("source", "required string", name)

    degrees_raw = raw.get("degrees")
    if not isinstance(degrees_raw, list) or not degrees_raw:
        raise InvalidRecord("degrees", "required nonempty list of integers", name)
    for d in degrees_raw:
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise InvalidRecord("degrees", f"entries must be integers >= 1, got {d!r}", name)
        if d >= PRIME_LIMIT:
            raise InvalidRecord("degrees", f"entry {d} is not below PRIME_LIMIT = {PRIME_LIMIT}", name)
    if len(set(degrees_raw)) != len(degrees_raw):
        warnings.warn(f"record {name!r}: duplicate degrees collapsed", RecordWarning)
    if 1 not in degrees_raw:
        raise InvalidRecord("degrees", "must contain 1", name)

    order = raw.get("order")
    if order is not None and (isinstance(order, bool) or not isinstance(order, int)):
        raise InvalidRecord("order", f"must be an integer, got {order!r}", name)
    solvable = raw.get("solvable")
    if solvable is not None and not isinstance(solvable, bool):
        raise InvalidRecord("solvable", f"must be a boolean, got {solvable!r}", name)

    return GroupRecord(
        name=name,
        degrees=DegreeSet.of(degrees_raw),
        order=order,
        solvable=solvable,
        source=source,
    )


def serialize_record(record: GroupRecord) -> str:
    """One-line JSON form; parse_record round-trips it to an equal record."""
    data: dict[str, Any] = {"name": record.name, "degrees": record.degrees.sorted()}
    if record.order is not None:
        data["order"] = record.order
    if record.solvable is not None:
        data["solvable"] = record.solvable
    data["source"] = record.source
    return json.dumps(data, sort_keys=True)


@dataclass
class VerdictReport:
    """Per-record check results, in input order, plus the aggregate verdict."""

    entries: list[dict[str, Any]]
    overall_pass: bool
    totals: dict[str, int]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "entries": self.entries,
            "overall_pass": self.overall_pass,
            "totals": self.totals,
        }


def _graph_summary(g: PrimeGraph) -> dict[str, Any]:
    return {
        "vertices": len(g.vertices),
        "edges": g.edge_count(),
        "components": len(g.components()),
        "diameter": g.diameter() if g.vertices else None,
    }


def _check_record(record: GroupRecord) -> dict[str, Any]:
    """Entry for one valid record: graph summary plus K1/K2/K3 verdicts.

    K1: diameter <= 3, always.  K2: when the diameter is exactly 3, the
    full screen must pass.  K3: records flagged solvable must have a
    bipartite complement, whatever the diameter.
    """
    g = build_graph(record.degrees)
    summary = _graph_summary(g)
    checks: dict[str, Any] = {}

    diam = summary["diameter"]
    if diam is not None and diam > 3:
        i, j, d = next(g.pairs_at_distance(4))
        checks["K1"] = {
            "pass": False,
            "certificate": {"pair": [g.vertices[i], g.vertices[j]], "distance": d},
        }
    else:
        checks["K1"] = {"pass": True, "certificate": None}

    if diam == 3:
        report = screen(g)
        checks["K2"] = {
            "pass": report.passed,
            "certificate": None if report.passed else report.to_json_dict(),
        }

    if record.solvable:
        certificate = bipartition_or_odd_cycle(g.complement())
        checks["K3"] = {
            "pass": certificate.is_bipartite,
            "certificate": None
            if certificate.is_bipartite
            else {"odd_cycle": list(certificate.odd_cycle or ())},
        }

    return {"name": record.name, "summary": summary, "checks": checks}


def _invalid_entry(error: InvalidRecord, position: int) -> dict[str, Any]:
    return {
        "name": error.name or f"<record {position}>",
        "summary": None,
        "checks": {
            "K0": {
                "pass": False,
                "certificate": {"field": error.field, "message": str(error)},
            }
        },
    }


def _assemble(entries: list[dict[str, Any]]) -> VerdictReport:
    failed = sum(
        1 for e in entries if not all(c["pass"] for c in e["checks"].values())
    )
    return VerdictReport(
        entries=entries,
        overall_pass=failed == 0,
        totals={
            "records": len(entries),
            "records_passed": len(entries) - failed,
            "records_failed": failed,
        },
    )


def verify_corpus(records: Iterable[GroupRecord]) -> VerdictReport:
    """Run every applicable check over already-validated records."""
    return _assemble([_check_record(r) for r in records])


def verify_lines(lines: Iterable[str], *, strict: bool = True) -> VerdictReport:
    """Parse and verify a JSONL stream.

    Records that violate data-model invariants become failing K0 entries
    (the data is wrong, not the run), keeping their input position in the
    report.  Syntactically broken lines raise MalformedRecord with the
    line number.
    """
    entries: list[dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = parse_record(line, strict=strict)
        except MalformedRecord as exc:
            raise MalformedRecord(f"line {lineno}: {exc}") from exc
        except InvalidRecord as exc:
            entries.append(_invalid_entry(exc, lineno))
        else:
            entries.append(_check_record(record))
    return _assemble(entries)


def bundled_corpus_path() -> Any:
    """Path-like handle to the corpus shipped inside the package."""
    return resources.files("chargraph").joinpath("data/corpus.jsonl")
