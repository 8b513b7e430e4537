"""The deterministic job database: typed unit/result records.

Every fact the final report needs lives in the
:class:`JobDatabase` — unit records, the append-only assignment log,
per-client tallies, and a summary block the service fills in at the end
of a run.  The database dumps to *byte-canonical* JSON
(:meth:`JobDatabase.dump_json`), and
:func:`repro.dist.service.build_report` derives the report from the
database alone, so replaying a dump reproduces the identical report
without re-running the simulation.

Unit ids are seeded: ``unit_id(job_seed, index)`` forks the job's
deterministic RNG per index, so ids are stable under batching order and
never collide within a job.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.rng import DeterministicRNG

#: Database schema tag (bumped on any incompatible layout change).
DB_SCHEMA = "repro-dist-db/1"

#: The unit state machine (see docs/DISTRIBUTED.md for the diagram).
UNIT_STATES = ("pending", "issued", "flagged", "validated", "abandoned")

#: Terminal states of one issued assignment.
ASSIGNMENT_STATES = (
    "outstanding",      # issued, no response yet
    "returned",         # result arrived, verification pending
    "verified-ok",      # attestation + structural checks passed: a vote
    "rejected",         # attestation or structural check failed
    "timed-out",        # deadline passed with no response
    "late",             # response arrived after its deadline (ignored)
    "failed",           # the client reported a session abort
    "discarded",        # returned after the unit had already resolved
)


#: A dump's top-level fields and the JSON type each must hold.
_DUMP_FIELDS = {
    "job_seed": "int", "n": "int", "total_units": "int",
    "range_per_unit": "int", "batch_size": "int", "start": "int",
    "batches": "int", "units": "list", "assignments": "list",
    "clients": "list", "summary": "dict",
}

#: The JSON values a field of each annotated type may hold.
_JSON_KINDS = {
    "int": int, "bool": bool, "str": str, "float": (int, float),
    "Optional[float]": (int, float, type(None)),
    "Tuple[int, ...]": list, "list": list, "dict": dict,
}


def _check_json_type(value: Any, annotation: str, what: str) -> Any:
    """``value``, or a ``ValueError`` naming ``what`` if its JSON type
    does not fit ``annotation``."""
    if not isinstance(value, _JSON_KINDS[annotation]):
        raise ValueError(f"{DB_SCHEMA} {what} is a JSON "
                         f"{type(value).__name__}, not {annotation}")
    if annotation == "Tuple[int, ...]":
        for i, item in enumerate(value):
            _check_json_type(item, "int", f"{what}[{i}]")
    return value


def _dump_field(data: Dict[str, Any], key: str) -> Any:
    """``data[key]``, or a ``ValueError`` naming the field if it is
    missing or of the wrong JSON type."""
    if key not in data:
        raise ValueError(f"{DB_SCHEMA} dump is missing field {key!r}")
    return _check_json_type(data[key], _DUMP_FIELDS[key], key)


def _record_fields(record_cls, data: Any, where: str) -> Dict[str, Any]:
    """A dumped record's fields, checked against ``record_cls``: a
    ``ValueError`` names the first unknown, missing or wrongly typed
    field."""
    _check_json_type(data, "dict", where)
    known = fields(record_cls)
    unknown = sorted(set(data) - {f.name for f in known})
    if unknown:
        raise ValueError(f"{DB_SCHEMA} {where} has unknown field {unknown[0]!r}")
    missing = [f.name for f in known if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{DB_SCHEMA} {where} is missing field {missing[0]!r}")
    for f in known:
        if f.name in data:
            _check_json_type(data[f.name], f.type, f"{where}.{f.name}")
    return data


def unit_id(job_seed: int, index: int) -> str:
    """The seeded, stable id of unit ``index`` within a job."""
    tag = DeterministicRNG(job_seed).fork(f"unit:{index}").bytes(5).hex()
    return f"u{index:05d}-{tag}"


@dataclass
class UnitRecord:
    """One work unit: test divisors of ``n`` in ``[start, end)``."""

    unit_id: str
    index: int
    n: int
    start: int
    end: int
    batch: int
    state: str = "pending"
    #: Vote target of the unit's *initial* quorum round.
    quorum: int = 0
    #: Total assignments ever issued for this unit.
    assignments: int = 0
    #: Assignments issued beyond the initial quorum (timeout/flag/reject
    #: replacements) — the numerator of the resend rate.
    resends: int = 0
    #: Escalation rounds triggered by disagreeing attested results.
    flags: int = 0
    #: Winning state digest (hex) once validated.
    digest: str = ""
    #: Owning vTPM tenant ("" = untenanted — the classic single-tenant
    #: job).  Tenanted units execute inside the tenant's virtual TPM on
    #: whichever machine runs them, and their quorum digests are keyed by
    #: the tenant id so votes never cross tenant boundaries.
    tenant: str = ""
    found: Tuple[int, ...] = ()
    issued_at_ms: Optional[float] = None
    resolved_at_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "unit_id": self.unit_id,
            "index": self.index,
            "n": self.n,
            "start": self.start,
            "end": self.end,
            "batch": self.batch,
            "state": self.state,
            "quorum": self.quorum,
            "assignments": self.assignments,
            "resends": self.resends,
            "flags": self.flags,
            "digest": self.digest,
            "tenant": self.tenant,
            "found": list(self.found),
            "issued_at_ms": self.issued_at_ms,
            "resolved_at_ms": self.resolved_at_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "UnitRecord":
        data = dict(data)
        data["found"] = tuple(data.get("found", ()))
        data.setdefault("tenant", "")  # dumps predating multi-tenancy
        return cls(**data)


@dataclass
class AssignmentRecord:
    """One (unit, client) issue — the append-only transition log entry."""

    seq: int
    unit_id: str
    client: str
    #: Quorum round this assignment belongs to (1 = the initial cohort).
    round: int
    issued_ms: float
    state: str = "outstanding"
    #: Why a rejected result was rejected (``attestation`` | ``state``).
    reject_reason: str = ""
    digest: str = ""
    found: Tuple[int, ...] = ()
    returned_ms: Optional[float] = None
    verified_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "unit_id": self.unit_id,
            "client": self.client,
            "round": self.round,
            "issued_ms": self.issued_ms,
            "state": self.state,
            "reject_reason": self.reject_reason,
            "digest": self.digest,
            "found": list(self.found),
            "returned_ms": self.returned_ms,
            "verified_ms": self.verified_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AssignmentRecord":
        data = dict(data)
        data["found"] = tuple(data.get("found", ()))
        return cls(**data)


@dataclass
class ClientRecord:
    """Per-client tallies (reputation inputs and report rows)."""

    client: str
    issued: int = 0
    returned: int = 0
    #: Results that ended on the winning digest of a validated unit.
    valid: int = 0
    #: Attested results outvoted by a validated unit's winning digest.
    outvoted: int = 0
    rejected: int = 0
    timeouts: int = 0
    failures: int = 0
    late: int = 0
    spot_checks: int = 0
    sessions: int = 0
    trusted: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client": self.client,
            "issued": self.issued,
            "returned": self.returned,
            "valid": self.valid,
            "outvoted": self.outvoted,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "failures": self.failures,
            "late": self.late,
            "spot_checks": self.spot_checks,
            "sessions": self.sessions,
            "trusted": self.trusted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClientRecord":
        return cls(**data)


class JobDatabase:
    """Everything one distribution run records, dumpable for replay."""

    def __init__(self, job_seed: int, n: int, total_units: int,
                 range_per_unit: int, batch_size: int, start: int = 2) -> None:
        if total_units < 1:
            raise ValueError("a job needs at least one unit")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.job_seed = job_seed
        self.n = n
        self.total_units = total_units
        self.range_per_unit = range_per_unit
        self.batch_size = batch_size
        self.start = start
        #: unit_id → record, in generation (= index) order.
        self.units: Dict[str, UnitRecord] = {}
        self.assignments: List[AssignmentRecord] = []
        #: client id → record, in first-contact order (dumped sorted).
        self.clients: Dict[str, ClientRecord] = {}
        #: End-of-run metrics the service fills in via :meth:`finalize`.
        self.summary: Dict[str, Any] = {}
        self._batches = 0

    # -- work generation --------------------------------------------------------

    @property
    def units_generated(self) -> int:
        return len(self.units)

    def generate_batch(self) -> List[UnitRecord]:
        """Generate the next batch of units (empty when exhausted)."""
        remaining = self.total_units - len(self.units)
        if remaining <= 0:
            return []
        batch: List[UnitRecord] = []
        for _ in range(min(self.batch_size, remaining)):
            index = len(self.units)
            lo = self.start + index * self.range_per_unit
            record = UnitRecord(
                unit_id=unit_id(self.job_seed, index),
                index=index,
                n=self.n,
                start=lo,
                end=lo + self.range_per_unit,
                batch=self._batches,
            )
            self.units[record.unit_id] = record
            batch.append(record)
        self._batches += 1
        return batch

    # -- lookups ----------------------------------------------------------------

    def client(self, client_id: str) -> ClientRecord:
        """Get-or-create the record for ``client_id``."""
        if client_id not in self.clients:
            self.clients[client_id] = ClientRecord(client=client_id)
        return self.clients[client_id]

    def finalize(self, **summary: Any) -> None:
        """Merge end-of-run metrics into the summary block."""
        self.summary.update(summary)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": DB_SCHEMA,
            "job_seed": self.job_seed,
            "n": self.n,
            "total_units": self.total_units,
            "range_per_unit": self.range_per_unit,
            "batch_size": self.batch_size,
            "start": self.start,
            "batches": self._batches,
            "units": [u.to_dict() for u in self.units.values()],
            "assignments": [a.to_dict() for a in self.assignments],
            "clients": [self.clients[c].to_dict()
                        for c in sorted(self.clients)],
            "summary": self.summary,
        }

    def dump_json(self) -> str:
        """Byte-canonical dump: sorted keys, pinned separators, trailing
        newline — identical content is identical bytes."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"

    @classmethod
    def from_dict(cls, data: Any) -> "JobDatabase":
        """Rebuild a database from a dump.

        A dump is untrusted input.  A JSON value that is not an object,
        a wrong schema tag, and a missing, unknown or wrongly typed field
        of the dump or of one of its records each raise ``ValueError``
        naming the bad field; so does every ``summary`` value that is not
        a number.  Unknown top-level keys are ignored."""
        if not isinstance(data, dict):
            raise ValueError(f"not a {DB_SCHEMA} dump (a JSON "
                             f"{type(data).__name__}, not an object)")
        if data.get("schema") != DB_SCHEMA:
            raise ValueError(
                f"not a {DB_SCHEMA} dump (schema={data.get('schema')!r})"
            )
        db = cls(**{key: _dump_field(data, key)
                    for key in ("job_seed", "n", "total_units",
                                "range_per_unit", "batch_size", "start")})
        db._batches = _dump_field(data, "batches")
        for i, unit_data in enumerate(_dump_field(data, "units")):
            record = UnitRecord.from_dict(
                _record_fields(UnitRecord, unit_data, f"units[{i}]"))
            db.units[record.unit_id] = record
        db.assignments = [
            AssignmentRecord.from_dict(
                _record_fields(AssignmentRecord, a, f"assignments[{i}]"))
            for i, a in enumerate(_dump_field(data, "assignments"))]
        for i, client_data in enumerate(_dump_field(data, "clients")):
            record = ClientRecord.from_dict(
                _record_fields(ClientRecord, client_data, f"clients[{i}]"))
            db.clients[record.client] = record
        db.summary = {key: _check_json_type(value, "float", f"summary.{key}")
                      for key, value in _dump_field(data, "summary").items()}
        return db

    @classmethod
    def from_json(cls, text: str) -> "JobDatabase":
        return cls.from_dict(json.loads(text))
