"""Job-database records: seeded ids, batching, canonical round trips."""

import json

import pytest

from repro.dist.records import (
    DB_SCHEMA,
    AssignmentRecord,
    ClientRecord,
    JobDatabase,
    UnitRecord,
    unit_id,
)


def small_db(total_units=10, batch_size=4):
    return JobDatabase(job_seed=2008, n=15015 * 1_000_003,
                       total_units=total_units, range_per_unit=400,
                       batch_size=batch_size)


class TestUnitIds:
    def test_seeded_and_stable(self):
        assert unit_id(2008, 0) == unit_id(2008, 0)
        assert unit_id(2008, 0) != unit_id(2008, 1)
        assert unit_id(2008, 3) != unit_id(2009, 3)

    def test_embeds_index(self):
        assert unit_id(7, 42).startswith("u00042-")

    def test_no_collisions_within_a_job(self):
        ids = {unit_id(2008, i) for i in range(500)}
        assert len(ids) == 500


class TestBatching:
    def test_batches_cover_the_job_exactly(self):
        db = small_db(total_units=10, batch_size=4)
        sizes = []
        while True:
            batch = db.generate_batch()
            if not batch:
                break
            sizes.append(len(batch))
        assert sizes == [4, 4, 2]
        assert db.units_generated == 10

    def test_unit_ranges_tile_the_divisor_space(self):
        db = small_db(total_units=4, batch_size=4)
        units = db.generate_batch()
        assert [u.start for u in units] == [2, 402, 802, 1202]
        assert all(u.end - u.start == 400 for u in units)
        assert [u.batch for u in units] == [0, 0, 0, 0]

    def test_generation_is_exhausted_once(self):
        db = small_db(total_units=2, batch_size=4)
        assert len(db.generate_batch()) == 2
        assert db.generate_batch() == []


def populated_db():
    db = small_db(total_units=4, batch_size=4)
    units = db.generate_batch()
    units[0].state = "validated"
    units[0].digest = "ab" * 20
    units[0].found = (3, 5)
    db.assignments.append(AssignmentRecord(
        seq=0, unit_id=units[0].unit_id, client="client-00",
        round=1, issued_ms=0.0, state="verified-ok",
        digest="ab" * 20, found=(3, 5), returned_ms=10.0,
        verified_ms=11.0,
    ))
    db.client("client-00").valid = 1
    db.finalize(makespan_ms=11.0, verify_count=1)
    return db


class TestRoundTrip:
    def test_dump_is_byte_canonical(self):
        a, b = populated_db(), populated_db()
        assert a.dump_json() == b.dump_json()
        assert a.dump_json().endswith("\n")

    def test_round_trip_preserves_everything(self):
        db = populated_db()
        clone = JobDatabase.from_json(db.dump_json())
        assert clone.dump_json() == db.dump_json()
        unit = next(iter(clone.units.values()))
        assert isinstance(unit, UnitRecord) and unit.found == (3, 5)
        assert isinstance(clone.assignments[0], AssignmentRecord)
        assert clone.assignments[0].found == (3, 5)
        assert isinstance(clone.clients["client-00"], ClientRecord)
        assert clone.summary["makespan_ms"] == 11.0

    def test_schema_mismatch_rejected(self):
        data = json.loads(populated_db().dump_json())
        data["schema"] = "something-else/9"
        with pytest.raises(ValueError, match=DB_SCHEMA):
            JobDatabase.from_dict(data)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_db(total_units=0)
        with pytest.raises(ValueError):
            small_db(batch_size=0)


class TestMalformedDumps:
    """A replayed dump is untrusted input: every malformed one fails with
    a ``ValueError`` that names the bad field."""

    def test_missing_top_level_field(self):
        data = json.loads(populated_db().dump_json())
        del data["job_seed"]
        with pytest.raises(ValueError, match="missing field 'job_seed'"):
            JobDatabase.from_dict(data)

    def test_json_list_is_not_a_dump(self):
        with pytest.raises(ValueError, match="JSON list, not an object"):
            JobDatabase.from_json("[]")

    def test_unknown_unit_field(self):
        data = json.loads(populated_db().dump_json())
        data["units"][1]["bogus"] = 1
        with pytest.raises(ValueError, match=r"units\[1\] has unknown field 'bogus'"):
            JobDatabase.from_dict(data)

    def test_missing_record_field(self):
        data = json.loads(populated_db().dump_json())
        del data["assignments"][0]["client"]
        with pytest.raises(ValueError,
                           match=r"assignments\[0\] is missing field 'client'"):
            JobDatabase.from_dict(data)

    @pytest.mark.parametrize("key, value, message", [
        ("total_units", "4", "total_units is a JSON str, not int"),
        ("units", 5, "units is a JSON int, not list"),
        ("summary", 3, "summary is a JSON int, not dict"),
    ])
    def test_wrongly_typed_top_level_field(self, key, value, message):
        data = json.loads(populated_db().dump_json())
        data[key] = value
        with pytest.raises(ValueError, match=message):
            JobDatabase.from_dict(data)

    def test_wrongly_typed_record_fields(self):
        data = json.loads(populated_db().dump_json())
        data["units"][0]["index"] = "0"
        with pytest.raises(ValueError,
                           match=r"units\[0\]\.index is a JSON str, not int"):
            JobDatabase.from_dict(data)
        data = json.loads(populated_db().dump_json())
        data["assignments"][0]["found"] = [3, "5"]
        with pytest.raises(ValueError, match=r"assignments\[0\]\.found\[1\] "
                                             r"is a JSON str, not int"):
            JobDatabase.from_dict(data)
        data = json.loads(populated_db().dump_json())
        data["summary"]["makespan_ms"] = "11.0"
        with pytest.raises(ValueError,
                           match=r"summary\.makespan_ms is a JSON str, not float"):
            JobDatabase.from_dict(data)
