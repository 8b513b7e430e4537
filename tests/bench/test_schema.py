"""Result-document schema: build, validate, canonical serialization."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    SchemaError,
    build_result,
    result_filename,
    result_json,
    validate_result,
)
from repro.bench.schema import REQUIRED_KEYS, git_sha, host_fingerprint


def make_result(**overrides):
    result = build_result(
        name="unit", params={"n": 2, "sizes": (1, 4)},
        metrics={"virtual": {"ms": 1.5}}, quick=True,
    )
    result.update(overrides)
    return result


class TestBuildResult:
    def test_built_result_is_schema_valid(self):
        result = make_result()
        validate_result(result)  # does not raise
        assert result["schema"] == SCHEMA_VERSION
        assert tuple(sorted(result)) == tuple(sorted(REQUIRED_KEYS))

    def test_tuples_become_lists(self):
        result = make_result()
        assert result["params"]["sizes"] == [1, 4]
        json.dumps(result)  # fully serializable

    def test_meta_records_provenance(self):
        meta = make_result()["meta"]
        assert set(meta) == {"git_sha", "host", "tool"}
        assert meta["host"] == host_fingerprint()

    def test_git_sha_in_repo_is_hex(self):
        sha = git_sha()
        assert sha == "unknown" or (len(sha) == 40 and int(sha, 16) >= 0)

    def test_git_sha_outside_repo_is_unknown(self, tmp_path):
        assert git_sha(tmp_path) == "unknown"


class TestValidateResult:
    def test_missing_key_rejected(self):
        result = make_result()
        del result["virtual"]
        with pytest.raises(SchemaError, match="missing keys"):
            validate_result(result)

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown keys"):
            validate_result(make_result(bogus=1))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="schema"):
            validate_result(make_result(schema="repro-bench/999"))

    def test_non_bool_quick_rejected(self):
        with pytest.raises(SchemaError, match="quick"):
            validate_result(make_result(quick="yes"))

    def test_non_dict_section_rejected(self):
        with pytest.raises(SchemaError, match="'virtual' section"):
            validate_result(make_result(virtual=[1, 2]))

    def test_unserializable_result_rejected(self):
        with pytest.raises(SchemaError, match="JSON"):
            validate_result(make_result(virtual={"obj": object()}))


class TestCanonicalJson:
    def test_identical_content_identical_bytes(self):
        a = {"b": 1, "a": {"y": 2, "x": 3}}
        b = {"a": {"x": 3, "y": 2}, "b": 1}
        assert result_json(a) == result_json(b)

    def test_trailing_newline(self):
        assert result_json({}).endswith("\n")

    def test_round_trips(self):
        result = make_result()
        assert json.loads(result_json(result)) == result


def test_result_filename():
    assert result_filename("fleet") == "BENCH_fleet.json"
