"""Compare gate: schema, params and virtual results all exact."""

from repro.bench import compare_results, strip_volatile
from repro.bench.compare import CompareFinding


def doc(params=None, virtual=None, schema="repro-bench/2"):
    return {
        "schema": schema,
        "params": params or {"n": 2},
        "virtual": virtual or {"ms": 10.0},
    }


def kinds(findings):
    return [f.kind for f in findings]


class TestSchemaTier:
    def test_schema_mismatch_short_circuits(self):
        findings = compare_results(
            doc(schema="repro-bench/1", virtual={"ms": 999.0}), doc())
        assert kinds(findings) == ["schema-mismatch"]


class TestParamsTier:
    def test_params_mismatch_short_circuits(self):
        findings = compare_results(
            doc(params={"n": 50}, virtual={"ms": 999.0}), doc())
        assert kinds(findings) == ["params-mismatch"]
        assert "quick vs full" in findings[0].message

    def test_equal_params_pass(self):
        assert compare_results(doc(), doc()) == []


class TestVirtualTier:
    def test_any_virtual_drift_fails(self):
        findings = compare_results(doc(virtual={"ms": 10.000001}), doc())
        assert kinds(findings) == ["virtual-drift"]

    def test_drift_reported_per_leaf_with_dotted_path(self):
        cur = doc(virtual={"a": {"x": 1, "y": 2}, "b": 3})
        base = doc(virtual={"a": {"x": 1, "y": 9}, "b": 8})
        findings = compare_results(cur, base)
        assert [f.path for f in findings] == ["a.y", "b"]
        assert kinds(findings) == ["virtual-drift", "virtual-drift"]

    def test_disappeared_and_new_metrics_both_fail(self):
        findings = compare_results(
            doc(virtual={"new": 1}), doc(virtual={"old": 1}))
        assert kinds(findings) == ["virtual-drift", "virtual-drift"]

    def test_list_leaves_compared_by_index(self):
        findings = compare_results(
            doc(virtual={"xs": [1, 2, 3]}), doc(virtual={"xs": [1, 9, 3]}))
        assert [f.path for f in findings] == ["xs[1]"]


class TestStripVolatile:
    def test_drops_meta_only(self):
        result = {"schema": "s", "name": "n", "quick": True, "params": {},
                  "virtual": {"ms": 1}, "meta": {"git_sha": "x"}}
        stripped = strip_volatile(result)
        assert sorted(stripped) == ["name", "params", "quick", "schema", "virtual"]
        # A section outside the schema is content, not volatile.
        assert "wall" in strip_volatile({**result, "wall": {"wall_seconds": 2}})


def test_finding_renders_as_one_line():
    finding = CompareFinding("virtual-drift", "a.b", "1 -> 2")
    assert str(finding) == "[virtual-drift] at a.b: 1 -> 2"
    assert str(CompareFinding("params-mismatch", "", "boom")).startswith(
        "[params-mismatch]: ")
