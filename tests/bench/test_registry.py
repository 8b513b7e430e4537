"""Registry API: register/unregister, lookup, discovery, run contract."""

import pytest

from repro.bench import (
    all_benchmarks,
    discover,
    get_benchmark,
    register,
    registered,
)
from repro.bench.registry import unregister


@pytest.fixture
def scratch_bench():
    """Register a throwaway benchmark and clean it up afterwards."""
    names = []

    def _register(name, fn, **kwargs):
        names.append(name)
        return register(name, fn, **kwargs)

    yield _register
    for name in names:
        unregister(name)


def returns_virtual(**_params):
    return {"virtual": {"value": 1}}


class TestRegister:
    def test_registered_benchmark_is_listed_and_retrievable(self, scratch_bench):
        bench = scratch_bench("scratch_listed", returns_virtual,
                              params={"n": 3}, description="scratch")
        assert "scratch_listed" in registered()
        assert get_benchmark("scratch_listed") is bench
        assert bench in all_benchmarks()

    def test_duplicate_name_raises(self, scratch_bench):
        scratch_bench("scratch_dup", returns_virtual)
        with pytest.raises(ValueError, match="already registered"):
            register("scratch_dup", returns_virtual)

    def test_unknown_name_raises_with_roster(self):
        with pytest.raises(KeyError, match="no benchmark"):
            get_benchmark("no-such-benchmark")

    def test_registered_names_are_sorted(self, scratch_bench):
        scratch_bench("scratch_zz", returns_virtual)
        scratch_bench("scratch_aa", returns_virtual)
        names = registered()
        assert names == sorted(names)

    def test_params_are_copied_not_aliased(self, scratch_bench):
        params = {"n": 1}
        bench = scratch_bench("scratch_copy", returns_virtual, params=params)
        params["n"] = 999
        assert bench.parameters() == {"n": 1}


class TestParameters:
    def test_quick_falls_back_to_full_params(self, scratch_bench):
        bench = scratch_bench("scratch_fallback", returns_virtual,
                              params={"n": 5})
        assert bench.parameters(quick=True) == {"n": 5}

    def test_quick_params_selected_when_given(self, scratch_bench):
        bench = scratch_bench("scratch_quick", returns_virtual,
                              params={"n": 50}, quick_params={"n": 5})
        assert bench.parameters(quick=False) == {"n": 50}
        assert bench.parameters(quick=True) == {"n": 5}

    def test_run_passes_selected_params(self, scratch_bench):
        seen = {}

        def fn(n=0):
            seen["n"] = n
            return {"virtual": {"n": n}}

        bench = scratch_bench("scratch_pass", fn,
                              params={"n": 50}, quick_params={"n": 5})
        assert bench.run(quick=True)["virtual"]["n"] == 5
        assert seen["n"] == 5


class TestRunContract:
    def test_missing_virtual_section_raises(self, scratch_bench):
        bench = scratch_bench("scratch_bad", lambda: {"wall": {}})
        with pytest.raises(TypeError, match="'virtual' section"):
            bench.run()

    def test_sections_beside_virtual_raise(self, scratch_bench):
        bench = scratch_bench("scratch_wall",
                              lambda: {"virtual": {}, "wall": {"s": 1.0}})
        with pytest.raises(TypeError, match="only a 'virtual' section"):
            bench.run()

    def test_non_dict_return_raises(self, scratch_bench):
        bench = scratch_bench("scratch_none", lambda: None)
        with pytest.raises(TypeError):
            bench.run()


class TestDiscover:
    def test_discover_imports_every_bench_module(self):
        imported = discover()
        assert imported == sorted(imported)
        assert "bench_fig6_modules" in imported
        assert "bench_fleet" in imported
        assert "bench_fault_campaign" in imported

    def test_discover_registers_the_shipped_benchmarks(self):
        discover()
        names = registered()
        for expected in ("fig6_modules", "table1_rootkit", "table2_skinit",
                         "obs_overhead", "fleet", "fault_campaign"):
            assert expected in names

    def test_discover_is_idempotent(self):
        # Second import pass must not re-run registrations (which would
        # raise on the duplicate names).
        discover()
        discover()
