"""Determinism: same seed, byte-identical result modulo meta.

These tests run the real registered benchmarks twice and require the
canonical serialization of the non-volatile portion (everything except
``meta`` — see :func:`repro.bench.strip_volatile`) to be byte-for-byte
identical.  This is the property the CI bench gate's "virtual metrics
compare exactly" rule rests on.
"""

import pytest

from repro.bench import (
    build_result,
    discover,
    get_benchmark,
    result_json,
    strip_volatile,
)


def stripped_bytes(name: str) -> str:
    """One quick run of benchmark ``name``, canonicalized and stripped."""
    bench = get_benchmark(name)
    result = build_result(
        name=bench.name, params=bench.parameters(quick=True),
        metrics=bench.run(quick=True), quick=True,
    )
    return result_json(strip_volatile(result))


@pytest.fixture(scope="module", autouse=True)
def _discovered():
    discover()


@pytest.mark.parametrize("name", [
    "fig6_modules",
    "table1_rootkit",
    "table2_skinit",
    "obs_overhead",
])
def test_quick_run_is_byte_deterministic(name):
    assert stripped_bytes(name) == stripped_bytes(name)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fleet", "fault_campaign"])
def test_campaign_scale_benchmarks_are_byte_deterministic(name):
    assert stripped_bytes(name) == stripped_bytes(name)


def test_meta_is_the_only_volatile_section():
    bench = get_benchmark("fig6_modules")
    result = build_result(
        name=bench.name, params=bench.parameters(quick=True),
        metrics=bench.run(quick=True), quick=True,
    )
    stripped = strip_volatile(result)
    assert "wall" not in result
    assert set(result) - set(stripped) == {"meta"}
