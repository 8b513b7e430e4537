"""The legacy-compatibility property: a one-machine fleet run on the
event scheduler reproduces the legacy serial simulation **bit-for-bit**.

This is the invariant that lets the discrete-event core replace the
virtual-time core without re-calibrating anything: ``ScheduledClock``
never changes how time is *charged* (it subclasses ``VirtualClock``
without overriding ``advance``), only how machines *interleave* — and
with one machine there is nothing to interleave with.

The PAL suite spans the Figure 6 module inventory, so the equality
covers every SLB size (and hence every SKINIT timing) the paper tables
exercise.
"""

from hypothesis import given, settings, strategies as st

from repro.core import FlickerPlatform, PAL
from repro.core.fleet import FlickerFleet, derive_machine_seed


class CoreOnlyPAL(PAL):
    name = "sched-prop-core"
    modules = ()

    def run(self, ctx):
        ctx.write_output(ctx.inputs[::-1])


class OSProtectionPAL(CoreOnlyPAL):
    name = "sched-prop-osp"
    modules = ("os_protection",)


class TPMDriverPAL(CoreOnlyPAL):
    name = "sched-prop-tpmdrv"
    modules = ("tpm_driver",)


class TPMUtilsPAL(CoreOnlyPAL):
    name = "sched-prop-tpmutils"
    modules = ("tpm_utils",)


class CryptoPAL(CoreOnlyPAL):
    name = "sched-prop-crypto"
    modules = ("crypto",)


class MemoryMgmtPAL(CoreOnlyPAL):
    name = "sched-prop-mem"
    modules = ("memory_mgmt",)


class SecureChannelPAL(CoreOnlyPAL):
    name = "sched-prop-chan"
    modules = ("secure_channel",)


class CombinedPAL(CoreOnlyPAL):
    """A multi-module link set that still fits the 60-KB SLB code area
    (crypto and secure_channel — which transitively pulls crypto —
    would overflow it; both have their own single-module PALs above)."""

    name = "sched-prop-combined"
    modules = ("os_protection", "tpm_driver", "tpm_utils", "memory_mgmt")


#: One PAL per Figure 6 module, plus the empty and full link sets.
MODULE_SUITE = (
    CoreOnlyPAL(), OSProtectionPAL(), TPMDriverPAL(), TPMUtilsPAL(),
    CryptoPAL(), MemoryMgmtPAL(), SecureChannelPAL(), CombinedPAL(),
)


def legacy_sessions(seed, pal, payloads):
    """The pre-fleet serial simulation: one platform, direct calls, on
    the seed a fleet derives for its first machine."""
    platform = FlickerPlatform(seed=derive_machine_seed(seed, 0))
    return [platform.execute_pal(pal, inputs=p) for p in payloads]


def fleet_sessions(seed, pal, payloads):
    """The same workload as a process on a one-machine fleet."""
    fleet = FlickerFleet(num_machines=1, seed=seed)
    host = fleet.hosts[0]
    results = []

    def proc():
        for payload in payloads:
            yield 0  # a scheduling point between sessions, as real
            #          fleet workloads have
            results.append(host.platform.execute_pal(pal, inputs=payload))

    fleet.spawn(host, proc())
    fleet.run()
    return results


def assert_bit_identical(legacy, scheduled):
    assert len(legacy) == len(scheduled)
    for a, b in zip(legacy, scheduled):
        assert a.phase_ms == b.phase_ms          # exact float equality
        assert a.total_ms == b.total_ms
        assert a.tpm_ms == b.tpm_ms
        assert a.outputs == b.outputs
        assert a.event_log == b.event_log


class TestOneMachineFleetEqualsLegacy:
    def test_figure6_module_suite_bit_identical(self):
        """Every Figure 6 link set, fixed seed: the full sweep."""
        for pal in MODULE_SUITE:
            payloads = [b"alpha", b"beta"]
            assert_bit_identical(
                legacy_sessions(2008, pal, payloads),
                fleet_sessions(2008, pal, payloads),
            )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        payloads=st.lists(st.binary(min_size=1, max_size=64),
                          min_size=1, max_size=3),
        pal_index=st.integers(min_value=0, max_value=len(MODULE_SUITE) - 1),
    )
    def test_any_seed_any_inputs_bit_identical(self, seed, payloads, pal_index):
        pal = MODULE_SUITE[pal_index]
        assert_bit_identical(
            legacy_sessions(seed, pal, payloads),
            fleet_sessions(seed, pal, payloads),
        )
