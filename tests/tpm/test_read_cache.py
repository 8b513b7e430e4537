"""TPM read commands (PCRRead, NV_ReadValue, ReadCounter, GetCapability)
see every write.

Each read charges its virtual latency on every call and answers from
live state: software writes, and the hardware SKINIT/TXT path that
extends the PCR bank directly, bypassing the command layer, are visible
to the next read.  Callers may mutate what a read hands back, and
GetRandom returns fresh entropy on every call.
"""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import BROADCOM_BCM0102
from repro.sim.trace import EventTrace
from repro.tpm.tpm import LOCALITY_CPU, TPM


@pytest.fixture
def tpm():
    return TPM(VirtualClock(), EventTrace(), DeterministicRNG(42),
               BROADCOM_BCM0102, key_bits=512)


@pytest.fixture
def iface(tpm):
    return tpm.interface(0)


class TestCacheHits:
    """Repeated reads: each one charges time and hands out its own copy."""

    def test_cached_read_still_charges_virtual_time(self, tpm, iface):
        iface.pcr_read(17)
        before = tpm._clock.now()
        iface.pcr_read(17)
        assert tpm._clock.now() > before

    def test_get_capability_hits_and_returns_fresh_copies(self, iface):
        first = iface.get_capability()
        second = iface.get_capability()
        assert first == second
        assert first is not second
        first["pcr_count"] = -1
        assert iface.get_capability()["pcr_count"] != -1


class TestInvalidation:
    """Every write path is visible to the next read."""

    def test_pcr_extend_invalidates(self, tpm, iface):
        stale = iface.pcr_read(17)
        iface.pcr_extend(17, b"\x11" * 20)
        assert iface.pcr_read(17) != stale

    def test_dynamic_reset_invalidates(self, tpm, iface):
        iface.pcr_extend(17, b"\x11" * 20)
        stale = iface.pcr_read(17)
        tpm.interface(LOCALITY_CPU).dynamic_pcr_reset()
        assert iface.pcr_read(17) == b"\x00" * 20
        assert iface.pcr_read(17) != stale

    def test_direct_hardware_pcr_write_invalidates_via_generation(self, tpm, iface):
        """SKINIT/TXT extend the PCR bank directly (``machine.tpm.pcrs``),
        bypassing the command layer; the next software read sees it."""
        stale = iface.pcr_read(17)
        tpm.pcrs.extend(17, b"\x22" * 20)  # the hardware path
        assert iface.pcr_read(17) != stale

    def test_reboot_invalidates(self, tpm, iface):
        iface.pcr_extend(0, b"\x33" * 20)
        extended = iface.pcr_read(0)
        tpm.reboot()
        assert iface.pcr_read(0) != extended

    def test_nv_write_invalidates_nv_read(self, tpm, iface):
        from repro.osim.tpm_driver import OSTPMDriver

        owner = b"\x05" * 20
        tpm.take_ownership(owner)
        driver = OSTPMDriver(iface)
        driver.define_nv_space(0x1000, 4, owner)
        iface.nv_write(0x1000, b"aaaa")
        assert iface.nv_read(0x1000) == b"aaaa"
        assert iface.nv_read(0x1000) == b"aaaa"
        iface.nv_write(0x1000, b"bbbb")
        assert iface.nv_read(0x1000) == b"bbbb"

    def test_counter_increment_invalidates_counter_read(self, tpm, iface):
        from repro.osim.tpm_driver import OSTPMDriver

        owner = b"\x05" * 20
        tpm.take_ownership(owner)
        driver = OSTPMDriver(iface)
        counter_id = driver.create_counter(b"ctr", owner)

        assert iface.read_counter(counter_id) == iface.read_counter(counter_id)
        before = iface.read_counter(counter_id)
        iface.increment_counter(counter_id)
        assert iface.read_counter(counter_id) == before + 1


class TestExclusions:
    """Commands that must never answer from memory."""

    def test_get_random_is_never_cached(self, iface):
        a = iface.get_random(20)
        b = iface.get_random(20)
        assert a != b  # fresh entropy every call
