"""sysfs, OS TPM driver / tqd, network, and storage tests."""

import pytest

from repro.crypto.md5 import md5
from repro.errors import OSError_, SysfsError
from repro.hw.machine import Machine
from repro.osim.kernel import UntrustedKernel
from repro.osim.network import NetworkLink
from repro.osim.storage import BlockDevice, FileStore
from repro.osim.sysfs import Sysfs, SysfsEntry
from repro.osim.tpm_driver import TPMQuoteDaemon
from repro.sim.rng import DeterministicRNG
from repro.tpm.privacy_ca import PrivacyCA


class TestSysfs:
    def test_register_read_write(self):
        fs = Sysfs()
        store = {}
        fs.register("mod/data", SysfsEntry(
            "data",
            read_handler=lambda: store.get("v", b""),
            write_handler=lambda data: store.__setitem__("v", data),
        ))
        fs.write("mod/data", b"value")
        assert fs.read("mod/data") == b"value"

    def test_missing_entry(self):
        fs = Sysfs()
        with pytest.raises(SysfsError):
            fs.read("nope")
        with pytest.raises(SysfsError):
            fs.write("nope", b"")

    def test_write_only_and_read_only(self):
        fs = Sysfs()
        fs.register("w", SysfsEntry("w", write_handler=lambda d: None))
        fs.register("r", SysfsEntry("r", read_handler=lambda: b"x"))
        with pytest.raises(SysfsError):
            fs.read("w")
        with pytest.raises(SysfsError):
            fs.write("r", b"")

    def test_duplicate_registration_rejected(self):
        fs = Sysfs()
        fs.register("a", SysfsEntry("a", read_handler=lambda: b""))
        with pytest.raises(SysfsError):
            fs.register("a", SysfsEntry("a", read_handler=lambda: b""))

    def test_unregister(self):
        fs = Sysfs()
        fs.register("a", SysfsEntry("a", read_handler=lambda: b""))
        fs.unregister("a")
        assert not fs.exists("a")
        with pytest.raises(SysfsError):
            fs.unregister("a")


class TestTQD:
    def test_attest_produces_verifiable_quote(self, kernel):
        ca = PrivacyCA(kernel.machine.rng)
        tqd = TPMQuoteDaemon(kernel, ca)
        nonce = b"\x09" * 20
        quote, cert = tqd.attest(nonce, [17])
        assert cert.verify(ca.public_key)
        assert quote.verify(cert.aik_public)
        assert quote.nonce == nonce

    def test_quote_reflects_pcr_changes(self, kernel):
        ca = PrivacyCA(kernel.machine.rng)
        tqd = TPMQuoteDaemon(kernel, ca)
        q1, _ = tqd.attest(b"\x01" * 20, [17])
        tqd.driver.pcr_extend(17, b"\x44" * 20)
        q2, _ = tqd.attest(b"\x01" * 20, [17])
        assert q1.composite.as_dict()[17] != q2.composite.as_dict()[17]


class TestNetwork:
    def test_send_charges_latency(self):
        machine = Machine(seed=1)
        link = NetworkLink(machine.clock, machine.trace, one_way_ms=4.725)
        before = machine.clock.now()
        link.send("a", "b", b"payload")
        assert machine.clock.now() - before == pytest.approx(4.725)

    def test_round_trip_charges_both_ways(self):
        machine = Machine(seed=2)
        link = NetworkLink(machine.clock, machine.trace, one_way_ms=5.0)
        before = machine.clock.now()
        response = link.round_trip("client", "server", b"ping", lambda req: req + b"-pong")
        assert response == b"ping-pong"
        assert machine.clock.now() - before == pytest.approx(10.0)

    def test_messages_enables_eavesdropping_tests(self):
        machine = Machine(seed=3)
        link = NetworkLink(machine.clock, machine.trace, one_way_ms=1.0)
        link.send("a", "b", b"observable")
        assert link.messages() == [("a", "b", b"observable")]

    def test_message_log_is_bounded(self):
        machine = Machine(seed=5)
        link = NetworkLink(machine.clock, machine.trace, one_way_ms=0.1, max_log=4)
        for i in range(10):
            link.send("a", "b", bytes([i]))
        assert link.messages() == [("a", "b", bytes([i])) for i in range(6, 10)]
        assert link.messages_dropped == 6
        assert link.messages_carried == 10


class TestStorage:
    @pytest.fixture
    def setup(self):
        machine = Machine(seed=4)
        kernel = UntrustedKernel(machine)
        src = BlockDevice(machine, "cdrom", bandwidth_mb_s=10)
        dst = BlockDevice(machine, "usb", bandwidth_mb_s=5)
        store = FileStore(machine)
        return machine, kernel, src, dst, store

    def test_copy_preserves_integrity(self, setup):
        machine, kernel, src, dst, store = setup
        content = DeterministicRNG(5).bytes(700 * 1024)
        src.store_file("big.avi", content)
        store.copy(kernel, src, "big.avi", dst, "copy.avi")
        assert dst.read_file("copy.avi") == content
        assert dst.md5sum("copy.avi") == md5(content)

    def test_copy_charges_bandwidth_time(self, setup):
        machine, kernel, src, dst, store = setup
        src.store_file("f", b"\x00" * (1024 * 1024))
        before = machine.clock.now()
        store.copy(kernel, src, "f", dst, "f2")
        elapsed = machine.clock.now() - before
        # 1 MB at 10 MB/s plus 1 MB at 5 MB/s = 100 + 200 ms.
        assert elapsed == pytest.approx(300.0, rel=0.05)

    def test_short_suspensions_cause_no_errors(self, setup):
        """§7.5: 8.3 s sessions do not produce I/O errors."""
        machine, kernel, src, dst, store = setup
        src.store_file("f", b"\x01" * (512 * 1024))
        store.copy(kernel, src, "f", dst, "f2",
                   suspension_cb=lambda copied: 8300.0)
        assert src.io_errors == [] and dst.io_errors == []
        assert dst.read_file("f2") == b"\x01" * (512 * 1024)

    def test_timeout_long_suspensions_recorded(self, setup):
        machine, kernel, src, dst, store = setup
        src.store_file("f", b"\x02" * (256 * 1024))
        store.copy(kernel, src, "f", dst, "f2",
                   suspension_cb=lambda copied: 45_000.0)  # > 30 s timeout
        assert src.io_errors and dst.io_errors

    def test_missing_file(self, setup):
        _, kernel, src, dst, store = setup
        with pytest.raises(OSError_):
            store.copy(kernel, src, "ghost", dst, "out")

    def test_dma_transfers_go_through_dev(self, setup):
        """A copy stalls with a DMA fault if its buffer page is protected."""
        from repro.errors import DMAProtectionError

        machine, kernel, src, dst, store = setup
        src.store_file("f", b"\x03" * 1024)
        buffer_addr = store._kernel_buffer(kernel)
        machine.dev.protect_range(buffer_addr, 4096)
        with pytest.raises(DMAProtectionError):
            store.copy(kernel, src, "f", dst, "f2")
