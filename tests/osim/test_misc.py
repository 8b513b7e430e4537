"""Coverage for the smaller osim surfaces: page tables, devices, hosts."""

import pytest

from repro.hw.machine import Machine
from repro.osim.kernel import Process
from repro.osim.network import RemoteHost
from repro.osim.storage import BlockDevice


class TestPageTables:
    def test_kernel_installs_cr3_on_all_cores(self, kernel):
        for core in kernel.machine.cpu.cores:
            assert core.cr3 == kernel.page_tables.root


class TestProcess:
    def test_defaults(self):
        process = Process(pid=7, name="sshd")
        assert process.core_id is None


class TestBlockDevice:
    def test_transfer_time_scales_with_bandwidth(self):
        machine = Machine(seed=9)
        fast = BlockDevice(machine, "ssd", bandwidth_mb_s=100)
        slow = BlockDevice(machine, "usb1", bandwidth_mb_s=10)
        nbytes = 10 * 1024 * 1024
        assert slow.transfer_ms(nbytes) == pytest.approx(10 * fast.transfer_ms(nbytes))

    def test_md5sum_matches_content(self):
        from repro.crypto.md5 import md5

        machine = Machine(seed=10)
        device = BlockDevice(machine, "disk")
        device.store_file("f", b"content-bytes")
        assert device.md5sum("f") == md5(b"content-bytes")

    def test_has_file(self):
        machine = Machine(seed=11)
        device = BlockDevice(machine, "disk")
        assert not device.has_file("nope")
        device.store_file("yes", b"1")
        assert device.has_file("yes")


class TestRemoteHost:
    def test_named_endpoint(self):
        assert RemoteHost(name="admin-workstation").name == "admin-workstation"


class TestMachineDMATrace:
    def test_dma_reads_and_writes_traced(self):
        machine = Machine(seed=12)
        nic = machine.attach_dma_device("nic0")
        nic.dma_write(0x9000, b"frame")
        nic.dma_read(0x9000, 5)
        writes = machine.trace.events(kind="dma_write")
        reads = machine.trace.events(kind="dma_read")
        assert writes and writes[0].detail["device"] == "nic0"
        assert reads and reads[0].detail["length"] == 5
