"""§7.5 — impact of Flicker sessions on the suspended OS's device I/O.

Paper experiment: bulk file copies (CD-ROM → disk → USB) while the
distributed-computing application runs repeatedly; each session averages
8.3 s with the OS running 37 ms in between.  Result: "the kernel did not
report any I/O errors, and integrity checks with md5sum confirmed that the
integrity of all files remained intact."  The caveat (also §7.5): device
transfers should be scheduled around sessions, since a suspension beyond a
device timeout *would* be reported as an error.
"""

from benchmarks.conftest import print_table
from repro.apps.distributed import BOINCClient, FactoringWorkUnit
from repro.core import FlickerPlatform
from repro.osim.storage import BlockDevice, FileStore

SESSION_TARGET_MS = 8300.0  # the paper's average session length


def run_copy_with_sessions(session_work_ms: float):
    platform = FlickerPlatform(seed=7777)
    kernel = platform.kernel
    machine = platform.machine
    client = BOINCClient(platform)

    cdrom = BlockDevice(machine, "cdrom", bandwidth_mb_s=8)
    disk = BlockDevice(machine, "disk", bandwidth_mb_s=40)
    usb = BlockDevice(machine, "usb", bandwidth_mb_s=12)
    store = FileStore(machine)

    content = machine.rng.fork("avi-file").bytes(2 * 1024 * 1024)
    cdrom.store_file("video.avi", content)
    source_md5 = cdrom.md5sum("video.avi")

    progress_box = {"progress": client.start_unit(
        FactoringWorkUnit(unit_id=1, n=15015, start=2, end=10 ** 9)
    )}
    sessions = {"count": 0}

    def run_session(_copied):
        before = machine.clock.now()
        progress_box["progress"], _ = client.work_slice(
            progress_box["progress"], slice_ms=session_work_ms
        )
        sessions["count"] += 1
        return machine.clock.now() - before

    store.copy(kernel, cdrom, "video.avi", disk, "video.avi", suspension_cb=run_session)
    store.copy(kernel, disk, "video.avi", usb, "video.avi", suspension_cb=run_session)

    return {
        "io_errors": cdrom.io_errors + disk.io_errors + usb.io_errors,
        "md5_intact": usb.md5sum("video.avi") == source_md5,
        "sessions": sessions["count"],
    }


def test_io_integrity_under_paper_length_sessions():
    result = run_copy_with_sessions(SESSION_TARGET_MS - 912.6)
    print_table(
        "§7.5: device transfers under repeated 8.3 s Flicker sessions",
        ["Quantity", "Paper", "Measured"],
        [
            ("I/O errors", "0", len(result["io_errors"])),
            ("md5 integrity", "intact", "intact" if result["md5_intact"] else "CORRUPT"),
            ("sessions interleaved", "many", result["sessions"]),
        ],
    )

    assert result["io_errors"] == []
    assert result["md5_intact"]
    assert result["sessions"] >= 16


def test_io_errors_when_sessions_exceed_device_timeout():
    """The §7.5 caveat: sessions longer than a device timeout (30 s SCSI
    default) do surface as I/O errors — motivating Flicker-aware drivers."""
    result = run_copy_with_sessions(45_000.0)
    print_table(
        "§7.5 caveat: 45 s sessions vs 30 s device timeout",
        ["Quantity", "Expected", "Measured"],
        [
            ("I/O errors", ">0", len(result["io_errors"])),
            ("md5 integrity", "intact (data still copied)",
             "intact" if result["md5_intact"] else "CORRUPT"),
        ],
    )
    assert result["io_errors"]
    assert result["md5_intact"]  # errors are timeouts, not corruption
