"""Table 2 — SKINIT latency as a function of SLB size.

Paper values (AMD test machine)::

    SLB size (KB):   0     4     16    32    64
    Avg (ms):        0.0   11.9  45.0  89.2  177.5
"""

import pytest

from benchmarks.conftest import print_table
from repro.bench import register
from repro.hw.machine import Machine
from repro.hw.skinit import SLB_REGION_SIZE

PAPER_POINTS = {0: 0.0, 4: 11.9, 16: 45.0, 32: 89.2, 64: 177.5}


def measure_skinit_ms(size_kb: int) -> float:
    """Execute a real SKINIT with an SLB measuring ``size_kb`` KB and read
    the virtual time it consumed."""
    machine = Machine(seed=1000 + size_kb)
    for ap in machine.cpu.aps:
        ap.halted = True
    machine.apic.broadcast_init_ipi()
    # A "0-KB" SLB still carries its 4-byte header, and the 16-bit length
    # word tops out just shy of the full 64 KB (as on real hardware).
    length = min(max(size_kb * 1024, 4), 0xFFFC)
    entry = 4 if length > 4 else 0
    header = length.to_bytes(2, "little") + entry.to_bytes(2, "little")
    image = (header + bytes((i * 3) & 0xFF for i in range(length - 4))).ljust(
        SLB_REGION_SIZE, b"\x00"
    )
    machine.memory.write(0x100000, image)
    machine.register_executable(image, lambda m, c, b: None)
    before = machine.clock.now()
    machine.skinit(0, 0x100000)
    return machine.clock.now() - before


def run_bench(sizes_kb=(0, 4, 16, 32, 64)):
    """Registered entry point: SKINIT virtual latency per SLB size."""
    return {
        "virtual": {
            "paper_ms": {str(kb): PAPER_POINTS[kb] for kb in PAPER_POINTS},
            "measured_ms": {str(kb): round(measure_skinit_ms(kb), 6)
                            for kb in sizes_kb},
        },
    }


register(
    "table2_skinit", run_bench, params={"sizes_kb": (0, 4, 16, 32, 64)},
    description="Table 2: SKINIT latency vs SLB size",
)


def test_table2_skinit_vs_slb_size():
    measured = {kb: measure_skinit_ms(kb) for kb in PAPER_POINTS}
    print_table(
        "Table 2: SKINIT latency vs SLB size",
        ["SLB size (KB)", "Paper (ms)", "Measured (ms)"],
        [(kb, f"{PAPER_POINTS[kb]:.1f}", f"{measured[kb]:.1f}") for kb in PAPER_POINTS],
    )

    # Shape: sub-ms at 0 KB, then linear growth dominated by the TPM
    # transfer — successive 16-KB steps cost the same.
    assert measured[0] < 1.0
    for kb, paper_ms in PAPER_POINTS.items():
        if kb:
            assert measured[kb] == pytest.approx(paper_ms, rel=0.08), kb
    # Linearity: 32→64 KB costs twice as much as 16→32 KB.
    step_16_32 = measured[32] - measured[16]
    step_32_64 = measured[64] - measured[32]
    assert abs(step_32_64 - 2 * step_16_32) < 2.0
