"""Figure 6 — the PAL-linkable module inventory.

Paper values::

    Module             LOC    Size (KB)
    SLB Core           94     0.312
    OS Protection      5      0.046
    TPM Driver         216    0.825
    TPM Utilities      889    9.427
    Crypto             2262   31.380
    Memory Management  657    12.511
    Secure Channel     292    2.021

The reproduction carries the same inventory (it sizes the SLB images and
hence the SKINIT model); this bench regenerates the table and checks the
TCB-composition claims made from it.
"""

from benchmarks.conftest import print_table
from repro.bench import register
from repro.core import build_slb
from repro.core.modules import MODULE_REGISTRY, resolve_modules
from repro.apps.ca import CertificateAuthorityPAL
from repro.apps.distributed import DistributedPAL
from repro.apps.rootkit_detector import RootkitDetectorPAL
from repro.apps.ssh_auth import SSHPasswordPAL

PAPER_ORDER = (
    "slb_core", "os_protection", "tpm_driver", "tpm_utils",
    "crypto", "memory_mgmt", "secure_channel",
)


def gather():
    inventory = [
        (name, MODULE_REGISTRY[name].lines_of_code,
         MODULE_REGISTRY[name].size_bytes / 1024.0,
         MODULE_REGISTRY[name].description)
        for name in PAPER_ORDER
    ]
    tcb_per_app = {}
    for pal in (RootkitDetectorPAL(), DistributedPAL(), SSHPasswordPAL(),
                CertificateAuthorityPAL()):
        linked = resolve_modules(pal.modules)
        tcb_per_app[pal.name] = {
            "modules": linked,
            "loc": sum(MODULE_REGISTRY[m].lines_of_code for m in linked),
            "slb_bytes": build_slb(pal, optimize=False).measured_length,
        }
    return inventory, tcb_per_app


def run_bench():
    """Registered entry point: the full module inventory and per-app TCB
    composition as deterministic metrics."""
    inventory, tcb_per_app = gather()
    return {
        "virtual": {
            "inventory": {
                name: {"loc": loc, "kb": round(kb, 3)}
                for name, loc, kb, _ in inventory
            },
            "tcb_per_app": tcb_per_app,
            "total_loc": sum(loc for _, loc, _, _ in inventory),
        },
    }


register(
    "fig6_modules", run_bench,
    description="Figure 6: PAL-linkable module inventory and per-app TCB",
)


def test_fig6_module_inventory():
    inventory, tcb_per_app = gather()
    print_table(
        "Figure 6: PAL-linkable modules",
        ["Module", "LOC", "Size (KB)", "Properties"],
        [(name, loc, f"{kb:.3f}", desc) for name, loc, kb, desc in inventory],
    )
    print_table(
        "Per-application TCB composition",
        ["Application", "Modules", "TCB LOC", "SLB bytes (unoptimized)"],
        [
            (app, ", ".join(m for m in info["modules"] if m != "slb_core") or "(core only)",
             info["loc"], info["slb_bytes"])
            for app, info in tcb_per_app.items()
        ],
    )

    # The headline TCB claim: the mandatory core is under 250 lines.
    assert MODULE_REGISTRY["slb_core"].lines_of_code < 250
    # Applications pay only for what they link: the detector's TCB is a
    # small fraction of the SSH/CA TCB.
    assert tcb_per_app["rootkit-detector"]["loc"] < 0.2 * tcb_per_app["ssh-password"]["loc"]
    # The full inventory matches Figure 6's totals.
    total_loc = sum(loc for _, loc, _, _ in inventory)
    assert total_loc == 94 + 5 + 216 + 889 + 2262 + 657 + 292
