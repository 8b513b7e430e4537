"""Figure 9 — SSH server-side overhead, per PAL.

Paper values (100 trials)::

    PAL 1 (setup):  SKINIT 14.3, Key Gen 185.7, Seal 10.2  → total 217.1 ms
    PAL 2 (login):  SKINIT 14.3, Unseal 905.4, Decrypt 4.6 → total 937.6 ms

Plus the §7.4.1 client-side end-to-end numbers: 1221 ms to the password
prompt (210 ms unmodified) and ≈940 ms after password entry (10 ms
unmodified).
"""

import pytest

from benchmarks.conftest import print_table
from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
from repro.core import FlickerPlatform

PAPER_PAL1 = {"skinit_ms": 14.3, "keygen_ms": 185.7, "seal_ms": 10.2, "total_ms": 217.1}
PAPER_PAL2 = {"skinit_ms": 14.3, "unseal_ms": 905.4, "decrypt_ms": 4.6, "total_ms": 937.6}


def run_login():
    platform = FlickerPlatform(seed=999)
    server = SSHServer(platform)
    server.add_user(PasswdEntry.create("alice", b"p4ssw0rd!", b"fLiCkEr1"))
    client = SSHClient(platform)

    trace = platform.machine.trace

    # --- PAL 1: setup session -------------------------------------------
    outcome = client.connect_and_login(server, "alice", b"p4ssw0rd!")
    work = [e for e in trace.events(kind="work")]
    keygen_ms = next(e.detail["ms"] for e in work if e.detail["label"] == "rsa-keygen")
    decrypt_ms = next(e.detail["ms"] for e in work if e.detail["label"] == "rsa-decrypt")
    login_session = platform.last_session

    pal1 = {
        "skinit_ms": platform.machine.profile.tpm.skinit_ms(4736),
        "keygen_ms": keygen_ms,
        "seal_ms": platform.machine.profile.tpm.seal_ms(0),
        "total_ms": None,  # filled by a dedicated setup-session run below
    }
    setup_server = SSHServer(FlickerPlatform(seed=998))
    setup_session, _ = setup_server.run_setup_session(b"\x00" * 20)
    pal1["total_ms"] = setup_session.total_ms
    pal1["seal_ms"] = setup_session.tpm_ms["seal"]
    pal1["skinit_ms"] = setup_session.phase_ms["skinit"]

    pal2 = {
        "skinit_ms": login_session.phase_ms["skinit"],
        "unseal_ms": login_session.tpm_ms["unseal"],
        "decrypt_ms": decrypt_ms,
        "total_ms": login_session.total_ms,
    }
    return outcome, pal1, pal2


def test_fig9_ssh_pal_breakdowns():
    outcome, pal1, pal2 = run_login()

    print_table(
        "Figure 9(a): SSH PAL 1 (setup)",
        ["Operation", "Paper (ms)", "Measured (ms)"],
        [
            ("SKINIT", PAPER_PAL1["skinit_ms"], f"{pal1['skinit_ms']:.1f}"),
            ("Key Gen", PAPER_PAL1["keygen_ms"], f"{pal1['keygen_ms']:.1f}"),
            ("Seal", PAPER_PAL1["seal_ms"], f"{pal1['seal_ms']:.1f}"),
            ("Total", PAPER_PAL1["total_ms"], f"{pal1['total_ms']:.1f}"),
        ],
    )
    print_table(
        "Figure 9(b): SSH PAL 2 (login)",
        ["Operation", "Paper (ms)", "Measured (ms)"],
        [
            ("SKINIT", PAPER_PAL2["skinit_ms"], f"{pal2['skinit_ms']:.1f}"),
            ("Unseal", PAPER_PAL2["unseal_ms"], f"{pal2['unseal_ms']:.1f}"),
            ("Decrypt", PAPER_PAL2["decrypt_ms"], f"{pal2['decrypt_ms']:.1f}"),
            ("Total", PAPER_PAL2["total_ms"], f"{pal2['total_ms']:.1f}"),
        ],
    )

    assert outcome.authenticated
    # PAL 1 shape: key generation dominates.
    assert pal1["keygen_ms"] == pytest.approx(PAPER_PAL1["keygen_ms"], rel=0.01)
    assert pal1["keygen_ms"] > 0.75 * pal1["total_ms"]
    assert pal1["total_ms"] == pytest.approx(PAPER_PAL1["total_ms"], rel=0.08)
    # PAL 2 shape: the Unseal dominates everything.
    assert pal2["unseal_ms"] == pytest.approx(PAPER_PAL2["unseal_ms"], rel=0.02)
    assert pal2["unseal_ms"] > 0.9 * pal2["total_ms"]
    assert pal2["total_ms"] == pytest.approx(PAPER_PAL2["total_ms"], rel=0.05)


def test_fig9_client_perceived_latency():
    """§7.4.1's end-to-end numbers as the client experiences them."""
    outcome, _, _ = run_login()
    print_table(
        "§7.4.1: client-perceived latency",
        ["Measurement", "Paper (ms)", "Unmodified (ms)", "Measured (ms)"],
        [
            ("connect → password prompt", 1221, 210, f"{outcome.time_to_prompt_ms:.0f}"),
            ("password entry → session", 940, 10, f"{outcome.time_after_entry_ms:.0f}"),
        ],
    )
    assert outcome.time_to_prompt_ms == pytest.approx(1221.0, rel=0.07)
    assert outcome.time_after_entry_ms == pytest.approx(940.0, rel=0.05)
