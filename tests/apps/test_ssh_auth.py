"""SSH password-authentication tests (paper §6.3.1, Figure 7, §7.4.1)."""

import pytest

from repro.apps.ssh_auth import PasswdEntry, SSHClient, SSHServer
from repro.core import FlickerPlatform
from repro.crypto.md5crypt import md5crypt

PASSWORD = b"correct-horse"
SALT = b"fLiCkEr1"


@pytest.fixture
def deployment(platform):
    server = SSHServer(platform)
    server.add_user(PasswdEntry.create("alice", PASSWORD, SALT))
    client = SSHClient(platform)
    return platform, server, client


class TestPasswdEntry:
    def test_create_matches_md5crypt(self):
        entry = PasswdEntry.create("bob", b"pw", b"somesalt")
        assert entry.hashed == md5crypt(b"pw", b"somesalt")
        assert entry.salt == b"somesalt"


class TestLoginFlow:
    def test_correct_password_authenticates(self, deployment):
        _, server, client = deployment
        outcome = client.connect_and_login(server, "alice", PASSWORD)
        assert outcome.authenticated

    def test_wrong_password_rejected(self, deployment):
        _, server, client = deployment
        assert not client.connect_and_login(server, "alice", b"wrong").authenticated

    def test_unknown_user_rejected(self, deployment):
        _, server, client = deployment
        assert not client.connect_and_login(server, "mallory", PASSWORD).authenticated

    def test_multiple_users(self, deployment):
        platform, server, client = deployment
        server.add_user(PasswdEntry.create("carol", b"carolpw", b"csalt"))
        assert client.connect_and_login(server, "carol", b"carolpw").authenticated
        assert not client.connect_and_login(server, "carol", PASSWORD).authenticated


class TestSecrecy:
    def test_cleartext_password_never_crosses_network(self, deployment):
        platform, server, client = deployment
        client.connect_and_login(server, "alice", PASSWORD)
        for _, _, payload in platform.network.messages():
            if isinstance(payload, bytes):
                assert PASSWORD not in payload

    def test_cleartext_password_not_in_memory_after_login(self, deployment):
        """§6.3.1: the unencrypted password exists on the server only
        during the Flicker session; cleanup must erase it."""
        platform, server, client = deployment
        client.connect_and_login(server, "alice", PASSWORD)
        assert platform.machine.memory.find_bytes(PASSWORD) == ()

    def test_password_hash_comparison_happens_outside_pal(self, deployment):
        """The PAL outputs only the crypt hash — the OS-side comparison
        needs nothing secret."""
        platform, server, client = deployment
        client.connect_and_login(server, "alice", PASSWORD)
        assert platform.last_session.outputs == md5crypt(PASSWORD, SALT).encode("ascii")

    def test_replayed_ciphertext_rejected(self, deployment):
        """A captured login ciphertext replayed under a different server
        nonce must fail (Figure 7's nonce check)."""
        from repro.core.secure_channel import SecureChannelClient
        from repro.errors import PALRuntimeError

        platform, server, _ = deployment
        client_nonce = b"\x03" * 20
        session, attestation = server.run_setup_session(client_nonce)
        channel_client = SecureChannelClient(
            platform.verifier(), platform.machine.rng.fork("replay-test")
        )
        channel = channel_client.accept(attestation, session.image, client_nonce)

        nonce1 = server._fresh_nonce()
        message = len(PASSWORD).to_bytes(2, "big") + PASSWORD + nonce1
        ciphertext = channel_client.encrypt(channel, message)
        sdata = channel.sdata.encode()
        assert server.run_login_session("alice", ciphertext, sdata, nonce1)

        # Same ciphertext, different login nonce: the PAL must abort.
        nonce2 = server._fresh_nonce()
        with pytest.raises(PALRuntimeError, match="nonce"):
            server.run_login_session("alice", ciphertext, sdata, nonce2)


class TestTimings:
    def test_time_to_prompt_matches_paper(self, deployment):
        """§7.4.1: ~1221 ms from TCP connect to password prompt (vs 210 ms
        unmodified).  Dominated by the Quote (972.7 here vs the paper's
        949 ms sample) plus PAL 1."""
        _, server, client = deployment
        outcome = client.connect_and_login(server, "alice", PASSWORD)
        assert outcome.time_to_prompt_ms == pytest.approx(1221.0, rel=0.06)

    def test_time_after_entry_matches_paper(self, deployment):
        """§7.4.1: ~940 ms from password entry to session (vs 10 ms
        unmodified), dominated by the Unseal."""
        _, server, client = deployment
        outcome = client.connect_and_login(server, "alice", PASSWORD)
        assert outcome.time_after_entry_ms == pytest.approx(940.0, rel=0.03)

    def test_pal1_breakdown_matches_fig9a(self, platform):
        """Figure 9(a): SKINIT 14.3, KeyGen 185.7, Seal 10.2 → total 217.1."""
        server = SSHServer(platform)
        session, _ = server.run_setup_session(b"\x00" * 20)
        assert session.phase_ms["skinit"] == pytest.approx(14.3, abs=1.0)
        assert session.tpm_ms.get("seal", 0) == pytest.approx(10.2, abs=2.0)
        assert session.total_ms == pytest.approx(217.1, rel=0.08)

    def test_pal2_dominated_by_unseal(self, deployment):
        """Figure 9(b): Unseal 905.4 of the 937.6 ms total."""
        platform, server, client = deployment
        client.connect_and_login(server, "alice", PASSWORD)
        login_session = platform.last_session
        assert login_session.tpm_ms.get("unseal", 0) == pytest.approx(905.4, rel=0.02)
        assert login_session.total_ms == pytest.approx(937.6, rel=0.05)

    def test_channel_reuse_skips_setup_pal(self, platform):
        """§6.3.1's optimization: 'only create a new keypair the first
        time a user connects' — cached-channel logins skip PAL 1 and the
        Quote, collapsing the time-to-prompt."""
        from repro.apps.ssh_auth import SSHClient as Client

        server = SSHServer(platform)
        server.add_user(PasswdEntry.create("alice", PASSWORD, SALT))
        client = Client(platform, reuse_channel=True)
        first = client.connect_and_login(server, "alice", PASSWORD)
        second = client.connect_and_login(server, "alice", PASSWORD)
        assert first.authenticated and second.authenticated
        # Second connection: no setup PAL, no Quote → prompt in ~transport
        # time instead of ~1.2 s.
        assert second.time_to_prompt_ms < 0.1 * first.time_to_prompt_ms
        # The login path itself is unchanged (still Unseal-dominated).
        assert second.time_after_entry_ms == pytest.approx(
            first.time_after_entry_ms, rel=0.05
        )

    def test_forget_channel_triggers_rekey(self, platform):
        from repro.apps.ssh_auth import SSHClient as Client

        server = SSHServer(platform)
        server.add_user(PasswdEntry.create("alice", PASSWORD, SALT))
        client = Client(platform, reuse_channel=True)
        client.connect_and_login(server, "alice", PASSWORD)
        client.forget_channel()
        outcome = client.connect_and_login(server, "alice", PASSWORD)
        assert outcome.authenticated
        assert outcome.time_to_prompt_ms > 1000.0  # full setup again

    def test_faster_tpm_shrinks_login(self):
        """Ablation: the Infineon profile (Unseal 391 ms) roughly halves
        the post-entry latency."""
        from repro.sim.timing import INFINEON_PROFILE

        slow = FlickerPlatform(seed=77)
        fast = FlickerPlatform(profile=INFINEON_PROFILE, seed=77)
        outcomes = {}
        for label, plat in (("slow", slow), ("fast", fast)):
            server = SSHServer(plat)
            server.add_user(PasswdEntry.create("alice", PASSWORD, SALT))
            outcomes[label] = SSHClient(plat).connect_and_login(
                server, "alice", PASSWORD
            ).time_after_entry_ms
        assert outcomes["fast"] < 0.6 * outcomes["slow"]
