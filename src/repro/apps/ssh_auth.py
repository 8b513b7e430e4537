"""SSH password authentication with a minimal-TCB password path (§6.3.1).

Goal: even a fully compromised server OS never sees the user's cleartext
password; and the *client* can verify that guarantee before typing it.

Figure 7's protocol, across two Flicker sessions on the server:

* **Session 1 (setup).**  The SSH PAL generates K_PAL inside Flicker,
  seals K⁻¹_PAL to a future invocation of itself, and outputs the public
  key.  The tqd attests; the client verifies the attestation and thereby
  knows the private key exists only inside this PAL.
* **Session 2 (login).**  The client encrypts {password, nonce} under
  K_PAL.  The PAL unseals K⁻¹_PAL, decrypts, checks the nonce, computes
  ``md5crypt(salt, password)``, extends ⊥ into PCR 17 (revoking its own
  access to sealed secrets), and outputs the hash — which the untrusted
  server compares against ``/etc/passwd``.

The password exists decrypted only between the PKCS#1 decrypt and the end
of the PAL; the SLB Core's cleanup erases it before the OS resumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.attestation import BOTTOM_MEASUREMENT, Attestation
from repro.core.pal import PAL, PALContext
from repro.core.secure_channel import EstablishedChannel, SecureChannelClient
from repro.core.session import FlickerPlatform, SessionResult
from repro.crypto.md5crypt import md5crypt
from repro.crypto.sha1 import sha1
from repro.errors import PALRuntimeError

_CMD_SETUP = 0
_CMD_LOGIN = 1


@dataclass
class PasswdEntry:
    """One ``/etc/passwd`` line's crypt fields."""

    username: str
    salt: bytes
    hashed: str  # full $1$salt$hash crypt string

    @classmethod
    def create(cls, username: str, password: bytes, salt: bytes) -> "PasswdEntry":
        """What ``passwd(8)`` would store for this user."""
        return cls(username=username, salt=salt, hashed=md5crypt(password, salt))


def _encode_login_inputs(ciphertext: bytes, salt: bytes, sdata: bytes, nonce: bytes) -> bytes:
    return (
        bytes([_CMD_LOGIN])
        + nonce
        + len(salt).to_bytes(2, "big") + salt
        + len(sdata).to_bytes(4, "big") + sdata
        + len(ciphertext).to_bytes(4, "big") + ciphertext
    )


class SSHPasswordPAL(PAL):
    """The server-side PAL for both Figure 7 sessions."""

    name = "ssh-password"
    modules = ("secure_channel",)

    def run(self, ctx: PALContext) -> None:
        if not ctx.inputs:
            raise PALRuntimeError("SSH PAL requires a command input")
        command = ctx.inputs[0]
        if command == _CMD_SETUP:
            ctx.write_output(ctx.secure_channel.establish())
        elif command == _CMD_LOGIN:
            self._login(ctx)
        else:
            raise PALRuntimeError(f"unknown SSH-PAL command {command}")

    def _login(self, ctx: PALContext) -> None:
        payload = ctx.inputs[1:]
        nonce = payload[:20]
        off = 20
        salt_len = int.from_bytes(payload[off : off + 2], "big")
        salt = payload[off + 2 : off + 2 + salt_len]
        off += 2 + salt_len
        sdata_len = int.from_bytes(payload[off : off + 4], "big")
        sdata = payload[off + 4 : off + 4 + sdata_len]
        off += 4 + sdata_len
        ct_len = int.from_bytes(payload[off : off + 4], "big")
        ciphertext = payload[off + 4 : off + 4 + ct_len]

        plaintext = ctx.secure_channel.open(sdata, ciphertext)
        pw_len = int.from_bytes(plaintext[:2], "big")
        password = plaintext[2 : 2 + pw_len]
        nonce_prime = plaintext[2 + pw_len : 22 + pw_len]
        if nonce_prime != nonce:
            raise PALRuntimeError("login nonce mismatch (replayed ciphertext?)")

        hashed = ctx.crypto.md5crypt(password, salt)
        # extend(PCR17, ⊥): revoke this session's access to sealed secrets
        # before emitting any output (Figure 7).
        ctx.tpm.pcr_extend(BOTTOM_MEASUREMENT)
        ctx.write_output(hashed.encode("ascii"))


class SSHServer:
    """The modified sshd: Figure 7's server role plus the flicker-module
    plumbing.  Holds the password file; never sees a cleartext password."""

    def __init__(self, platform: FlickerPlatform, pal: Optional[SSHPasswordPAL] = None) -> None:
        self.platform = platform
        self.pal = pal or SSHPasswordPAL()
        self.passwd: Dict[str, PasswdEntry] = {}
        self._channel_output: Optional[bytes] = None
        self._nonce_counter = 0

    def add_user(self, entry: PasswdEntry) -> None:
        """Install a user's passwd entry."""
        self.passwd[entry.username] = entry

    def _fresh_nonce(self) -> bytes:
        self._nonce_counter += 1
        return sha1(b"sshd-nonce" + self._nonce_counter.to_bytes(8, "big"))

    # -- Flicker session 1: channel setup -----------------------------------------

    def run_setup_session(self, client_nonce: bytes) -> Tuple[SessionResult, Attestation]:
        """Execute the setup PAL and produce its attestation."""
        session = self.platform.execute_pal(
            self.pal, inputs=bytes([_CMD_SETUP]), nonce=client_nonce
        )
        self._channel_output = session.outputs
        attestation = self.platform.attest(client_nonce, session)
        return session, attestation

    # -- Flicker session 2: login -----------------------------------------------------

    def run_login_session(
        self, username: str, ciphertext: bytes, sdata: bytes, nonce: bytes
    ) -> bool:
        """Execute the login PAL and compare its output to /etc/passwd."""
        entry = self.passwd.get(username)
        if entry is None:
            return False
        inputs = _encode_login_inputs(ciphertext, entry.salt, sdata, nonce)
        session = self.platform.execute_pal(self.pal, inputs=inputs)
        return session.outputs.decode("ascii") == entry.hashed


@dataclass
class LoginOutcome:
    """What the client experienced over one full connection."""

    authenticated: bool
    #: Client-perceived time from TCP connect to the password prompt.
    time_to_prompt_ms: float
    #: Client-perceived time from password entry to the session opening.
    time_after_entry_ms: float


class SSHClient:
    """The modified OpenSSH client with the flicker-password method.

    Implements §6.3.1's "obvious optimization": the channel keypair is
    created only on the first connection; the client caches K_PAL and the
    sealed private key (sdata) and presents the latter on later logins,
    skipping the expensive setup PAL and its attestation entirely.  A
    missing or invalid cache transparently falls back to a fresh setup —
    "at the cost of some additional latency for the user".
    """

    def __init__(self, platform: FlickerPlatform, expected_pal: Optional[SSHPasswordPAL] = None,
                 reuse_channel: bool = False) -> None:
        self.platform = platform
        self._channel_client = SecureChannelClient(
            platform.verifier(), platform.machine.rng.fork("ssh-client")
        )
        self._rng = platform.machine.rng.fork("ssh-client-nonce")
        self.expected_pal = expected_pal
        self.reuse_channel = reuse_channel
        self._cached_channel: Optional[EstablishedChannel] = None

    def forget_channel(self) -> None:
        """Drop the cached channel (e.g. the user moved to a new client
        machine, the paper's re-keying trigger)."""
        self._cached_channel = None

    def connect_and_login(self, server: SSHServer, username: str, password: bytes) -> LoginOutcome:
        """Run the full Figure 7 exchange against ``server``."""
        machine = self.platform.machine
        network = self.platform.network
        host = machine.profile.host
        start = machine.clock.now()

        # Transport setup + client challenge for the setup attestation.
        machine.clock.advance(host.ssh_transport_ms)

        if self.reuse_channel and self._cached_channel is not None:
            channel: EstablishedChannel = self._cached_channel
        else:
            client_nonce = self._rng.bytes(20)
            network.send("ssh-client", "sshd", client_nonce)

            session, attestation = server.run_setup_session(client_nonce)
            network.send("sshd", "ssh-client", attestation)

            # The client accepts K_PAL only if the attestation proves it
            # came from the expected PAL under Flicker.
            channel = self._channel_client.accept(
                attestation, session.image, client_nonce
            )
            if self.reuse_channel:
                self._cached_channel = channel
        prompt_time = machine.clock.elapsed_since(start)

        # Server sends its login nonce; the user types the password.
        entry_start = machine.clock.now()
        server_nonce = server._fresh_nonce()
        network.send("sshd", "ssh-client", server_nonce)
        message = len(password).to_bytes(2, "big") + password + server_nonce
        ciphertext = self._channel_client.encrypt(channel, message)
        network.send("ssh-client", "sshd", ciphertext)

        ok = server.run_login_session(
            username, ciphertext, channel.sdata.encode(), server_nonce
        )
        network.send("sshd", "ssh-client", b"auth-ok" if ok else b"auth-fail")
        return LoginOutcome(
            authenticated=ok,
            time_to_prompt_ms=prompt_time,
            time_after_entry_ms=machine.clock.elapsed_since(entry_start),
        )
