"""The TPM device and its locality-scoped command interface.

The TPM is passive: software (the OS's TPM driver, or a PAL's minimal
driver) issues commands through a :class:`TPMInterface` bound to a
*locality*.  Locality 4 is reserved for the CPU itself — it is the only
path that can issue the dynamic-PCR reset that accompanies SKINIT
(paper §2.3: "Only a hardware command from the CPU can reset PCR 17").
The machine keeps the locality-4 interface private; all software gets
locality 0.

Every command charges its latency to the platform's virtual clock from the
active :class:`~repro.sim.timing.TPMTimings` profile, emits a trace event,
and adds its nominal cost to the device's running per-op total
(:attr:`TPM.op_ms`), which is how a session decomposes its time into the
paper's per-operation rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.crypto.aes import AES128
from repro.crypto.hmac import constant_time_equal, hmac_sha1
from repro.crypto.pkcs1 import pkcs1_sign_sha1
from repro.crypto.rsa import RSAKeyPair, generate_rsa_keypair
from repro.crypto.sha1 import sha1
from repro.errors import (
    TPMAuthError,
    TPMError,
    TPMLocalityError,
    TPMNVError,
)
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import TPMTimings
from repro.sim.trace import EventTrace
from repro.tpm.nvram import MonotonicCounter, NVSpace, check_pcr_policy
from repro.tpm.pcr import DYNAMIC_PCRS, PCRBank
from repro.tpm.sessions import WELL_KNOWN_AUTH, AuthSession
from repro.tpm.structures import PCRComposite, Quote, SealedBlob

#: Locality of ordinary software (OS drivers, PAL TPM driver).
LOCALITY_OS = 0

#: Locality reserved for the CPU microcode path used by SKINIT.
LOCALITY_CPU = 4

#: Default modulus size for TPM-resident keys.  The real chip uses 2048-bit
#: keys; the simulation defaults to 512 bits so that test runs are fast —
#: *virtual* latencies come from the timing profile and are unaffected.
DEFAULT_KEY_BITS = 512


def command_digest(name: str, *parts: bytes) -> bytes:
    """Digest of a command's name and parameters, as used in auth proofs."""
    h = name.encode("ascii")
    for part in parts:
        h += len(part).to_bytes(4, "big") + part
    return sha1(h)


class TPM:
    """A TPM v1.2 device instance.

    Construct one per :class:`~repro.hw.machine.Machine`; obtain command
    interfaces via :meth:`interface`.
    """

    def __init__(
        self,
        clock: VirtualClock,
        trace: EventTrace,
        rng: DeterministicRNG,
        timings: TPMTimings,
        key_bits: int = DEFAULT_KEY_BITS,
        jitter_fraction: float = 0.0,
    ) -> None:
        self.timings = timings
        #: Relative per-command latency noise (σ as a fraction of the
        #: nominal cost).  Zero by default for exact table reproduction;
        #: the paper's own measurements carry a few percent of spread
        #: (e.g. 14% std error on RSA keygen, §7.4.1).
        self.jitter_fraction = jitter_fraction
        self._jitter_rng = rng.fork("tpm-jitter")
        self._clock = clock
        self._trace = trace
        self._rng = rng.fork("tpm")
        self.pcrs = PCRBank()

        # Key hierarchy.  The EK/SRK are created by the manufacturer; the
        # AIK is created on request and certified by a Privacy CA
        # (repro.tpm.privacy_ca).  Private halves never leave this object.
        # Generated lazily: key creation is the expensive part of TPM
        # construction and many simulations never quote.
        self._key_bits = key_bits
        self._key_rngs = {
            name: self._rng.fork(f"key:{name}") for name in ("ek", "srk", "aik")
        }
        self._keys: Dict[str, RSAKeyPair] = {}

        # Internal symmetric storage keys protecting sealed blobs.  On the
        # real chip sealed data is wrapped under the (asymmetric) SRK; the
        # simulation wraps under TPM-internal symmetric keys, which has the
        # same trust property — the keys never leave the TPM.
        self._storage_key = self._rng.bytes(16)
        self._storage_mac_key = self._rng.bytes(20)

        self.srk_auth = WELL_KNOWN_AUTH
        self.aik_auth = WELL_KNOWN_AUTH
        self._owner_auth: Optional[bytes] = None

        self._sessions: Dict[int, AuthSession] = {}
        self._next_session_id = 1
        self._nv_spaces: Dict[int, NVSpace] = {}
        self._counters: Dict[int, MonotonicCounter] = {}
        self._next_counter_id = 1
        #: Cumulative nominal latency (ms, before jitter and clock skew)
        #: charged per command op since construction.  A session reads
        #: it before and after to report its per-op TPM time.
        self.op_ms: Dict[str, float] = {}

        #: Fault-injection hook, installed by the owning machine.  Called as
        #: ``fault_hook("tpm.command", op=..., **detail)`` at the entry of
        #: every command; may raise a typed :class:`~repro.errors.TPMError`
        #: or return replacement data (see :mod:`repro.faults`).
        self.fault_hook = None
        #: Observability hub, installed by the owning machine
        #: (:meth:`repro.hw.machine.Machine.enable_observability`).  When
        #: set, every command records a child span and a latency-histogram
        #: sample; ``None`` keeps the command path overhead-free.
        self.obs = None

    # -- plumbing -------------------------------------------------------------

    def _fault(self, op: str, **detail):
        if self.fault_hook is None:
            return None
        return self.fault_hook("tpm.command", op=op, **detail)

    def _charge(self, ms: float, op: str, **detail) -> None:
        self.op_ms[op] = self.op_ms.get(op, 0.0) + ms
        if self.jitter_fraction > 0.0 and ms > 0.0:
            noisy = self._jitter_rng.gauss(ms, ms * self.jitter_fraction)
            ms = max(0.0, noisy)
        self._clock.advance(ms)
        self._trace.emit(self._clock.now(), "tpm", op, **detail)
        obs = self.obs
        if obs is not None:
            # The clock already advanced by the (skew-scaled) cost, so the
            # recorded span ends now and the histogram sees the real charge.
            charged = ms * self._clock.skew
            obs.record_complete(f"tpm:{op}", category="tpm",
                                duration_ms=charged, op=op)
            obs.registry.counter(
                "tpm_commands_total", "TPM commands issued"
            ).inc(op=op)
            obs.registry.histogram(
                "tpm_command_ms", "Per-command TPM latency"
            ).observe(charged, op=op)

    def interface(self, locality: int,
                  tenant: Optional[str] = None) -> "TPMInterface":
        """A command interface bound to ``locality``.

        Software may request localities 0–3; locality 4 interfaces are
        created once by the machine and never handed to software.

        ``tenant`` binds the interface to a vTPM tenant
        (:mod:`repro.vtpm`): counters created through it belong to that
        tenant and are unreachable through interfaces bound to any other
        tenant.  ``None`` (the default) is the untenanted hardware-owner
        view with full access — existing callers are unaffected.
        """
        if not 0 <= locality <= 4:
            raise TPMLocalityError(f"invalid locality {locality}")
        return TPMInterface(self, locality, tenant)

    def reboot(self) -> None:
        """Platform reset: PCR semantics per §2.3, sessions dropped.

        NV storage and counters persist (they are non-volatile)."""
        self.pcrs.reboot()
        self._sessions.clear()

    # -- ownership ------------------------------------------------------------

    def take_ownership(self, owner_auth: bytes) -> None:
        """Install the 20-byte TPM Owner Authorization Data (once)."""
        if self._owner_auth is not None:
            raise TPMAuthError("TPM already has an owner")
        if len(owner_auth) != 20:
            raise TPMError("owner auth must be 20 bytes")
        self._owner_auth = owner_auth

    @property
    def owner_auth_installed(self) -> bool:
        """Whether TakeOwnership has run."""
        return self._owner_auth is not None

    def _require_owner_auth(self, session: AuthSession, digest: bytes,
                            nonce_odd: bytes, proof: bytes) -> None:
        if self._owner_auth is None:
            raise TPMAuthError("no owner installed")
        session.verify_proof(self._owner_auth, digest, nonce_odd, proof)

    # -- public keys ----------------------------------------------------------

    def _key(self, name: str) -> RSAKeyPair:
        if name not in self._keys:
            self._keys[name] = generate_rsa_keypair(self._key_bits, self._key_rngs[name])
        return self._keys[name]

    @property
    def ek_public(self):
        """Endorsement key public half."""
        return self._key("ek").public

    @property
    def aik_public(self):
        """Attestation identity key public half."""
        return self._key("aik").public

    # -- sessions ---------------------------------------------------------------

    def start_oiap(self) -> AuthSession:
        """Open an OIAP session; returns it (caller keeps the handle)."""
        session = AuthSession(
            session_id=self._next_session_id,
            session_type="OIAP",
            nonce_even=self._rng.bytes(20),
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self._charge(self.timings.session_ms, "oiap_start", session=session.session_id)
        return session

    def start_osap(self, entity_auth: bytes, nonce_odd_osap: bytes) -> AuthSession:
        """Open an OSAP session bound to an entity secret."""
        nonce_even_osap = self._rng.bytes(20)
        session = AuthSession(
            session_id=self._next_session_id,
            session_type="OSAP",
            nonce_even=self._rng.bytes(20),
            shared_secret=AuthSession.osap_shared_secret(
                entity_auth, nonce_even_osap, nonce_odd_osap
            ),
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self._charge(self.timings.session_ms, "osap_start", session=session.session_id)
        return session

    def _session(self, session_id: int) -> AuthSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise TPMAuthError(f"no such session {session_id}") from None

    # -- core commands (locality-checked wrappers live on TPMInterface) -----------

    def _pcr_read(self, index: int) -> bytes:
        self._fault("pcr_read", pcr=index)
        self._charge(self.timings.pcr_read_ms, "pcr_read", pcr=index)
        return self.pcrs.read(index)

    def _pcr_extend(self, index: int, measurement: bytes) -> bytes:
        self._fault("pcr_extend", pcr=index)
        value = self.pcrs.extend(index, measurement)
        self._charge(
            self.timings.extend_ms, "pcr_extend", pcr=index, measurement=measurement.hex()
        )
        return value

    def _dynamic_reset(self, locality: int) -> None:
        if locality != LOCALITY_CPU:
            raise TPMLocalityError(
                "dynamic PCR reset requires locality 4 (CPU hardware command)"
            )
        self.pcrs.dynamic_reset()
        self._trace.emit(self._clock.now(), "tpm", "dynamic_pcr_reset", pcrs=list(DYNAMIC_PCRS))
        if self.obs is not None:
            self.obs.event("tpm.dynamic_pcr_reset", category="tpm",
                           locality=locality)

    def _get_random(self, num_bytes: int) -> bytes:
        # Found by the coverage-guided fuzzer (tests/fuzz/corpus/
        # tpm-get-random-negative.json): a negative count escaped as an
        # untyped ValueError from the RNG, violating the typed-error
        # contract at the PAL boundary.
        if num_bytes < 0:
            raise TPMError("GetRandom byte count must be non-negative")
        self._fault("get_random", nbytes=num_bytes)
        self._charge(self.timings.getrandom_ms(num_bytes), "get_random", nbytes=num_bytes)
        return self._rng.bytes(num_bytes)

    def _quote(
        self,
        nonce: bytes,
        pcr_indices: Iterable[int],
        session_id: int,
        nonce_odd: bytes,
        proof: bytes,
    ) -> Quote:
        self._fault("quote")
        indices = tuple(sorted(set(pcr_indices)))
        digest = command_digest("TPM_Quote", nonce, bytes(indices))
        self._session(session_id).verify_proof(self.aik_auth, digest, nonce_odd, proof)
        composite = PCRComposite.from_mapping(self.pcrs.snapshot(indices))
        info = Quote.quote_info(composite, nonce)
        signature = pkcs1_sign_sha1(self._key("aik").private, info)
        self._charge(self.timings.quote_ms, "quote", pcrs=list(indices), nonce=nonce.hex())
        return Quote(
            composite=composite,
            nonce=nonce,
            signature=signature,
            aik_public=self._key("aik").public,
        )

    # -- sealed storage ---------------------------------------------------------

    @staticmethod
    def _encode_sealed_payload(pcr_policy: Dict[int, bytes], data: bytes) -> bytes:
        policy = PCRComposite.from_mapping(pcr_policy).encode() if pcr_policy else b""
        return (
            len(policy).to_bytes(4, "big") + policy
            + len(data).to_bytes(4, "big") + data
        )

    @staticmethod
    def _decode_sealed_payload(payload: bytes) -> Tuple[Dict[int, bytes], bytes]:
        policy_len = int.from_bytes(payload[:4], "big")
        off = 4
        policy_blob = payload[off : off + policy_len]
        off += policy_len
        data_len = int.from_bytes(payload[off : off + 4], "big")
        data = payload[off + 4 : off + 4 + data_len]
        policy: Dict[int, bytes] = {}
        if policy_blob:
            count = int.from_bytes(policy_blob[:2], "big")
            p = 2
            indices = []
            for _ in range(count):
                indices.append(int.from_bytes(policy_blob[p : p + 2], "big"))
                p += 2
            values_len = int.from_bytes(policy_blob[p : p + 4], "big")
            p += 4
            values = policy_blob[p : p + values_len]
            for i, index in enumerate(indices):
                policy[index] = values[20 * i : 20 * i + 20]
        return policy, data

    def _seal(
        self,
        data: bytes,
        pcr_policy: Dict[int, bytes],
        session_id: int,
        nonce_odd: bytes,
        proof: bytes,
    ) -> SealedBlob:
        self._fault("seal", nbytes=len(data))
        digest = command_digest(
            "TPM_Seal", data, PCRComposite.from_mapping(pcr_policy).encode() if pcr_policy else b""
        )
        self._session(session_id).verify_proof(self.srk_auth, digest, nonce_odd, proof)
        payload = self._encode_sealed_payload(pcr_policy, data)
        iv = self._rng.bytes(16)
        ciphertext = iv + AES128(self._storage_key).encrypt_cbc(payload, iv)
        # MAC the full framing (header + ciphertext), not the ciphertext
        # alone: the fuzzer showed a header-only bit-flip slipping past a
        # ciphertext-only MAC (tests/fuzz/corpus/seal-header-tamper.json).
        blob = SealedBlob(ciphertext=ciphertext, mac=b"\x00" * 20,
                          bound_pcrs=tuple(sorted(pcr_policy)))
        mac = hmac_sha1(self._storage_mac_key, blob.authenticated_bytes())
        self._charge(self.timings.seal_ms(len(data)), "seal", nbytes=len(data),
                     pcrs=sorted(pcr_policy))
        return SealedBlob(ciphertext=ciphertext, mac=mac, bound_pcrs=blob.bound_pcrs)

    def _unseal(
        self,
        blob: SealedBlob,
        session_id: int,
        nonce_odd: bytes,
        proof: bytes,
    ) -> bytes:
        self._fault("unseal")
        digest = command_digest("TPM_Unseal", blob.ciphertext)
        self._session(session_id).verify_proof(self.srk_auth, digest, nonce_odd, proof)
        expected_mac = hmac_sha1(self._storage_mac_key, blob.authenticated_bytes())
        if not constant_time_equal(expected_mac, blob.mac):
            raise TPMError("sealed blob integrity check failed")
        iv, body = blob.ciphertext[:16], blob.ciphertext[16:]
        payload = AES128(self._storage_key).decrypt_cbc(body, iv)
        policy, data = self._decode_sealed_payload(payload)
        check_pcr_policy(policy, self.pcrs.read, "TPM_Unseal")
        self._charge(self.timings.unseal_ms(len(data)), "unseal", nbytes=len(data))
        return data

    # -- NV storage and counters --------------------------------------------------

    def _nv_define_space(
        self,
        index: int,
        size: int,
        read_pcr_policy: Optional[Dict[int, bytes]],
        write_pcr_policy: Optional[Dict[int, bytes]],
        session_id: int,
        nonce_odd: bytes,
        proof: bytes,
    ) -> NVSpace:
        digest = command_digest(
            "TPM_NV_DefineSpace", index.to_bytes(4, "big"), size.to_bytes(4, "big")
        )
        self._require_owner_auth(self._session(session_id), digest, nonce_odd, proof)
        if index in self._nv_spaces:
            raise TPMNVError(f"NV space {index:#x} already defined")
        if not 0 <= index <= 0xFFFFFFFF:
            raise TPMNVError("NV index must be an unsigned 32-bit value")
        if size <= 0 or size > 4096:
            raise TPMNVError("NV space size must be in 1..4096 bytes")
        space = NVSpace(
            index=index,
            size=size,
            read_pcr_policy=dict(read_pcr_policy) if read_pcr_policy else None,
            write_pcr_policy=dict(write_pcr_policy) if write_pcr_policy else None,
        )
        self._nv_spaces[index] = space
        self._charge(self.timings.nv_op_ms, "nv_define", index=index, size=size)
        return space

    def _nv_space(self, index: int) -> NVSpace:
        try:
            return self._nv_spaces[index]
        except KeyError:
            raise TPMNVError(f"NV space {index:#x} not defined") from None

    def _nv_write(self, index: int, data: bytes) -> None:
        corrupted = self._fault("nv_write", index=index, data=data)
        if corrupted is not None:
            # The fault model lets the injector hand back the bytes the dying
            # NV cell actually retained; the command itself "succeeds".
            data = corrupted
        space = self._nv_space(index)
        check_pcr_policy(space.write_pcr_policy, self.pcrs.read, f"NV write {index:#x}")
        space.check_size(data)
        space.data = data
        space.written = True
        self._charge(self.timings.nv_op_ms, "nv_write", index=index, nbytes=len(data))

    def _nv_read(self, index: int) -> bytes:
        self._fault("nv_read", index=index)
        space = self._nv_space(index)
        check_pcr_policy(space.read_pcr_policy, self.pcrs.read, f"NV read {index:#x}")
        if not space.written:
            raise TPMNVError(f"NV space {index:#x} has never been written")
        self._charge(self.timings.nv_op_ms, "nv_read", index=index)
        return space.data

    def _create_counter(self, label: bytes, session_id: int, nonce_odd: bytes,
                        proof: bytes, tenant: Optional[str] = None) -> int:
        digest = command_digest("TPM_CreateCounter", label)
        self._require_owner_auth(self._session(session_id), digest, nonce_odd, proof)
        counter = MonotonicCounter(counter_id=self._next_counter_id, label=label,
                                   owner_tenant=tenant)
        self._counters[counter.counter_id] = counter
        self._next_counter_id += 1
        detail = {"counter": counter.counter_id}
        if tenant is not None:
            detail["tenant"] = tenant
        self._charge(self.timings.nv_op_ms, "counter_create", **detail)
        return counter.counter_id

    def _counter(self, counter_id: int,
                 tenant: Optional[str] = None) -> MonotonicCounter:
        try:
            counter = self._counters[counter_id]
        except KeyError:
            raise TPMNVError(f"no monotonic counter {counter_id}") from None
        # Tenant partition: a tenant-bound interface may only touch its own
        # counters.  The untenanted (hardware-owner) view sees everything.
        if tenant is not None and counter.owner_tenant != tenant:
            raise TPMAuthError(
                f"counter {counter_id} is not owned by tenant {tenant!r}"
            )
        return counter

    def _increment_counter(self, counter_id: int,
                           tenant: Optional[str] = None) -> int:
        self._fault("counter_increment", counter=counter_id)
        value = self._counter(counter_id, tenant).increment()
        detail = {"counter": counter_id, "value": value}
        if tenant is not None:
            detail["tenant"] = tenant
        self._charge(self.timings.nv_op_ms, "counter_increment", **detail)
        return value

    def _read_counter(self, counter_id: int,
                      tenant: Optional[str] = None) -> int:
        detail = {"counter": counter_id}
        if tenant is not None:
            detail["tenant"] = tenant
        self._charge(self.timings.pcr_read_ms, "counter_read", **detail)
        return self._counter(counter_id, tenant).value

    def _get_capability(self) -> Dict[str, object]:
        self._charge(self.timings.pcr_read_ms, "get_capability")
        return {
            "version": "1.2",
            "pcr_count": 24,
            "vendor": self.timings.name,
            "nv_spaces": sorted(self._nv_spaces),
            "counters": sorted(self._counters),
            "owned": self.owner_auth_installed,
        }


class TPMInterface:
    """Locality-bound view of the TPM's command set.

    This is the object software holds: the OS TPM driver gets one at
    locality 0, and a PAL's minimal driver gets one created during the
    Flicker session.  All methods forward to the device with the locality
    attached where it matters.

    An interface may additionally be bound to a vTPM ``tenant``
    (:meth:`TPM.interface`): counter commands then carry the tenant so
    the device can enforce the per-tenant counter partition.
    """

    def __init__(self, tpm: TPM, locality: int,
                 tenant: Optional[str] = None) -> None:
        self._tpm = tpm
        self.locality = locality
        self.tenant = tenant

    # Convenience re-exports -------------------------------------------------

    @property
    def timings(self) -> TPMTimings:
        """The active timing profile (read-only)."""
        return self._tpm.timings

    @property
    def aik_public(self):
        """AIK public key (public information)."""
        return self._tpm.aik_public

    @property
    def srk_auth(self) -> bytes:
        """The SRK authorization secret.

        The simulation uses the TCG well-known secret (20 zero bytes), which
        is public by definition — possessing it grants no access to sealed
        *contents*, which remain PCR-gated."""
        return self._tpm.srk_auth

    @property
    def aik_auth(self) -> bytes:
        """AIK usage authorization secret (well-known in this simulation)."""
        return self._tpm.aik_auth

    # Commands ---------------------------------------------------------------

    def pcr_read(self, index: int) -> bytes:
        """TPM_PCRRead."""
        return self._tpm._pcr_read(index)

    def pcr_extend(self, index: int, measurement: bytes) -> bytes:
        """TPM_Extend: fold a 20-byte measurement into a PCR."""
        return self._tpm._pcr_extend(index, measurement)

    def dynamic_pcr_reset(self) -> None:
        """The hardware reset of PCRs 17–23.  Only the CPU's locality-4
        interface may issue it; software calls raise
        :class:`TPMLocalityError` (paper §2.3)."""
        self._tpm._dynamic_reset(self.locality)

    def get_random(self, num_bytes: int) -> bytes:
        """TPM_GetRandom."""
        return self._tpm._get_random(num_bytes)

    def get_capability(self) -> Dict[str, object]:
        """TPM_GetCapability (abbreviated)."""
        return self._tpm._get_capability()

    def start_oiap(self) -> AuthSession:
        """Open an OIAP authorization session."""
        return self._tpm.start_oiap()

    def start_osap(self, entity_auth: bytes, nonce_odd_osap: bytes) -> AuthSession:
        """Open an OSAP authorization session bound to an entity."""
        return self._tpm.start_osap(entity_auth, nonce_odd_osap)

    def quote(self, nonce: bytes, pcr_indices: Iterable[int], session: AuthSession,
              nonce_odd: bytes, proof: bytes) -> Quote:
        """TPM_Quote: AIK-sign the selected PCRs and the challenge nonce."""
        return self._tpm._quote(nonce, pcr_indices, session.session_id, nonce_odd, proof)

    def seal(self, data: bytes, pcr_policy: Dict[int, bytes], session: AuthSession,
             nonce_odd: bytes, proof: bytes) -> SealedBlob:
        """TPM_Seal: bind ``data`` to the given PCR policy."""
        return self._tpm._seal(data, pcr_policy, session.session_id, nonce_odd, proof)

    def unseal(self, blob: SealedBlob, session: AuthSession,
               nonce_odd: bytes, proof: bytes) -> bytes:
        """TPM_Unseal: release data iff live PCRs match the sealed policy."""
        return self._tpm._unseal(blob, session.session_id, nonce_odd, proof)

    def nv_define_space(self, index: int, size: int,
                        read_pcr_policy: Optional[Dict[int, bytes]],
                        write_pcr_policy: Optional[Dict[int, bytes]],
                        session: AuthSession, nonce_odd: bytes, proof: bytes) -> NVSpace:
        """TPM_NV_DefineSpace (owner-authorized)."""
        return self._tpm._nv_define_space(
            index, size, read_pcr_policy, write_pcr_policy,
            session.session_id, nonce_odd, proof,
        )

    def nv_write(self, index: int, data: bytes) -> None:
        """TPM_NV_WriteValue (PCR-policy checked)."""
        self._tpm._nv_write(index, data)

    def nv_read(self, index: int) -> bytes:
        """TPM_NV_ReadValue (PCR-policy checked)."""
        return self._tpm._nv_read(index)

    def create_counter(self, label: bytes, session: AuthSession,
                       nonce_odd: bytes, proof: bytes) -> int:
        """Create a monotonic counter (owner-authorized); returns its id.

        Counters created through a tenant-bound interface belong to that
        tenant and are invisible to every other tenant's interfaces."""
        return self._tpm._create_counter(label, session.session_id, nonce_odd,
                                         proof, tenant=self.tenant)

    def increment_counter(self, counter_id: int) -> int:
        """TPM_IncrementCounter (tenant-partition checked)."""
        return self._tpm._increment_counter(counter_id, tenant=self.tenant)

    def read_counter(self, counter_id: int) -> int:
        """TPM_ReadCounter (tenant-partition checked)."""
        return self._tpm._read_counter(counter_id, tenant=self.tenant)
