"""One tenant's virtual TPM instance.

A :class:`VirtualTPM` is pure software state owned by the multiplexer
(:mod:`repro.vtpm.mux`): a virtual PCR bank, a per-tenant key hierarchy
(EK/AIK generated lazily from the tenant's dedicated RNG stream),
per-tenant symmetric storage keys for the sealed-storage namespace, and
per-tenant monotonic counters.  Nothing here is trusted by a PAL — the
instance lives in the untrusted OS alongside the tqd, outside the PAL
TCB closure (:mod:`repro.analysis.tcb` enforces that).

Every command charges the *tenant's* latency profile — a discrete chip
for one tenant, a simTPM-class mobile secure element for another
(:data:`repro.sim.timing.SIMTPM_MOBILE`) — onto the host machine's
virtual clock, and emits a tenant-tagged trace event, so multi-tenant
reports decompose per tenant exactly as single-tenant reports decompose
per TPM op.

The whole instance exports to (and restores from) a plain dict — the
migration payload moved between fleet machines by
:meth:`repro.vtpm.mux.VTPMMultiplexer.export_tenant`.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.crypto.aes import AES128
from repro.crypto.hmac import constant_time_equal, hmac_sha1
from repro.crypto.pkcs1 import pkcs1_sign_sha1
from repro.crypto.rsa import RSAKeyPair, generate_rsa_keypair
from repro.errors import TPMError, VTPMError
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import TPMTimings
from repro.tpm.nvram import MonotonicCounter, check_pcr_policy
from repro.tpm.pcr import PCRBank
from repro.tpm.structures import PCRComposite, Quote, SealedBlob
from repro.tpm.tpm import TPM

#: Default modulus size for tenant keys (same rationale as the hardware
#: TPM's :data:`repro.tpm.tpm.DEFAULT_KEY_BITS`).
DEFAULT_TENANT_KEY_BITS = 512


class VirtualTPM:
    """A single tenant's TPM-shaped state, multiplexed over one chip."""

    def __init__(
        self,
        tenant: str,
        rng: DeterministicRNG,
        timings: TPMTimings,
        clock,
        trace,
        key_bits: int = DEFAULT_TENANT_KEY_BITS,
        obs=None,
    ) -> None:
        self.tenant = tenant
        self.timings = timings
        self._clock = clock
        self._trace = trace
        self.obs = obs
        self._rng = rng
        self._key_bits = key_bits
        # Same lazy-keygen pattern as the hardware TPM: fork the key
        # streams eagerly (stream positions never depend on whether a key
        # was generated yet), generate on first use.
        self._key_rngs = {
            name: self._rng.fork(f"key:{name}") for name in ("ek", "aik")
        }
        self._keys: Dict[str, RSAKeyPair] = {}
        # Per-tenant sealed-storage keys.  They live in vTPM state — not
        # in the hardware chip — precisely so sealed blobs survive
        # migration to a different physical TPM.
        self._storage_key = self._rng.bytes(16)
        self._storage_mac_key = self._rng.bytes(20)
        self.pcrs = PCRBank()
        self._counters: Dict[int, MonotonicCounter] = {}
        self._next_counter_id = 1

    # -- plumbing -------------------------------------------------------------

    def _charge(self, ms: float, op: str, **detail) -> None:
        self._clock.advance(ms)
        self._trace.emit(self._clock.now(), "vtpm", op,
                         tenant=self.tenant, **detail)
        obs = self.obs
        if obs is not None:
            charged = ms * self._clock.skew
            obs.record_complete(f"vtpm:{op}", category="vtpm",
                                duration_ms=charged, op=op,
                                tenant=self.tenant)
            obs.registry.counter(
                "vtpm_commands_total", "vTPM commands issued"
            ).inc(op=op, tenant=self.tenant)

    # -- key hierarchy --------------------------------------------------------

    def _key(self, name: str) -> RSAKeyPair:
        if name not in self._keys:
            self._keys[name] = generate_rsa_keypair(
                self._key_bits, self._key_rngs[name])
        return self._keys[name]

    @property
    def ek_public(self):
        """Tenant endorsement key public half."""
        return self._key("ek").public

    @property
    def aik_public(self):
        """Tenant attestation identity key public half."""
        return self._key("aik").public

    # -- virtual PCR bank -----------------------------------------------------

    def dynamic_reset(self) -> None:
        """Reset the virtual dynamic PCRs — the multiplexer's mirror of
        the hardware reset that opened the tenant's Flicker session."""
        self.pcrs.dynamic_reset()
        self._charge(0.0, "dynamic_pcr_reset")

    def pcr_read(self, index: int) -> bytes:
        """Read a virtual PCR."""
        self._charge(self.timings.pcr_read_ms, "pcr_read", pcr=index)
        return self.pcrs.read(index)

    def pcr_extend(self, index: int, measurement: bytes) -> bytes:
        """Extend a virtual PCR with a 20-byte measurement."""
        value = self.pcrs.extend(index, measurement)
        self._charge(self.timings.extend_ms, "pcr_extend", pcr=index,
                     measurement=measurement.hex())
        return value

    def quote(self, nonce: bytes, pcr_indices: Iterable[int]) -> Quote:
        """Sign the selected *virtual* PCRs with the tenant AIK.

        Structurally identical to a hardware quote, so
        :class:`repro.core.attestation.FlickerVerifier` verifies it
        unchanged once the tenant's AIK certificate chains to the same
        Privacy CA.
        """
        indices = tuple(sorted(set(pcr_indices)))
        composite = PCRComposite.from_mapping(self.pcrs.snapshot(indices))
        info = Quote.quote_info(composite, nonce)
        signature = pkcs1_sign_sha1(self._key("aik").private, info)
        self._charge(self.timings.quote_ms, "quote", pcrs=list(indices),
                     nonce=nonce.hex())
        return Quote(composite=composite, nonce=nonce, signature=signature,
                     aik_public=self._key("aik").public)

    # -- sealed-storage namespace ---------------------------------------------

    def seal(self, data: bytes, pcr_policy: Dict[int, bytes]) -> SealedBlob:
        """Seal ``data`` into this tenant's namespace.

        The policy binds to *virtual* PCR values.  The payload framing is
        the hardware TPM's, but the keys are per-tenant: no other
        tenant's instance (and no other tenant's namespace on any
        machine) can authenticate or decrypt the blob.
        """
        payload = TPM._encode_sealed_payload(pcr_policy, data)
        iv = self._rng.bytes(16)
        ciphertext = iv + AES128(self._storage_key).encrypt_cbc(payload, iv)
        blob = SealedBlob(ciphertext=ciphertext, mac=b"\x00" * 20,
                          bound_pcrs=tuple(sorted(pcr_policy)))
        mac = hmac_sha1(self._storage_mac_key, blob.authenticated_bytes())
        self._charge(self.timings.seal_ms(len(data)), "seal",
                     nbytes=len(data), pcrs=sorted(pcr_policy))
        return SealedBlob(ciphertext=ciphertext, mac=mac,
                          bound_pcrs=blob.bound_pcrs)

    def unseal(self, blob: SealedBlob) -> bytes:
        """Release sealed data iff the blob belongs to this tenant's
        namespace and the virtual PCR policy matches.

        A blob sealed by any other tenant fails the MAC under this
        tenant's keys and is rejected with a :class:`VTPMError` that
        names no plaintext.
        """
        expected_mac = hmac_sha1(self._storage_mac_key,
                                 blob.authenticated_bytes())
        if not constant_time_equal(expected_mac, blob.mac):
            raise VTPMError(
                f"unseal denied: blob is not in tenant {self.tenant!r}'s "
                "sealed-storage namespace"
            )
        iv, body = blob.ciphertext[:16], blob.ciphertext[16:]
        payload = AES128(self._storage_key).decrypt_cbc(body, iv)
        policy, data = TPM._decode_sealed_payload(payload)
        check_pcr_policy(policy, self.pcrs.read,
                         f"vTPM Unseal (tenant {self.tenant})")
        self._charge(self.timings.unseal_ms(len(data)), "unseal",
                     nbytes=len(data))
        return data

    # -- monotonic counters ---------------------------------------------------

    def create_counter(self, label: bytes) -> int:
        """Create a counter in this tenant's partition; returns its id."""
        counter = MonotonicCounter(counter_id=self._next_counter_id,
                                   label=label, owner_tenant=self.tenant)
        self._counters[counter.counter_id] = counter
        self._next_counter_id += 1
        self._charge(self.timings.nv_op_ms, "counter_create",
                     counter=counter.counter_id)
        return counter.counter_id

    def _counter(self, counter_id: int) -> MonotonicCounter:
        try:
            return self._counters[counter_id]
        except KeyError:
            raise VTPMError(
                f"tenant {self.tenant!r} has no counter {counter_id}"
            ) from None

    def increment_counter(self, counter_id: int) -> int:
        """Advance a tenant counter; returns the new value."""
        value = self._counter(counter_id).increment()
        self._charge(self.timings.nv_op_ms, "counter_increment",
                     counter=counter_id, value=value)
        return value

    def read_counter(self, counter_id: int) -> int:
        """Read a tenant counter."""
        self._charge(self.timings.pcr_read_ms, "counter_read",
                     counter=counter_id)
        return self._counter(counter_id).value

    # -- migration ------------------------------------------------------------

    def export_state(self) -> Dict[str, object]:
        """The migration payload: everything needed to resume this
        tenant on another machine, including the RNG stream positions of
        keys not generated yet (the destination derives the *same* keys
        on demand, so an attestation after migration chains to the same
        AIK certificate)."""
        return {
            "tenant": self.tenant,
            "timings": self.timings,
            "key_bits": self._key_bits,
            "keys": dict(self._keys),
            "key_rng_states": {
                name: child.getstate()
                for name, child in self._key_rngs.items()
            },
            "rng_state": self._rng.getstate(),
            "storage_key": self._storage_key,
            "storage_mac_key": self._storage_mac_key,
            "pcr_values": self.pcrs.export_values(),
            "counters": {
                cid: MonotonicCounter(counter_id=c.counter_id, label=c.label,
                                      value=c.value,
                                      owner_tenant=c.owner_tenant)
                for cid, c in self._counters.items()
            },
            "next_counter_id": self._next_counter_id,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], clock, trace,
                   obs=None) -> "VirtualTPM":
        """Reconstruct an instance from :meth:`export_state` output on
        the destination machine (its clock/trace/observability)."""
        try:
            vt = cls.__new__(cls)
            vt.tenant = state["tenant"]
            vt.timings = state["timings"]
            vt._clock = clock
            vt._trace = trace
            vt.obs = obs
            vt._key_bits = state["key_bits"]
            vt._keys = dict(state["keys"])
            vt._key_rngs = {}
            for name, rng_state in state["key_rng_states"].items():
                child = DeterministicRNG()
                child.setstate(rng_state)
                vt._key_rngs[name] = child
            vt._rng = DeterministicRNG()
            vt._rng.setstate(state["rng_state"])
            vt._storage_key = state["storage_key"]
            vt._storage_mac_key = state["storage_mac_key"]
            vt.pcrs = PCRBank()
            vt.pcrs.restore_values(state["pcr_values"])
            vt._counters = {
                cid: MonotonicCounter(counter_id=c.counter_id, label=c.label,
                                      value=c.value,
                                      owner_tenant=c.owner_tenant)
                for cid, c in state["counters"].items()
            }
            vt._next_counter_id = state["next_counter_id"]
        except (KeyError, AttributeError, TypeError, TPMError) as exc:
            raise VTPMError(f"malformed vTPM migration snapshot: {exc}") from exc
        return vt


__all__ = ["DEFAULT_TENANT_KEY_BITS", "VirtualTPM"]
