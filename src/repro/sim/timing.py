"""Timing profiles calibrated from the paper's microbenchmarks.

The paper's absolute latencies come from two sources: the TPM chip (by far
the dominant cost: Quote, Seal, Unseal, the SKINIT transfer of the SLB into
the TPM for hashing) and the host CPU (SHA-1 hashing, RSA operations).  Each
is modelled by a small dataclass of calibration constants:

* :class:`TPMTimings` — per-command latencies.  Two concrete profiles are
  provided: ``BROADCOM_BCM0102`` (the paper's primary test TPM, in the HP
  dc5750) and ``INFINEON_1_2`` (the faster chip the paper cites for Quote in
  331 ms and Unseal in 391 ms).
* :class:`HostTimings` — CPU-side costs for the AMD Athlon64 X2 4200+
  (2.2 GHz) testbed: SHA-1 throughput, RSA key generation / decrypt / sign,
  and the network path to the remote verifier (12 hops, 9.45 ms average
  ping).

Calibration notes (paper reference → constant):

* Table 2 (SKINIT vs SLB size: 0/4/16/32/64 KB → ~0/11.9/45.0/89.2/177.5 ms)
  → ``skinit_base_ms`` + ``skinit_per_kb_ms`` (linear fit: 0.9 + 2.76/KB).
* Table 1 (PCR Extend 1.2 ms, Quote 972.7 ms) → ``extend_ms``, ``quote_ms``.
* Table 4 (Unseal 898.3 ms) and Figure 9 (Unseal 905.4 ms for the larger
  SSH blob) → ``unseal_base_ms`` + ``unseal_per_byte_ms``.
* Figure 9 (Seal 10.2 ms, KeyGen 185.7 ms, Decrypt 4.6 ms) →
  ``seal_base_ms``, ``rsa1024_keygen_ms``, ``rsa1024_private_op_ms``.
* Section 7.1 (GetRandom of 128 bytes in 1.3 ms) → ``getrandom_base_ms`` +
  ``getrandom_per_byte_ms``.
* Table 1 (hash of kernel: 22.0 ms) → ``sha1_ms_per_kb`` with the simulated
  kernel's measured region sized to match (see ``repro.osim.kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class TPMTimings:
    """Latency model for a TPM v1.2 chip, in milliseconds."""

    name: str
    #: Fixed cost of entering SKINIT (CPU state change; <1 ms per Table 2).
    skinit_base_ms: float
    #: Cost per KB of SLB transferred to the TPM for hashing during SKINIT.
    skinit_per_kb_ms: float
    #: TPM_Extend of a single 20-byte measurement.
    extend_ms: float
    #: TPM_PCRRead.
    pcr_read_ms: float
    #: TPM_Quote with a 2048-bit AIK.
    quote_ms: float
    #: TPM_Seal of a small blob (asymmetric op inside the TPM).
    seal_base_ms: float
    #: Additional Seal cost per byte of plaintext.
    seal_per_byte_ms: float
    #: TPM_Unseal base cost.
    unseal_base_ms: float
    #: Additional Unseal cost per byte of sealed plaintext.
    unseal_per_byte_ms: float
    #: TPM_GetRandom fixed cost.
    getrandom_base_ms: float
    #: TPM_GetRandom per-byte cost.
    getrandom_per_byte_ms: float
    #: OIAP/OSAP session setup.
    session_ms: float
    #: TPM_NV_ReadValue / WriteValue / monotonic-counter increment.
    nv_op_ms: float

    def skinit_ms(self, slb_bytes: int) -> float:
        """Latency of the SKINIT instruction for an SLB of ``slb_bytes``.

        Per Table 2 the cost is dominated by streaming the SLB image to the
        TPM for measurement and grows linearly with the image size.
        """
        return self.skinit_base_ms + self.skinit_per_kb_ms * (slb_bytes / 1024.0)

    def seal_ms(self, plaintext_bytes: int) -> float:
        """Latency of TPM_Seal for a plaintext of the given size."""
        return self.seal_base_ms + self.seal_per_byte_ms * plaintext_bytes

    def unseal_ms(self, plaintext_bytes: int) -> float:
        """Latency of TPM_Unseal yielding a plaintext of the given size."""
        return self.unseal_base_ms + self.unseal_per_byte_ms * plaintext_bytes

    def getrandom_ms(self, num_bytes: int) -> float:
        """Latency of TPM_GetRandom for ``num_bytes`` of output."""
        return self.getrandom_base_ms + self.getrandom_per_byte_ms * num_bytes


@dataclass(frozen=True)
class HostTimings:
    """Latency model for host-CPU work and the network path."""

    name: str
    #: SHA-1 throughput on the host CPU (ms per KB hashed).
    sha1_ms_per_kb: float
    #: RSA-1024 key generation (mean; the paper reports 14% std error).
    rsa1024_keygen_ms: float
    #: RSA-1024 private-key operation (decrypt or sign).
    rsa1024_private_op_ms: float
    #: RSA-1024 public-key operation (encrypt or verify, e=65537).
    rsa1024_public_op_ms: float
    #: md5crypt password hash (1000 MD5 rounds).
    md5crypt_ms: float
    #: AES-128 throughput (ms per KB).
    aes_ms_per_kb: float
    #: HMAC-SHA1 fixed overhead beyond the hash itself.
    hmac_overhead_ms: float
    #: One-way network latency to the remote verifier (avg ping 9.45 ms).
    network_one_way_ms: float
    #: Network hops to the remote verifier (informational; §7.1 says 12).
    network_hops: int
    #: TCP + SSH transport setup against an *unmodified* server (§7.4.1).
    ssh_setup_ms: float
    #: Transport/negotiation share of the flicker-password connection path
    #: (the §7.4.1 client-side total of 1221 ms minus the PAL-1 and Quote
    #: components).
    ssh_transport_ms: float
    #: Unmodified server-side password check (§7.4.1: roughly 10 ms).
    ssh_plain_auth_ms: float
    #: Linux 2.6.20 kernel build on the test machine (§7.2: 7 m 22.6 s).
    kernel_build_ms: float


@dataclass(frozen=True)
class TimingProfile:
    """A complete platform timing model: one TPM plus one host."""

    tpm: TPMTimings
    host: HostTimings

    def with_tpm(self, tpm: TPMTimings) -> "TimingProfile":
        """Return a copy of this profile using a different TPM chip."""
        return replace(self, tpm=tpm)


#: The paper's primary TPM: Broadcom BCM0102 in the HP dc5750.
BROADCOM_BCM0102 = TPMTimings(
    name="Broadcom BCM0102",
    skinit_base_ms=0.9,
    skinit_per_kb_ms=2.76,
    extend_ms=1.2,
    pcr_read_ms=0.8,
    quote_ms=972.7,
    seal_base_ms=10.2,
    seal_per_byte_ms=0.003,
    unseal_base_ms=897.8,
    unseal_per_byte_ms=0.0237,
    getrandom_base_ms=0.6,
    getrandom_per_byte_ms=0.0055,
    session_ms=3.0,
    nv_op_ms=12.0,
)

#: The faster Infineon v1.2 TPM the paper cites (Quote 331 ms, Unseal 391 ms).
INFINEON_1_2 = TPMTimings(
    name="Infineon v1.2",
    skinit_base_ms=0.9,
    skinit_per_kb_ms=2.76,
    extend_ms=0.9,
    pcr_read_ms=0.6,
    quote_ms=331.0,
    seal_base_ms=8.1,
    seal_per_byte_ms=0.003,
    unseal_base_ms=390.5,
    unseal_per_byte_ms=0.010,
    getrandom_base_ms=0.5,
    getrandom_per_byte_ms=0.005,
    session_ms=2.0,
    nv_op_ms=9.0,
)

#: Host model for the HP dc5750 (AMD Athlon64 X2 4200+, 2.2 GHz) and the
#: remote verifier 12 hops away (average ping 9.45 ms → 4.725 ms one-way).
HOST_HP_DC5750 = HostTimings(
    name="HP dc5750 (Athlon64 X2 4200+)",
    sha1_ms_per_kb=0.0078,
    rsa1024_keygen_ms=185.7,
    rsa1024_private_op_ms=4.6,
    rsa1024_public_op_ms=0.25,
    md5crypt_ms=0.9,
    aes_ms_per_kb=0.012,
    hmac_overhead_ms=0.004,
    network_one_way_ms=4.725,
    network_hops=12,
    ssh_setup_ms=210.0,
    ssh_transport_ms=55.0,
    ssh_plain_auth_ms=10.0,
    kernel_build_ms=442_600.0,
)

#: The paper's forward-looking claim (abstract / §7, citing [19]): proposed
#: hardware modifications "can improve performance by up to six orders of
#: magnitude".  This profile models such next-generation support — TPM-class
#: operations at on-die-engine latencies (microseconds) and an SLB
#: measurement path that is no longer bottlenecked on an LPC bus.
FUTURE_HW_TPM = TPMTimings(
    name="Next-gen (McCune et al. [19] projection)",
    skinit_base_ms=0.001,
    skinit_per_kb_ms=0.00005,
    extend_ms=0.001,
    pcr_read_ms=0.001,
    quote_ms=0.01,
    seal_base_ms=0.005,
    seal_per_byte_ms=0.0,
    unseal_base_ms=0.005,
    unseal_per_byte_ms=0.0,
    getrandom_base_ms=0.001,
    getrandom_per_byte_ms=0.0,
    session_ms=0.001,
    nv_op_ms=0.002,
)

#: A simTPM-class mobile TPM (PAPERS.md: "simTPM: User-centric TPM for
#: Mobile Devices"): the TPM runs in the SIM's secure element next to a
#: TrustZone host, so commands skip the LPC bus entirely.  Latencies sit
#: between the discrete chips and the future-hardware projection —
#: millisecond-scale asymmetric ops, sub-millisecond bookkeeping.  Used
#: as a per-tenant vTPM latency scenario (:mod:`repro.vtpm`): one tenant
#: on discrete-chip timings, another on mobile timings, same hardware.
SIMTPM_MOBILE = TPMTimings(
    name="simTPM (mobile secure element)",
    skinit_base_ms=0.4,
    skinit_per_kb_ms=0.11,
    extend_ms=0.2,
    pcr_read_ms=0.1,
    quote_ms=25.0,
    seal_base_ms=2.4,
    seal_per_byte_ms=0.0008,
    unseal_base_ms=12.1,
    unseal_per_byte_ms=0.002,
    getrandom_base_ms=0.1,
    getrandom_per_byte_ms=0.001,
    session_ms=0.5,
    nv_op_ms=1.6,
)

#: Default platform profile: the paper's testbed.
DEFAULT_PROFILE = TimingProfile(tpm=BROADCOM_BCM0102, host=HOST_HP_DC5750)

#: Alternate profile with the faster Infineon TPM (used by ablation benches).
INFINEON_PROFILE = TimingProfile(tpm=INFINEON_1_2, host=HOST_HP_DC5750)

#: Next-generation hardware projection (used by the future-hardware bench).
FUTURE_HW_PROFILE = TimingProfile(tpm=FUTURE_HW_TPM, host=HOST_HP_DC5750)

#: Mobile secure-element profile (the simTPM-like vTPM tenant scenario).
SIMTPM_PROFILE = TimingProfile(tpm=SIMTPM_MOBILE, host=HOST_HP_DC5750)
