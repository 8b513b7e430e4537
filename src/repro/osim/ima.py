"""IBM-IMA-style integrity measurement architecture — the trusted-boot
baseline Flicker argues against (paper §2.1 and §8).

IMA measures *everything* executed since boot: firmware, bootloader,
kernel, every kernel module, every application and configuration file,
each extended into a static PCR and recorded in an event log.  An
attestation is the whole log plus a quote; the verifier "must assess a
list of all software loaded since boot time (including the OS) and its
configuration information" (§2.1), and because there is no isolation,
"a single compromised piece of code may compromise all subsequent code"
(§8).

This module exists so the reproduction can *measure* that contrast: the
Figure-6-style bench compares verifier burden (entries to evaluate,
trusted-code volume) and information leakage (how much of the platform's
software inventory the attestation reveals) between an IMA attestation
and a Flicker one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.sha1 import sha1
from repro.osim.kernel import UntrustedKernel
from repro.osim.tpm_driver import OSTPMDriver
from repro.tpm.pcr import simulate_extend_chain
from repro.tpm.structures import Quote

#: The PCR IMA extends application measurements into (Linux convention).
IMA_PCR = 10

#: Static PCRs recording the boot chain (SRTM).
BOOT_PCRS = (0, 4)


@dataclass(frozen=True)
class IMALogEntry:
    """One measured event: what ran, and its hash."""

    pcr: int
    name: str
    measurement: bytes


class IntegrityMeasurementArchitecture:
    """A trusted-boot measurement stack on the untrusted kernel."""

    def __init__(self, kernel: UntrustedKernel) -> None:
        self.kernel = kernel
        self.driver = OSTPMDriver(kernel.machine.os_tpm_interface(), nonce_seed=b"ima")
        self.log: List[IMALogEntry] = []
        self._booted = False

    def _measure(self, pcr: int, name: str, content: bytes) -> None:
        measurement = sha1(content)
        self.driver.pcr_extend(pcr, measurement)
        self.log.append(IMALogEntry(pcr=pcr, name=name, measurement=measurement))

    # -- boot-time measurements (SRTM) ------------------------------------------

    def measured_boot(self) -> None:
        """Measure the boot chain: firmware → bootloader → kernel (+ the
        already-loaded modules).  Must run once, right 'after reboot'."""
        if self._booted:
            raise RuntimeError("measured_boot may only run once per boot")
        machine = self.kernel.machine
        self._measure(0, "bios", machine.rng.fork("bios-image").bytes(2048))
        self._measure(4, "bootloader", machine.rng.fork("grub-image").bytes(4096))
        self._measure(4, "kernel", self.kernel._pristine_text)
        for module in self.kernel.loaded_modules():
            self._measure(IMA_PCR, f"module:{module.name}", module.text)
        self._booted = True

    # -- runtime measurements ------------------------------------------------------

    def measure_module_load(self, name: str, text: bytes) -> None:
        """IMA hook for a kernel-module load."""
        self._measure(IMA_PCR, f"module:{name}", text)

    def measure_app_launch(self, name: str, binary: bytes) -> None:
        """IMA hook for an application exec (m ← SHA-1(a.out), §2.1)."""
        self._measure(IMA_PCR, f"app:{name}", binary)

    def measure_config(self, path: str, content: bytes) -> None:
        """IMA hook for a configuration file open."""
        self._measure(IMA_PCR, f"config:{path}", content)

    # -- attestation -------------------------------------------------------------------

    def attest(self, nonce: bytes) -> Tuple[Quote, List[IMALogEntry]]:
        """Produce the trusted-boot attestation: quote over the boot and
        IMA PCRs plus the (untrusted) full event log."""
        quote = self.driver.quote(nonce, BOOT_PCRS + (IMA_PCR,))
        return quote, list(self.log)


@dataclass
class IMAVerificationReport:
    """What an IMA verifier concludes — and what it had to do to conclude
    it (the §8 comparison data)."""

    ok: bool
    entries_evaluated: int
    unknown_entries: Tuple[str, ...]
    #: Everything the attestation revealed about the platform's software.
    disclosed_inventory: Tuple[str, ...]
    failures: Tuple[str, ...] = ()


class IMAVerifier:
    """A remote party verifying trusted-boot attestations.

    Unlike a Flicker verifier (which trusts one PAL measurement), this one
    needs a database of known-good hashes for *every* piece of software
    that may legally run on the platform.
    """

    def __init__(self, known_good: Optional[Dict[str, bytes]] = None) -> None:
        self.known_good: Dict[str, bytes] = dict(known_good or {})

    def learn(self, name: str, content: bytes) -> None:
        """Add a known-good measurement to the database."""
        self.known_good[name] = sha1(content)

    def verify(
        self,
        quote: Quote,
        log: List[IMALogEntry],
        expected_nonce: bytes,
        aik_public,
    ) -> IMAVerificationReport:
        """Replay the log against the quote, then judge every entry."""
        failures: List[str] = []
        if not quote.verify(aik_public):
            failures.append("quote signature invalid")
        if quote.nonce != expected_nonce:
            failures.append("nonce mismatch")

        # Replay every quoted PCR's chain from the log.  Iterating over the
        # *quote's* registers (not the log's) catches an attacker who
        # censors all of a register's entries: an empty chain replays to
        # the boot value, which will not match the quoted register.
        composite = quote.composite.as_dict()
        for pcr in sorted(composite):
            chain = [e.measurement for e in log if e.pcr == pcr]
            if composite[pcr] != simulate_extend_chain(b"\x00" * 20, chain):
                failures.append(f"log does not reproduce PCR {pcr}")

        # Judge every single entry — this is the verifier's burden.
        unknown = tuple(
            entry.name
            for entry in log
            if self.known_good.get(entry.name) != entry.measurement
        )
        if unknown:
            failures.append(f"{len(unknown)} log entries are not known-good")

        return IMAVerificationReport(
            ok=not failures,
            entries_evaluated=len(log),
            unknown_entries=unknown,
            disclosed_inventory=tuple(entry.name for entry in log),
            failures=tuple(failures),
        )
