"""Template-clone platform construction.

Building a :class:`~repro.core.session.FlickerPlatform` from scratch is
dominated by work that is a pure function of the seed (RSA key
generation, the kernel image) or of the PAL alone (SLB images).  A
:class:`PlatformTemplate` captures one platform *configuration* and
stamps out clones; the amortization lives in the memos beneath every
platform, template-built or not:

* **Key state** — key generation is memoized on the RNG state that
  produces it (:mod:`repro.crypto.rsa`), and enrolment is lazy, so a
  clone re-derives its keys deterministically on first attestation and a
  re-clone of a seen seed reuses them outright.
* **Kernel image** — kernel text and the syscall table are memoized per
  seed (:mod:`repro.osim.kernel`).
* **SLB images** — :func:`~repro.core.slb.build_slb` links one image per
  PAL class, so a PAL is built once per process instead of once per
  machine.

A clone is **byte-identical** to a freshly constructed platform with the
same arguments (pinned by ``tests/core/test_template.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.core.session import FlickerPlatform
from repro.sim.timing import DEFAULT_PROFILE, TimingProfile


class PlatformTemplate:
    """One platform configuration, cloneable into many machines.

    Obtain one via :meth:`FlickerPlatform.template
    <repro.core.session.FlickerPlatform.template>`; call :meth:`clone`
    per machine.  A fleet shares the template's configuration; each
    clone has its own machine, TPM and Privacy CA.
    """

    def __init__(
        self,
        profile: TimingProfile = DEFAULT_PROFILE,
        seed: int = 2008,
        functional_rsa_bits: int = 512,
        tpm_key_bits: int = 512,
        platform_label: str = "hp-dc5750",
        multicore_isolation: bool = False,
        launch: str = "svm",
        observability: bool = False,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.functional_rsa_bits = functional_rsa_bits
        self.tpm_key_bits = tpm_key_bits
        self.platform_label = platform_label
        self.multicore_isolation = multicore_isolation
        self.launch = launch
        self.observability = observability

    def clone(
        self,
        seed: Optional[int] = None,
        machine_id: Optional[str] = None,
        clock=None,
    ) -> FlickerPlatform:
        """Construct a platform byte-identical to a fresh build.

        ``seed`` defaults to the template's own seed.  ``clock`` attaches
        the machine to a shared event schedule (fleets pass a
        :class:`~repro.sim.sched.ScheduledClock`).
        """
        return FlickerPlatform(
            profile=self.profile,
            seed=self.seed if seed is None else seed,
            functional_rsa_bits=self.functional_rsa_bits,
            tpm_key_bits=self.tpm_key_bits,
            platform_label=self.platform_label,
            multicore_isolation=self.multicore_isolation,
            launch=self.launch,
            observability=self.observability,
            clock=clock,
            machine_id=machine_id,
        )
