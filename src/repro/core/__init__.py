"""Flicker core: minimal-TCB isolated execution sessions.

The package implements the paper's architecture (§4):

* :mod:`repro.core.layout` — the Figure 3 memory layout of the Secure
  Loader Block and its parameter pages.
* :mod:`repro.core.pal` — the PAL (Piece of Application Logic)
  programming model and its execution context.
* :mod:`repro.core.modules` — the PAL-linkable modules of Figure 6
  (OS Protection, TPM driver/utilities, crypto, memory management, secure
  channel).
* :mod:`repro.core.slb` — building and measuring SLB images, including
  the §7.2 hash-then-extend SKINIT optimization.
* :mod:`repro.core.slb_core` — the SLB Core: environment setup, PAL
  dispatch, cleanup, PCR-17 bookkeeping, OS resume.
* :mod:`repro.core.flicker_module` — the untrusted kernel module with its
  sysfs control surface.
* :mod:`repro.core.session` — one-call session orchestration plus the
  Figure 2 timeline.
* :mod:`repro.core.fleet` — many platforms on one discrete-event
  schedule (the §6.2 many-untrusted-hosts deployment).
* :mod:`repro.core.template` — template-clone platform construction:
  build one configuration, stamp out byte-identical machines cheaply.
* :mod:`repro.core.attestation` — quote verification for remote parties.
* :mod:`repro.core.sealed_storage` — PAL-to-PAL sealed storage with the
  Figure 4 replay-protection protocol.
* :mod:`repro.core.secure_channel` — the §4.4.2 secure-channel protocol.
* :mod:`repro.core.automation` — the §5.2 PAL extraction tool, over
  Python's ``ast`` instead of CIL.
"""

from repro.core.layout import SLBLayout
from repro.core.pal import PAL, PALContext
from repro.core.modules import MODULE_REGISTRY, ModuleDescriptor
from repro.core.slb import SLBImage, build_slb
from repro.core.flicker_module import FlickerModule
from repro.core.fleet import FleetHost, FlickerFleet, MachineReport
from repro.core.session import FlickerPlatform, SessionResult
from repro.core.template import PlatformTemplate
from repro.core.attestation import FlickerVerifier, Attestation, SENTINEL_MEASUREMENT
from repro.core.sealed_storage import ReplayProtectedStorage
from repro.core.secure_channel import SecureChannelClient, generate_channel_keypair
from repro.core.automation import extract_pal_source

__all__ = [
    "SLBLayout",
    "PAL",
    "PALContext",
    "MODULE_REGISTRY",
    "ModuleDescriptor",
    "SLBImage",
    "build_slb",
    "FlickerModule",
    "FlickerPlatform",
    "PlatformTemplate",
    "FlickerFleet",
    "FleetHost",
    "MachineReport",
    "SessionResult",
    "FlickerVerifier",
    "Attestation",
    "SENTINEL_MEASUREMENT",
    "ReplayProtectedStorage",
    "SecureChannelClient",
    "generate_channel_keypair",
    "extract_pal_source",
]
