"""Flicker applications (paper §6).

Four applications demonstrate the three state classes of the paper's
evaluation:

* :mod:`repro.apps.rootkit_detector` — stateless (§6.1): a verifiable
  kernel rootkit detector queried by a remote administrator.
* :mod:`repro.apps.distributed` — integrity-protected state (§6.2): a
  BOINC-style distributed-computing client whose multi-session state is
  MACed under a TPM-sealed key, plus the redundancy baseline it replaces.
* :mod:`repro.apps.ssh_auth` — secret and integrity-protected state
  (§6.3.1): SSH password authentication where the cleartext password
  exists on the server only inside a Flicker session.
* :mod:`repro.apps.ca` — secret and integrity-protected state (§6.3.2): a
  certificate authority whose signing key only ever exists in a PAL.
"""

from repro.apps.rootkit_detector import (
    RootkitDetectorPAL,
    RemoteAdministrator,
    DetectionReport,
    VPNGateway,
    AccessDecision,
    describe_kernel_regions,
    simulate_kernel_build,
)
from repro.apps.distributed import (
    BOINCServer,
    BOINCClient,
    DistributedPAL,
    FactoringWorkUnit,
    FleetMachineOutcome,
    FleetProject,
    FleetProjectReport,
    ReplicationScheme,
    StopWork,
    flicker_efficiency,
)
from repro.apps.ssh_auth import SSHPasswordPAL, SSHServer, SSHClient, PasswdEntry
from repro.apps.ca import (
    CertificateAuthorityPAL,
    CertificateAuthority,
    CertificateSigningRequest,
    Certificate,
    SigningPolicy,
)

__all__ = [
    "RootkitDetectorPAL",
    "RemoteAdministrator",
    "DetectionReport",
    "VPNGateway",
    "AccessDecision",
    "describe_kernel_regions",
    "simulate_kernel_build",
    "BOINCServer",
    "BOINCClient",
    "DistributedPAL",
    "FactoringWorkUnit",
    "FleetMachineOutcome",
    "FleetProject",
    "FleetProjectReport",
    "ReplicationScheme",
    "StopWork",
    "flicker_efficiency",
    "SSHPasswordPAL",
    "SSHServer",
    "SSHClient",
    "PasswdEntry",
    "CertificateAuthorityPAL",
    "CertificateAuthority",
    "CertificateSigningRequest",
    "Certificate",
    "SigningPolicy",
]
