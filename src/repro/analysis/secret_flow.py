"""Secret hygiene: unsealed material must never reach an output channel.

The simulation's security invariant (pinned dynamically by the fault
campaign's leak detector) is that secrets released by the TPM — unsealed
plaintext, GetRandom output, generated private keys — stay inside the
session.  This module holds the vocabulary that states the property
statically — which calls produce a secret, which calls publish their
arguments (logging, trace events, observability spans/events,
``print``; raised exception messages count too), and which functions
*sanitize* because digests and lengths are exactly what the paper's
protocols make public — and SEC001, its same-function rule.

The dataflow itself is :mod:`repro.analysis.interproc`'s taint engine:
SEC001 reports the flows whose source call sits in the function that
publishes the value, and SEC002 the flows that cross a function
boundary, both read from one analysis run.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, Project, Rule, register

#: Call-name suffixes whose return value is secret.
SECRET_SOURCE_SUFFIXES = (
    "unseal",
    "get_random",
    "generate_rsa_keypair",
    "generate_keypair",
    "derive_key",
)

#: Call-name suffixes that publish their arguments.
SINK_SUFFIXES = (
    "print",
    "emit",          # trace events
    "event",         # observability instant events
    "span",          # observability spans (args land in exports)
    "record_metrics",
    "debug", "info", "warning", "error", "exception", "critical", "log",
)

#: Measurement/size functions whose output is public by design.  Note
#: ``.hex()`` is *not* here: hex is an encoding, not a digest — the hex
#: of a secret is the secret.
SANITIZER_NAMES = (
    "sha1", "sha512", "md5", "hmac_sha1", "sha1_cached",
    "len", "measure", "io_measurement", "type", "isinstance",
)


@register
class SecretToSinkRule(Rule):
    """Values from Unseal/GetRandom/key generation must not be published.

    Within each function, values from a secret-bearing call
    (``*.unseal(...)``, ``*.get_random(...)``,
    ``generate_rsa_keypair(...)``, …) are tainted, and taint follows
    assignments and ``for`` targets.  A finding fires when a tainted
    value appears in the arguments of ``print``, ``logging`` methods,
    ``*.emit(...)`` trace events, ``*.event(...)`` / ``*.span(...)``
    observability calls, or in a raised exception's message.  A call
    into a project function taints its result only when that
    function's summary forwards the tainted argument; secrets that
    cross a function boundary are SEC002's.

    Publishing a *digest* or a *length* of a secret is fine (that is
    how the paper's protocols communicate): pass the value through
    ``sha1``/``len``/``io_measurement`` first.  If a site is a true
    false positive, suppress it with ``# repro: noqa[SEC001]`` plus a
    comment saying why the value is not secret.
    """

    id = "SEC001"
    title = "secret value flows into an output channel"
    severity = "error"
    # File scope: a lone snippet is a complete project for this rule,
    # so ``analyze_source`` runs it by default.

    def check_project(self, project: Project) -> Iterable[Finding]:
        # Imported here: the engine imports this module's vocabulary.
        from repro.analysis.interproc import SECRET_TAINT, get_taint

        for flow in get_taint(project, SECRET_TAINT).flows:
            if not flow.intra:
                continue
            if flow.sink is not None:
                message = (
                    f"secret-derived value reaches '{flow.sink}' output; "
                    "log a digest or length instead"
                )
            else:
                message = (
                    "secret-derived value reaches an exception message; "
                    "exceptions cross the trust boundary"
                )
            yield Finding(self.id, flow.relpath, flow.line, message, self.severity)
