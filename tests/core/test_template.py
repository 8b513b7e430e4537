"""Template-clone platform construction: a clone must be byte-identical
to a fresh build — sessions, traces, attestations — while amortizing the
expensive construction work (keygen, kernel image, SLB builds)."""

import pytest

from repro.core import PAL, FlickerPlatform


class EchoPAL(PAL):
    name = "echo"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"echo:" + ctx.inputs)


NONCE = b"\x5a" * 20


def run_workload(platform):
    """One session + attestation; returns everything observable."""
    session = platform.execute_pal(EchoPAL(), inputs=b"payload", nonce=NONCE)
    attestation = platform.attest(NONCE, session)
    report = platform.verifier().verify(attestation, session.image, NONCE)
    return session, attestation, report


def trace_lines(platform):
    return [str(event) for event in platform.machine.trace]


class TestCloneByteIdentity:
    @pytest.fixture(scope="class")
    def pair(self):
        fresh = FlickerPlatform(seed=31337)
        template = FlickerPlatform.template()
        clone = template.clone(seed=31337)
        fresh_out = run_workload(fresh)
        clone_out = run_workload(clone)
        return fresh, clone, fresh_out, clone_out

    def test_sessions_identical(self, pair):
        _, _, (fresh, _, _), (clone, _, _) = pair
        assert clone.outputs == fresh.outputs
        assert clone.event_log == fresh.event_log
        assert clone.phase_ms == fresh.phase_ms
        assert clone.total_ms == fresh.total_ms
        assert clone.tpm_ms == fresh.tpm_ms
        assert (clone.image.skinit_measurement
                == fresh.image.skinit_measurement)

    def test_attestations_identical(self, pair):
        _, _, (_, fresh, _), (_, clone, _) = pair
        assert clone.quote == fresh.quote
        assert (clone.aik_certificate.aik_public.n
                == fresh.aik_certificate.aik_public.n)
        assert clone.event_log == fresh.event_log

    def test_attestations_verify(self, pair):
        _, _, (_, _, fresh), (_, _, clone) = pair
        assert fresh.ok and clone.ok

    def test_traces_identical(self, pair):
        fresh, clone, _, _ = pair
        assert trace_lines(clone) == trace_lines(fresh)

    def test_eager_identity_clone_matches_lazy(self):
        """Enrolling the AIK right after cloning (the pre-template
        construction order) changes no observable byte."""
        template = FlickerPlatform.template()
        lazy = template.clone(seed=555)
        eager = template.clone(seed=555)
        eager.tqd.aik_certificate  # noqa: B018 — forces enrolment
        lazy_out = run_workload(lazy)
        eager_out = run_workload(eager)
        assert lazy_out[0].outputs == eager_out[0].outputs
        assert lazy_out[1].quote == eager_out[1].quote
        assert trace_lines(lazy) == trace_lines(eager)


class TestTemplateAmortization:
    def test_clones_share_one_image(self):
        template = FlickerPlatform.template()
        a = template.clone(seed=1000)
        b = template.clone(seed=1001)
        first = a.execute_pal(EchoPAL(), inputs=b"x")
        second = b.execute_pal(EchoPAL(), inputs=b"x")
        # Both machines run the one image linked for the PAL class.
        assert second.image is first.image
        assert b.flicker.installed_image is a.flicker.installed_image

    def test_template_classmethod_carries_config(self):
        template = FlickerPlatform.template(functional_rsa_bits=512,
                                            platform_label="test-host")
        assert template.platform_label == "test-host"
        clone = template.clone(seed=7)
        assert clone.tqd.aik_certificate.platform_label == "test-host"

    def test_same_seed_clones_share_key_material_values(self):
        """Key derivation is a pure function of the seed: two clones of
        one seed produce equal keys (via the keygen memo — no second
        prime search), while distinct seeds produce distinct keys."""
        template = FlickerPlatform.template()
        a = template.clone(seed=42)
        b = template.clone(seed=42)
        c = template.clone(seed=43)
        assert (a.tqd.aik_certificate.aik_public.n
                == b.tqd.aik_certificate.aik_public.n)
        assert (a.tqd.aik_certificate.aik_public.n
                != c.tqd.aik_certificate.aik_public.n)
