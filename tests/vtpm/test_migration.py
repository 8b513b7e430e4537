"""vTPM migration: a tenant moves between fleet machines mid-run with
its keys, virtual PCRs, counters, and sealed-storage namespace intact."""

import pytest

from repro.core import PAL
from repro.core.fleet import FlickerFleet
from repro.errors import VTPMError
from repro.vtpm import MIGRATION_SCHEMA

pytestmark = pytest.mark.vtpm

NONCE = b"\x5a" * 20


class EchoPAL(PAL):
    name = "echo"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"echo:" + ctx.inputs)


def run_session(fleet, host, tenant, payload):
    result = host.platform.execute_pal(EchoPAL(), inputs=payload,
                                       nonce=NONCE, tenant=tenant)
    attestation = host.platform.attest(NONCE, result, tenant=tenant)
    report = fleet.verifier_for(host.machine_id).verify(
        attestation, result.image, NONCE)
    return attestation, report


class TestMidRunMigration:
    @pytest.fixture(scope="class")
    def outcome(self):
        fleet = FlickerFleet(num_machines=2, seed=2008)
        source, destination = fleet.hosts
        vt = source.platform.vtpm.create_tenant("alice")
        cid = vt.create_counter(b"sessions")
        vt.increment_counter(cid)
        before_att, before_report = run_session(fleet, source, "alice",
                                                b"pre-migration")
        pcr17 = vt.pcrs.read(17)

        fleet.migrate_tenant(source.machine_id, destination.machine_id,
                             "alice")
        after_att, after_report = run_session(fleet, destination, "alice",
                                              b"post-migration")
        return (fleet, source, destination, cid, pcr17,
                before_att, before_report, after_att, after_report)

    def test_attestations_verify_on_both_sides(self, outcome):
        _, _, _, _, _, _, before_report, _, after_report = outcome
        assert before_report.ok
        assert after_report.ok

    def test_source_no_longer_hosts_the_tenant(self, outcome):
        _, source, _, _, _, _, _, _, _ = outcome
        with pytest.raises(VTPMError, match="no tenant"):
            source.platform.vtpm.tenant("alice")

    def test_aik_identity_survives_migration(self, outcome):
        _, _, _, _, _, before_att, _, after_att, _ = outcome
        assert (before_att.quote.aik_public.n
                == after_att.quote.aik_public.n)

    def test_counters_survive_migration(self, outcome):
        _, _, destination, cid, _, _, _, _, _ = outcome
        vt = destination.platform.vtpm.tenant("alice")
        assert vt.read_counter(cid) == 1
        assert vt.increment_counter(cid) == 2

    def test_virtual_pcr17_tracks_the_destination_session(self, outcome):
        _, _, destination, _, source_pcr17, _, _, after_att, _ = outcome
        vt = destination.platform.vtpm.tenant("alice")
        # The post-migration session re-mirrored PCR 17: replaying its
        # event log reproduces the register, and the value moved on from
        # the source-side chain (the log folds in the new inputs).
        from repro.tpm.pcr import PCRBank

        shadow = PCRBank()
        shadow.dynamic_reset()
        for _label, measurement in after_att.event_log:
            shadow.extend(17, measurement)
        assert vt.pcrs.read(17) == shadow.read(17)
        assert vt.pcrs.read(17) != source_pcr17


class TestSealedStateCrossesMachines:
    def test_blob_sealed_before_migration_unseals_after(self):
        fleet = FlickerFleet(num_machines=2, seed=7)
        source, destination = fleet.hosts
        vt = source.platform.vtpm.create_tenant("alice")
        blob = vt.seal(b"travelling-secret", {})
        fleet.migrate_tenant(source.machine_id, destination.machine_id,
                             "alice")
        moved = destination.platform.vtpm.tenant("alice")
        assert moved.unseal(blob) == b"travelling-secret"

    def test_other_tenants_on_the_destination_still_cannot_unseal(self):
        fleet = FlickerFleet(num_machines=2, seed=8)
        source, destination = fleet.hosts
        vt = source.platform.vtpm.create_tenant("alice")
        destination.platform.vtpm.create_tenant("eve")
        blob = vt.seal(b"secret", {})
        fleet.migrate_tenant(source.machine_id, destination.machine_id,
                             "alice")
        with pytest.raises(VTPMError, match="namespace"):
            destination.platform.vtpm.tenant("eve").unseal(blob)


class TestSnapshotValidation:
    def test_snapshot_schema_is_tagged(self, platform):
        platform.vtpm.create_tenant("alice")
        snapshot = platform.vtpm.export_tenant("alice")
        assert snapshot["schema"] == MIGRATION_SCHEMA
        assert snapshot["tenant"] == "alice"

    def test_wrong_schema_rejected(self, platform):
        platform.vtpm.create_tenant("alice")
        snapshot = platform.vtpm.export_tenant("alice")
        platform.vtpm.remove_tenant("alice")
        snapshot["schema"] = "bogus/9"
        with pytest.raises(VTPMError, match="schema"):
            platform.vtpm.import_tenant(snapshot)

    def test_payloadless_snapshot_rejected(self, platform):
        with pytest.raises(VTPMError, match="no payload"):
            platform.vtpm.import_tenant({"schema": MIGRATION_SCHEMA})

    def test_import_refuses_to_overwrite_a_resident_tenant(self, platform):
        platform.vtpm.create_tenant("alice")
        snapshot = platform.vtpm.export_tenant("alice")
        with pytest.raises(VTPMError, match="already resident"):
            platform.vtpm.import_tenant(snapshot)

    def test_malformed_payload_rejected(self, platform):
        platform.vtpm.create_tenant("alice")
        snapshot = platform.vtpm.export_tenant("alice")
        platform.vtpm.remove_tenant("alice")
        del snapshot["vtpm"]["rng_state"]
        with pytest.raises(VTPMError, match="malformed"):
            platform.vtpm.import_tenant(snapshot)

    def test_payload_cannot_replace_a_resident_tenant(self, platform):
        """The outer name is checked for residency; the payload's name is
        what gets registered.  A mismatch must not slip a different
        tenant's keys and counters over a resident one."""
        victim = platform.vtpm.create_tenant("victim")
        platform.vtpm.create_tenant("mallory")
        snapshot = platform.vtpm.export_tenant("mallory")
        platform.vtpm.remove_tenant("mallory")
        snapshot["vtpm"]["tenant"] = "victim"
        with pytest.raises(VTPMError, match="malformed"):
            platform.vtpm.import_tenant(snapshot)
        assert platform.vtpm.tenants == ("victim",)
        assert platform.vtpm.tenant("victim") is victim

    def test_short_pcr_bank_rejected_as_malformed(self, platform):
        platform.vtpm.create_tenant("alice")
        snapshot = platform.vtpm.export_tenant("alice")
        platform.vtpm.remove_tenant("alice")
        snapshot["vtpm"]["pcr_values"] = snapshot["vtpm"]["pcr_values"][:3]
        with pytest.raises(VTPMError, match="malformed"):
            platform.vtpm.import_tenant(snapshot)
        assert platform.vtpm.tenants == ()
