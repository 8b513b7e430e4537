"""PAL-to-PAL sealed storage and replay protection (paper §4.3)."""

import pytest

from repro.core import FlickerPlatform, PAL
from repro.core.sealed_storage import ReplayProtectedStorage, VersionedBlob
from repro.errors import PALRuntimeError, SealedStorageError, TPMPolicyError
from repro.osim.attacker import Attacker
from repro.tpm.structures import SealedBlob

OWNER_AUTH = b"\x0c" * 20


class StoreSecretPAL(PAL):
    """First PAL: seals a secret for the PAL whose PCR-17 launch value
    arrives as its input."""

    name = "store-secret"
    modules = ("tpm_utils",)

    def run(self, ctx):
        blob = ctx.tpm.seal_to_pal(b"cross-pal-secret", ctx.inputs)
        ctx.write_output(blob.encode())


class ReadSecretPAL(PAL):
    """Second PAL: unseals whatever blob it is given."""

    name = "read-secret"
    modules = ("tpm_utils",)

    def run(self, ctx):
        blob = SealedBlob.decode(ctx.inputs)
        ctx.write_output(ctx.tpm.unseal(blob))


class SelfSealPAL(PAL):
    """Seals to itself on 'store', unseals on 'load' (same identity)."""

    name = "self-seal"
    modules = ("tpm_utils",)

    def run(self, ctx):
        if ctx.inputs[0] == 0:
            blob = ctx.tpm.seal_to_pal(ctx.inputs[1:], ctx.self_pcr17)
            ctx.write_output(blob.encode())
        else:
            blob = SealedBlob.decode(ctx.inputs[1:])
            ctx.write_output(ctx.tpm.unseal(blob))


class TestCrossPALSealedStorage:
    def test_seal_for_other_pal(self, platform):
        """§4.3.1: P seals data so only P' (under Flicker) can read it."""
        reader = ReadSecretPAL()
        reader_pcr17 = platform.build(reader).pcr17_launch_value

        store_session = platform.execute_pal(StoreSecretPAL(), inputs=reader_pcr17)
        blob_bytes = store_session.outputs

        read_session = platform.execute_pal(reader, inputs=blob_bytes)
        assert read_session.outputs == b"cross-pal-secret"

    def test_wrong_pal_cannot_unseal(self, platform):
        reader_pcr17 = platform.build(ReadSecretPAL()).pcr17_launch_value
        blob_bytes = platform.execute_pal(StoreSecretPAL(), inputs=reader_pcr17).outputs

        class ImpostorPAL(PAL):
            name = "impostor"
            modules = ("tpm_utils",)

            def run(self, ctx):
                blob = SealedBlob.decode(ctx.inputs)
                ctx.write_output(ctx.tpm.unseal(blob))

        with pytest.raises(PALRuntimeError):
            platform.execute_pal(ImpostorPAL(), inputs=blob_bytes)

    def test_os_cannot_unseal(self, platform):
        reader_pcr17 = platform.build(ReadSecretPAL()).pcr17_launch_value
        blob_bytes = platform.execute_pal(StoreSecretPAL(), inputs=reader_pcr17).outputs
        with pytest.raises(TPMPolicyError):
            platform.tqd.driver.unseal(SealedBlob.decode(blob_bytes))

    def test_self_reseal_across_sessions(self, platform):
        pal = SelfSealPAL()
        stored = platform.execute_pal(pal, inputs=b"\x00" + b"multi-session-state")
        loaded = platform.execute_pal(pal, inputs=b"\x01" + stored.outputs)
        assert loaded.outputs == b"multi-session-state"

    def test_tampered_blob_contained(self, platform):
        pal = SelfSealPAL()
        stored = platform.execute_pal(pal, inputs=b"\x00" + b"data")
        blob = SealedBlob.decode(stored.outputs)
        tampered = Attacker(platform.kernel).tamper_blob(blob)
        with pytest.raises(PALRuntimeError):
            platform.execute_pal(pal, inputs=b"\x01" + tampered.encode())


class ReplayStoragePAL(PAL):
    """Drives ReplayProtectedStorage across sessions.

    Commands: 0=create counter+seal v1, 1=reseal new data, 2=unseal.
    """

    name = "replay-protected"
    modules = ("tpm_utils",)

    def run(self, ctx):
        command = ctx.inputs[0]
        payload = ctx.inputs[1:]
        if command == 0:
            storage = ReplayProtectedStorage.create(ctx.tpm, OWNER_AUTH)
            versioned = storage.seal(payload, ctx.self_pcr17)
            ctx.write_output(versioned.encode())
        elif command == 1:
            counter_id = int.from_bytes(payload[:4], "big")
            storage = ReplayProtectedStorage(ctx.tpm, counter_id)
            versioned = storage.seal(payload[4:], ctx.self_pcr17)
            ctx.write_output(versioned.encode())
        else:
            versioned = VersionedBlob.decode(payload)
            storage = ReplayProtectedStorage(ctx.tpm, versioned.counter_id)
            ctx.write_output(storage.unseal(versioned))


@pytest.fixture
def owned_platform():
    platform = FlickerPlatform(seed=555)
    platform.machine.tpm.take_ownership(OWNER_AUTH)
    return platform


class TestReplayProtection:
    def test_current_version_unseals(self, owned_platform):
        platform = owned_platform
        pal = ReplayStoragePAL()
        v1 = platform.execute_pal(pal, inputs=b"\x00" + b"password-db-v1")
        out = platform.execute_pal(pal, inputs=b"\x02" + v1.outputs)
        assert out.outputs == b"password-db-v1"

    def test_stale_version_rejected(self, owned_platform):
        """The §4.3.2 password-rollback attack must fail."""
        platform = owned_platform
        pal = ReplayStoragePAL()
        v1 = platform.execute_pal(pal, inputs=b"\x00" + b"password-db-v1")
        counter_id = VersionedBlob.decode(v1.outputs).counter_id

        # Update to v2 (increments the counter).
        platform.execute_pal(
            pal, inputs=b"\x01" + counter_id.to_bytes(4, "big") + b"password-db-v2"
        )
        # The OS replays v1: the PAL must refuse it.
        replayed = Attacker(platform.kernel).replay_blob(VersionedBlob.decode(v1.outputs))
        with pytest.raises(PALRuntimeError, match="replay"):
            platform.execute_pal(pal, inputs=b"\x02" + replayed.encode())

    def test_latest_version_still_works_after_updates(self, owned_platform):
        platform = owned_platform
        pal = ReplayStoragePAL()
        v1 = platform.execute_pal(pal, inputs=b"\x00" + b"v1")
        counter_id = VersionedBlob.decode(v1.outputs).counter_id
        latest = v1.outputs
        for i in range(2, 5):
            latest = platform.execute_pal(
                pal,
                inputs=b"\x01" + counter_id.to_bytes(4, "big") + f"v{i}".encode(),
            ).outputs
        out = platform.execute_pal(pal, inputs=b"\x02" + latest)
        assert out.outputs == b"v4"

    def test_versioned_blob_encoding(self):
        blob = SealedBlob(ciphertext=b"\x01" * 32, mac=b"\x02" * 20, bound_pcrs=(17,))
        versioned = VersionedBlob(blob=blob, counter_id=3)
        assert VersionedBlob.decode(versioned.encode()).counter_id == 3

    def test_versioned_blob_truncated(self):
        with pytest.raises(SealedStorageError):
            VersionedBlob.decode(b"\x00")

    def test_counter_required(self):
        storage = ReplayProtectedStorage(tpm=None, counter_id=None)
        with pytest.raises(SealedStorageError):
            storage.counter_id
