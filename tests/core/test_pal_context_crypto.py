"""PAL programming model: context capabilities and the crypto module."""

import pytest

from repro.core import PAL
from repro.core.modules.crypto_mod import PALCrypto
from repro.errors import PALRuntimeError
from repro.sim.timing import HOST_HP_DC5750


class BarePAL(PAL):
    name = "bare"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"x")


class TestPALIdentity:
    def test_code_bytes_includes_source(self):
        assert b"class BarePAL" in BarePAL().code_bytes()

    def test_code_bytes_includes_module_manifest(self):
        class Linked(PAL):
            name = "linked"
            modules = ("tpm_utils",)

            def run(self, ctx):
                pass

        assert b"tpm_utils" in Linked().code_bytes()

    def test_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            PAL().run(None)


class TestContextCapabilities:
    def test_unlinked_capabilities_raise(self, platform):
        observed = {}

        class Probe(PAL):
            name = "probe"
            modules = ()

            def run(self, ctx):
                for attr in ("tpm", "crypto", "heap", "secure_channel"):
                    try:
                        getattr(ctx, attr)
                        observed[attr] = "granted"
                    except PALRuntimeError as exc:
                        observed[attr] = str(exc)
                ctx.write_output(b"done")

        platform.execute_pal(Probe())
        assert "tpm_driver" in observed["tpm"]
        assert "crypto" in observed["crypto"]
        assert "memory_mgmt" in observed["heap"]
        assert "secure_channel" in observed["secure_channel"]

    def test_driver_only_tpm_blocks_seal(self, platform):
        class DriverOnly(PAL):
            name = "driver-only"
            modules = ("tpm_driver",)

            def run(self, ctx):
                ctx.tpm.pcr_read()  # allowed
                ctx.tpm.get_random(8)  # allowed
                ctx.tpm.seal_to_pal(b"x", ctx.self_pcr17)  # must raise

        with pytest.raises(PALRuntimeError, match="tpm_utils"):
            platform.execute_pal(DriverOnly())

    def test_sha1_only_crypto_blocks_rsa(self, platform):
        class HashOnly(PAL):
            name = "hash-only"
            modules = ("crypto_sha1",)

            def run(self, ctx):
                ctx.crypto.sha1(b"fine")
                ctx.crypto.rsa_keygen_1024()  # must raise

        with pytest.raises(PALRuntimeError, match="crypto"):
            platform.execute_pal(HashOnly())

    def test_output_size_limit(self, platform):
        class TooChatty(PAL):
            name = "chatty"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"x" * 5000)

        with pytest.raises(PALRuntimeError, match="output"):
            platform.execute_pal(TooChatty())

    def test_self_pcr17_matches_image(self, platform):
        seen = {}

        class Identity(PAL):
            name = "identity"
            modules = ()

            def run(self, ctx):
                seen["value"] = ctx.self_pcr17
                ctx.write_output(b"x")

        pal = Identity()
        platform.execute_pal(pal)
        assert seen["value"] == platform.build(pal).pcr17_launch_value

    def test_has_module(self, platform):
        seen = {}

        class Modular(PAL):
            name = "modular"
            modules = ("tpm_utils",)

            def run(self, ctx):
                seen["tpm"] = ctx.has_module("tpm_utils")
                seen["crypto"] = ctx.has_module("crypto")
                ctx.write_output(b"x")

        platform.execute_pal(Modular())
        assert seen == {"tpm": True, "crypto": False}


class TestPALCryptoTiming:
    @pytest.fixture
    def crypto(self):
        charges = []
        c = PALCrypto(
            host=HOST_HP_DC5750,
            charge=lambda ms, label: charges.append((label, ms)),
            entropy=b"\x42" * 32,
            functional_rsa_bits=512,
        )
        return c, charges

    def test_keygen_charges_paper_cost(self, crypto):
        c, charges = crypto
        keypair = c.rsa_keygen_1024()
        assert keypair.private.n.bit_length() == 512  # functional size
        assert ("rsa-keygen", pytest.approx(185.7)) in charges

    def test_decrypt_charges_private_op(self, crypto):
        c, charges = crypto
        keypair = c.rsa_keygen_1024()
        ct = c.rsa_encrypt(keypair.public, b"msg")
        assert c.rsa_decrypt(keypair.private, ct) == b"msg"
        assert ("rsa-decrypt", pytest.approx(4.6)) in charges

    def test_sign_verify_roundtrip(self, crypto):
        c, _ = crypto
        keypair = c.rsa_keygen_1024()
        sig = c.rsa_sign(keypair.private, b"doc")
        assert c.rsa_verify(keypair.public, b"doc", sig)
        assert not c.rsa_verify(keypair.public, b"other", sig)

    def test_hash_charge_scales_with_size(self, crypto):
        c, charges = crypto
        c.sha1(b"x" * 1024)
        c.sha1(b"x" * 10240)
        costs = [ms for label, ms in charges if label == "sha1"]
        assert costs[1] == pytest.approx(10 * costs[0])

    def test_md5crypt_charges(self, crypto):
        c, charges = crypto
        out = c.md5crypt(b"pw", b"salt1234")
        assert out.startswith("$1$salt1234$")
        assert ("md5crypt", pytest.approx(HOST_HP_DC5750.md5crypt_ms)) in charges

    def test_aes_roundtrip_with_charges(self, crypto):
        c, charges = crypto
        ct = c.aes_encrypt_cbc(b"k" * 16, b"bulk data" * 100, b"i" * 16)
        assert c.aes_decrypt_cbc(b"k" * 16, ct, b"i" * 16) == b"bulk data" * 100
        assert any(label == "aes-encrypt" for label, _ in charges)

    def test_deterministic_randomness_from_entropy(self):
        def make():
            return PALCrypto(HOST_HP_DC5750, lambda *_: None, b"\x01" * 32)

        assert make().random_bytes(16) == make().random_bytes(16)

    def test_hash_only_rejects_everything_else(self):
        c = PALCrypto(HOST_HP_DC5750, lambda *_: None, b"\x02" * 32, hash_only=True)
        c.sha1(b"ok")
        c.hmac_sha1(b"k", b"m")
        for op in (lambda: c.rsa_keygen_1024(), lambda: c.md5(b"x"),
                   lambda: c.sha512(b"x"), lambda: c.random_bytes(4),
                   lambda: c.md5crypt(b"p", b"s")):
            with pytest.raises(PALRuntimeError):
                op()
