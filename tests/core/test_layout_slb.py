"""SLB layout and image-building tests (Figure 3, §5.1.2, §7.2)."""

import pytest

from repro.core.layout import (
    MAX_PARAM_BYTES,
    OPTIMIZED_STUB_BYTES,
    SLB_MAX_CODE,
    SLB_REGION_SIZE,
    SLBLayout,
    decode_param,
    encode_param,
)
from repro.core.modules import MODULE_REGISTRY, modules_total_bytes, resolve_modules
from repro.core.pal import PAL
from repro.core.slb import build_slb, lookup_image
from repro.crypto.sha1 import sha1
from repro.errors import SLBFormatError
from repro.tpm.pcr import simulate_extend_chain


class SmallPAL(PAL):
    name = "small"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"ok")


class TPMUserPAL(PAL):
    name = "tpm-user"
    modules = ("tpm_utils",)

    def run(self, ctx):
        ctx.write_output(ctx.tpm.pcr_read())


class TestLayout:
    def test_addresses(self):
        layout = SLBLayout(base=0x100000)
        assert layout.end == 0x110000
        assert layout.input_page == 0x110000
        assert layout.output_page == 0x111000
        assert layout.saved_state_page == 0x112000
        assert layout.stack_base == 0x110000 - 4096

    def test_base_alignment_enforced(self):
        with pytest.raises(SLBFormatError):
            SLBLayout(base=0x100001)

    def test_pal_window_excludes_saved_state(self):
        layout = SLBLayout(base=0x100000)
        assert layout.pal_window_end == layout.saved_state_page

    def test_param_encoding_roundtrip(self):
        for payload in (b"", b"x", b"p" * MAX_PARAM_BYTES):
            assert decode_param(encode_param(payload).ljust(4096, b"\x00")) == payload

    def test_param_too_large(self):
        with pytest.raises(SLBFormatError):
            encode_param(b"x" * (MAX_PARAM_BYTES + 1))

    def test_decode_param_garbage(self):
        with pytest.raises(SLBFormatError):
            decode_param(b"\x00")
        with pytest.raises(SLBFormatError):
            decode_param((5000).to_bytes(4, "big") + b"\x00" * 100)


class TestModuleRegistry:
    def test_figure6_loc_totals(self):
        """Figure 6's headline: SLB Core alone is under 250 lines."""
        assert MODULE_REGISTRY["slb_core"].lines_of_code == 94
        assert MODULE_REGISTRY["slb_core"].lines_of_code < 250

    def test_resolution_includes_dependencies(self):
        resolved = resolve_modules(("tpm_utils",))
        assert "tpm_driver" in resolved
        assert resolved[0] == "slb_core"

    def test_secure_channel_pulls_full_stack(self):
        resolved = resolve_modules(("secure_channel",))
        assert set(resolved) >= {"slb_core", "tpm_driver", "tpm_utils", "crypto", "secure_channel"}

    def test_full_crypto_subsumes_sha1_subset(self):
        resolved = resolve_modules(("crypto_sha1", "crypto"))
        assert "crypto_sha1" not in resolved
        assert "crypto" in resolved

    def test_unknown_module_rejected(self):
        with pytest.raises(SLBFormatError):
            resolve_modules(("no-such-module",))

    def test_total_bytes_sums_sizes(self):
        names = resolve_modules(("tpm_utils",))
        expected = sum(MODULE_REGISTRY[n].size_bytes for n in names)
        assert modules_total_bytes(names) == expected


class TestBuildSLB:
    def test_optimized_image_measures_stub_only(self):
        image = build_slb(SmallPAL(), optimize=True)
        assert image.measured_length == OPTIMIZED_STUB_BYTES
        assert image.optimized
        assert len(image.image) == SLB_REGION_SIZE

    def test_unoptimized_image_measures_all_code(self):
        image = build_slb(SmallPAL(), optimize=False)
        assert image.measured_length == image.code_size
        assert not image.optimized

    def test_header_encodes_length_and_entry(self):
        image = build_slb(SmallPAL(), optimize=False)
        length = int.from_bytes(image.image[:2], "little")
        entry = int.from_bytes(image.image[2:4], "little")
        assert length == image.measured_length
        assert entry == 4

    def test_pcr17_launch_value_unoptimized(self):
        image = build_slb(SmallPAL(), optimize=False)
        expected = simulate_extend_chain(b"\x00" * 20, [image.skinit_measurement])
        assert image.pcr17_launch_value == expected

    def test_pcr17_launch_value_optimized_binds_whole_region(self):
        image = build_slb(SmallPAL(), optimize=True)
        expected = simulate_extend_chain(
            b"\x00" * 20, [image.skinit_measurement, sha1(image.image)]
        )
        assert image.pcr17_launch_value == expected

    def test_identical_stub_across_pals(self):
        """All optimized images share the same SKINIT measurement (the
        stub); the PAL identity lives in the region measurement."""
        a = build_slb(SmallPAL(), optimize=True)
        b = build_slb(TPMUserPAL(), optimize=True)
        assert a.skinit_measurement == b.skinit_measurement
        assert a.region_measurement != b.region_measurement
        assert a.pcr17_launch_value != b.pcr17_launch_value

    def test_different_pals_measure_differently_unoptimized(self):
        a = build_slb(SmallPAL(), optimize=False)
        b = build_slb(TPMUserPAL(), optimize=False)
        assert a.skinit_measurement != b.skinit_measurement

    def test_module_list_affects_identity(self):
        """Linking a different TCB is a different measured identity even
        for byte-identical PAL logic."""

        class V1(PAL):
            name = "v"
            modules = ()

            def run(self, ctx):
                ctx.write_output(b"same body")

        class V2(PAL):
            name = "v"
            modules = ("tpm_utils",)

            def run(self, ctx):
                ctx.write_output(b"same body")

        a = build_slb(V1(), optimize=False)
        b = build_slb(V2(), optimize=False)
        assert a.skinit_measurement != b.skinit_measurement

    def test_oversized_pal_rejected(self):
        class Oversized(PAL):
            name = "huge"
            modules = ("crypto", "tpm_utils", "memory_mgmt", "secure_channel")

            def run(self, ctx):
                pass

            def code_bytes(self):
                # A PAL body too big to fit beside the full module set.
                return b"\x90" * (SLB_MAX_CODE - 40_000)

        with pytest.raises(SLBFormatError, match="exceeds"):
            build_slb(Oversized(), optimize=True)

    def test_lookup_image_roundtrip(self):
        image = build_slb(SmallPAL(), optimize=True)
        assert lookup_image(image.image) is image

    def test_lookup_unknown_image_rejected(self):
        with pytest.raises(SLBFormatError):
            lookup_image(b"\xde\xad" * 1000)

    def test_rootkit_detector_slb_lands_near_table1_skinit(self):
        """Table 1's SKINIT row (15.4 ms) corresponds to a ~5.3 KB SLB on
        the Table 2 line; the unoptimized detector image should be in that
        size neighbourhood."""
        from repro.apps.rootkit_detector import RootkitDetectorPAL
        from repro.sim.timing import BROADCOM_BCM0102

        image = build_slb(RootkitDetectorPAL(), optimize=False)
        skinit_ms = BROADCOM_BCM0102.skinit_ms(image.measured_length)
        assert 12.0 <= skinit_ms <= 22.0
