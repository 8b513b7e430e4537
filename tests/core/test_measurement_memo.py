"""Measurement digests of SLB images and PCR composites.

An SLB image is built once per PAL class and its digests are computed on
first read, in derived state invisible to dataclass equality; a PCR
composite digests its current encoding.  Differing content always gets a
fresh digest.
"""

import dataclasses

from repro.core.pal import PAL
from repro.core.slb import build_slb
from repro.crypto.sha1 import sha1
from repro.tpm.structures import PCRComposite


class MemoPAL(PAL):
    name = "memo-pal"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"a")


class OtherPAL(PAL):
    name = "other-pal"
    modules = ()

    def run(self, ctx):
        ctx.write_output(b"b")


class TestSLBMeasurementMemo:
    def test_instance_memo_returns_identical_objects(self):
        image = build_slb(MemoPAL())
        assert image.skinit_measurement is image.skinit_measurement
        assert image.region_measurement is image.region_measurement
        assert image.pcr17_launch_value is image.pcr17_launch_value

    def test_memo_matches_a_fresh_hash(self):
        image = build_slb(MemoPAL())
        _ = image.skinit_measurement  # prime the memo
        assert image.skinit_measurement == sha1(
            image.image[: image.measured_length])
        assert image.region_measurement == sha1(image.image)

    def test_identical_rebuild_measures_identically(self):
        a, b = build_slb(MemoPAL()), build_slb(MemoPAL())
        assert a is b
        assert a.skinit_measurement == b.skinit_measurement
        assert a.pcr17_launch_value == b.pcr17_launch_value

    def test_differing_content_gets_a_fresh_digest(self):
        a, b = build_slb(MemoPAL()), build_slb(OtherPAL())
        assert a.image != b.image
        assert a.region_measurement != b.region_measurement
        assert a.pcr17_launch_value != b.pcr17_launch_value

    def test_memo_is_invisible_to_equality(self):
        a = build_slb(MemoPAL())
        b = dataclasses.replace(a)  # same fields, no digest read yet
        _ = a.skinit_measurement  # a carries memo state, b does not
        assert a == b
        assert repr(a) == repr(b)


class TestPCRCompositeMemo:
    def composite(self, fill):
        return PCRComposite.from_mapping({17: bytes([fill]) * 20,
                                          18: b"\x00" * 20})

    def test_equal_composites_digest_equally(self):
        assert self.composite(1).digest() == self.composite(1).digest()

    def test_differing_composite_gets_fresh_digest(self):
        assert self.composite(1).digest() != self.composite(2).digest()

    def test_digest_is_sha1_of_encoding(self):
        comp = self.composite(4)
        assert comp.digest() == sha1(comp.encode())
