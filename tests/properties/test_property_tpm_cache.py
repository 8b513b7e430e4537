"""Property test: TPM PCR reads are coherent under any interleaving of
software reads, software extends, and *direct hardware* PCR-bank writes.

The hardware path (SKINIT/TXT measuring into PCR 17, see
:func:`repro.hw.skinit.skinit`) bypasses the TPM command layer entirely.
Whatever interleaving hypothesis generates, a software ``pcr_read`` must
always agree with a pure-Python shadow of the extend chain.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.timing import BROADCOM_BCM0102
from repro.sim.trace import EventTrace
from repro.tpm.pcr import extend_value
from repro.tpm.tpm import TPM

pytestmark = pytest.mark.fuzz

_PCRS = (4, 17, 18)

_step = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(_PCRS)),
    st.tuples(st.just("extend_sw"), st.sampled_from(_PCRS)),
    st.tuples(st.just("extend_hw"), st.sampled_from(_PCRS)),
)


def _fresh_tpm() -> TPM:
    return TPM(VirtualClock(), EventTrace(), DeterministicRNG(42),
               BROADCOM_BCM0102, key_bits=512)


@given(steps=st.lists(_step, max_size=24))
@settings(max_examples=25, deadline=None)
def test_reads_always_coherent_under_interleaving(steps):
    tpm = _fresh_tpm()
    iface = tpm.interface(0)
    shadow = {index: iface.pcr_read(index) for index in _PCRS}
    for i, (kind, index) in enumerate(steps):
        measurement = bytes([i % 256]) * 20
        if kind == "read":
            assert iface.pcr_read(index) == shadow[index]
        elif kind == "extend_sw":
            iface.pcr_extend(index, measurement)
            shadow[index] = extend_value(shadow[index], measurement)
        else:  # extend_hw: the SKINIT path, bypassing the command layer
            tpm.pcrs.extend(index, measurement)
            shadow[index] = extend_value(shadow[index], measurement)
        assert iface.pcr_read(index) == shadow[index]
