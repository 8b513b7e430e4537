"""Virtual clock, deterministic RNG, and event-trace tests."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRNG
from repro.sim.trace import EventTrace


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(start_ms=42.5).now() == 42.5

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start_ms=-1)

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(10)
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_elapsed_since(self):
        clock = VirtualClock()
        clock.advance(5)
        mark = clock.now()
        clock.advance(7)
        assert clock.elapsed_since(mark) == 7

    def test_span_attribution(self):
        clock = VirtualClock()
        with clock.span("a"):
            clock.advance(3)
        clock.advance(10)  # unattributed
        with clock.span("a"):
            clock.advance(4)
        assert clock.span_totals()["a"] == 7

    def test_nested_spans_attribute_to_both(self):
        clock = VirtualClock()
        with clock.span("outer"):
            clock.advance(1)
            with clock.span("inner"):
                clock.advance(2)
        totals = clock.span_totals()
        assert totals["outer"] == 3
        assert totals["inner"] == 2

    def test_reset_spans_keeps_time(self):
        clock = VirtualClock()
        with clock.span("x"):
            clock.advance(5)
        clock.reset_spans()
        assert clock.span_totals() == {}
        assert clock.now() == 5

    def test_span_closed_on_exception(self):
        clock = VirtualClock()
        with pytest.raises(RuntimeError):
            with clock.span("broken"):
                clock.advance(1)
                raise RuntimeError("boom")
        # A later advance must not be attributed to the closed span.
        clock.advance(10)
        assert clock.span_totals()["broken"] == 1


class TestDeterministicRNG:
    def test_same_seed_same_stream(self):
        assert DeterministicRNG(7).bytes(100) == DeterministicRNG(7).bytes(100)

    def test_different_seed_different_stream(self):
        assert DeterministicRNG(7).bytes(100) != DeterministicRNG(8).bytes(100)

    def test_bytes_length(self):
        rng = DeterministicRNG(1)
        for n in (0, 1, 7, 8, 9, 1000):
            assert len(rng.bytes(n)) == n

    def test_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).bytes(-1)

    def test_randint_bounds(self):
        rng = DeterministicRNG(2)
        for _ in range(500):
            v = rng.randint(10, 20)
            assert 10 <= v <= 20

    def test_randint_covers_range(self):
        rng = DeterministicRNG(3)
        seen = {rng.randint(0, 3) for _ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randint_empty_range_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG(1).randint(2, 1)

    def test_randbits_width(self):
        rng = DeterministicRNG(4)
        for k in (1, 8, 63, 64, 100):
            assert rng.randbits(k) < (1 << k)

    def test_odd_integer_shape(self):
        rng = DeterministicRNG(5)
        for bits in (8, 64, 512):
            v = rng.odd_integer(bits)
            assert v.bit_length() == bits
            assert v % 2 == 1

    def test_fork_streams_are_independent(self):
        parent = DeterministicRNG(6)
        a = parent.fork("a")
        b = parent.fork("b")
        assert a.bytes(32) != b.bytes(32)

    def test_fork_same_label_after_same_draws(self):
        p1 = DeterministicRNG(9)
        p2 = DeterministicRNG(9)
        assert p1.fork("x").bytes(16) == p2.fork("x").bytes(16)

    def test_shuffle_is_permutation(self):
        rng = DeterministicRNG(10)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # vanishingly unlikely to be identity

    def test_gauss_moments(self):
        rng = DeterministicRNG(11)
        samples = [rng.gauss(5.0, 2.0) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert abs(mean - 5.0) < 0.2
        assert abs(var - 4.0) < 0.6


class TestEventTrace:
    def test_emit_and_filter(self):
        trace = EventTrace()
        trace.emit(1.0, "cpu", "skinit", slb_base=0x1000)
        trace.emit(2.0, "tpm", "pcr_extend", pcr=17)
        trace.emit(3.0, "tpm", "quote")
        assert len(trace) == 3
        assert len(trace.events(source="tpm")) == 2
        assert trace.events(kind="skinit")[0].detail["slb_base"] == 0x1000

    def test_predicate_filter(self):
        trace = EventTrace()
        trace.emit(1.0, "tpm", "pcr_extend", pcr=17)
        trace.emit(2.0, "tpm", "pcr_extend", pcr=18)
        hits = trace.events(kind="pcr_extend", predicate=lambda e: e.detail["pcr"] == 17)
        assert len(hits) == 1

    def test_last(self):
        trace = EventTrace()
        assert trace.last() is None
        trace.emit(1.0, "a", "x")
        trace.emit(2.0, "b", "y")
        assert trace.last().kind == "y"
        assert trace.last(kind="x").time_ms == 1.0

    def test_ordered_before(self):
        trace = EventTrace()
        trace.emit(1.0, "flicker", "cleanup")
        trace.emit(2.0, "flicker", "os-resumed")
        assert trace.ordered_before("cleanup", "os-resumed")
        assert not trace.ordered_before("os-resumed", "cleanup")
        assert not trace.ordered_before("cleanup", "never-happened")

    def test_clear(self):
        trace = EventTrace()
        trace.emit(1.0, "a", "x")
        trace.clear()
        assert len(trace) == 0

    def test_format_timeline_contains_events(self):
        trace = EventTrace()
        trace.emit(1.5, "cpu", "skinit", length=4736)
        text = trace.format_timeline()
        assert "skinit" in text and "4736" in text
