"""Virtual clock for the simulated platform.

All latencies in the reproduction are expressed in *milliseconds of virtual
time*.  Components advance the clock explicitly; nothing in the simulation
reads the host's wall clock, which keeps every experiment deterministic and
lets the benchmark harness regenerate the paper's tables on any machine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List


class VirtualClock:
    """A monotonically increasing virtual clock measured in milliseconds.

    The clock supports named *spans* (used to attribute time to the phases of
    a Flicker session, e.g. ``SKINIT`` vs ``TPM Unseal``) and checkpointing
    for measuring elapsed time across a region of simulated work.

    Example
    -------
    >>> clock = VirtualClock()
    >>> with clock.span("SKINIT"):
    ...     clock.advance(14.3)
    >>> clock.now()
    14.3
    >>> clock.span_totals()["SKINIT"]
    14.3
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        if start_ms < 0:
            raise ValueError("clock cannot start at negative time")
        self._now_ms = float(start_ms)
        self._skew = 1.0
        self._span_stack: List[str] = []
        self._span_totals: dict = {}
        #: Optional span listener (an :class:`repro.obs.ObservabilityHub`):
        #: notified on every span open/close.  ``None`` (the default) keeps
        #: the clock observability-free at zero cost beyond one None test.
        self._span_listener = None

    # -- time ---------------------------------------------------------------

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    @property
    def skew(self) -> float:
        """Current clock-skew factor (1.0 = nominal rate)."""
        return self._skew

    def set_skew(self, factor: float) -> None:
        """Scale every subsequent :meth:`advance` by ``factor``.

        Models a mis-calibrated or fault-injected oscillator: all latencies
        stretch (factor > 1) or shrink (factor < 1) uniformly, which stays
        deterministic.  Used by the fault-injection layer
        (:mod:`repro.faults`)."""
        if factor <= 0:
            raise ValueError("clock skew factor must be positive")
        self._skew = float(factor)

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` milliseconds (scaled by the
        active skew factor) and return the new time.  Attributes the delta
        to every span currently open."""
        if delta_ms < 0:
            raise ValueError("cannot advance the clock backwards")
        delta_ms *= self._skew
        self._now_ms += delta_ms
        for name in self._span_stack:
            self._span_totals[name] = self._span_totals.get(name, 0.0) + delta_ms
        return self._now_ms

    def elapsed_since(self, checkpoint_ms: float) -> float:
        """Milliseconds elapsed since a previously recorded ``now()``."""
        return self._now_ms - checkpoint_ms

    # -- spans --------------------------------------------------------------

    def set_span_listener(self, listener) -> None:
        """Install (or with ``None``, remove) a span open/close listener.

        The listener must provide ``span_opened(name, start_ms)`` and
        ``span_closed(name, start_ms, end_ms)``; the observability hub
        (:class:`repro.obs.ObservabilityHub`) implements this protocol to
        turn every clock span into a recorded hierarchical span.
        """
        self._span_listener = listener

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Attribute all time advanced inside the ``with`` block to ``name``.

        Spans nest; time inside an inner span is attributed to both the inner
        and the outer span, mirroring how the paper reports both per-operation
        and total-session latencies.
        """
        start = self._now_ms
        self._span_totals.setdefault(name, 0.0)
        self._span_stack.append(name)
        listener = self._span_listener
        if listener is not None:
            listener.span_opened(name, start)
        try:
            yield
        finally:
            self._span_stack.pop()
            if listener is not None:
                listener.span_closed(name, start, self._now_ms)

    def span_totals(self) -> dict:
        """Mapping of span name to total milliseconds attributed to it."""
        return dict(self._span_totals)

    def reset_spans(self) -> None:
        """Forget accumulated span totals (the clock itself keeps running)."""
        self._span_totals.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now_ms:.3f}ms)"
