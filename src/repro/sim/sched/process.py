"""Cooperative processes and mailboxes on top of the event scheduler.

A :class:`Process` wraps a Python generator.  Between ``yield``\\ s the
generator runs ordinary synchronous simulation code — a whole Flicker
session, say — advancing its machine's local clock.  Yield values are the
scheduling vocabulary:

``yield 12.5`` (or ``yield Delay(12.5)``)
    sleep 12.5 virtual milliseconds of machine-local time, then resume.

``yield 0``  (or bare ``yield``)
    a pure scheduling point: cede to any other machine whose next event
    is not later than this machine's local time.

``yield Receive(mailbox)``
    block until a message is available; the message becomes the value of
    the ``yield`` expression.

The driver keeps the fleet invariant: a process resuming at global time
``T`` first fast-forwards its clock to ``T`` (idle time), runs its next
synchronous burst to some local time ``T' >= T``, and schedules its
continuation at ``T'`` (+ any requested delay).  Everything is ordered by
the scheduler's ``(time, seq)`` heap, so runs replay exactly.

>>> from repro.sim.sched.events import EventScheduler
>>> from repro.sim.sched.clock import ScheduledClock
>>> sched = EventScheduler()
>>> a, b = ScheduledClock(sched, "a"), ScheduledClock(sched, "b")
>>> order = []
>>> def worker(clock, step_ms):
...     for _ in range(2):
...         _ = clock.advance(step_ms)
...         order.append((clock.machine_id, clock.now()))
...         yield 0
>>> _ = Process(sched, a, worker(a, 3.0), name="a")
>>> _ = Process(sched, b, worker(b, 5.0), name="b")
>>> _ = sched.run()
>>> order
[('a', 3.0), ('b', 5.0), ('a', 6.0), ('b', 10.0)]
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Generator, List, Tuple

from repro.sim.sched.clock import ScheduledClock
from repro.sim.sched.events import EventScheduler, SchedulerError


@dataclass(frozen=True)
class Delay:
    """Yield command: sleep this many virtual milliseconds."""

    ms: float


@dataclass(frozen=True)
class Receive:
    """Yield command: block until ``mailbox`` has a message."""

    mailbox: "Mailbox"


class Process:
    """One cooperative task bound to a machine clock.

    The process schedules its first step immediately on construction
    (at the machine's current local time), so building a fleet and then
    calling ``scheduler.run()`` is enough to drive everything.
    """

    def __init__(self, scheduler: EventScheduler, clock: ScheduledClock,
                 generator: Generator, name: str = "process") -> None:
        self.scheduler = scheduler
        self.clock = clock
        self.name = name
        self.done = False
        self.result: Any = None
        self._gen = generator
        scheduler.at(max(scheduler.now(), clock.now()),
                     partial(self._resume, None), label=f"{name}:start")

    # -- driver ---------------------------------------------------------------

    def _resume(self, value: Any) -> None:
        """Scheduler callback: run the generator to its next yield."""
        self.clock.sync_to(self.scheduler.now())
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            return
        local = self.clock.now()
        if command is None:
            command = Delay(0.0)
        elif isinstance(command, (int, float)):
            command = Delay(float(command))
        if isinstance(command, Delay):
            if command.ms < 0:
                raise SchedulerError(f"{self.name}: negative delay {command.ms}")
            self.scheduler.at(local + command.ms, partial(self._resume, None),
                              label=f"{self.name}:resume")
        elif isinstance(command, Receive):
            command.mailbox._register(self, local)
        else:
            raise SchedulerError(
                f"{self.name} yielded {command!r}; expected a delay in ms, "
                f"Delay, Receive, or None"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


class Mailbox:
    """Deterministic FIFO message queue connecting processes.

    Messages are appended by :meth:`put` (typically from a scheduled
    network-delivery event) and consumed by processes yielding
    :class:`Receive`.  Waiters are woken strictly in the order they
    started waiting; a waiter resumes no earlier than the later of the
    delivery time and the moment it began waiting.
    """

    def __init__(self, scheduler: EventScheduler, name: str = "mailbox") -> None:
        self.scheduler = scheduler
        self.name = name
        self._items: Deque[Any] = deque()
        #: (process, local time it began waiting) in arrival order.
        self._waiters: Deque[Tuple[Process, float]] = deque()
        self.delivered = 0

    def put(self, item: Any) -> None:
        """Deposit ``item`` now; wakes the longest-waiting process."""
        self.delivered += 1
        if self._waiters:
            process, since = self._waiters.popleft()
            wake_at = max(self.scheduler.now(), since)
            self.scheduler.at(wake_at, partial(process._resume, item),
                              label=f"{self.name}:wake:{process.name}")
        else:
            self._items.append(item)

    def _register(self, process: Process, local_time: float) -> None:
        """A process yielded ``Receive(self)`` at its ``local_time``."""
        if self._items:
            item = self._items.popleft()
            self.scheduler.at(local_time, partial(process._resume, item),
                              label=f"{self.name}:wake:{process.name}")
        else:
            self._waiters.append((process, local_time))

    def __len__(self) -> int:
        return len(self._items)

    @property
    def waiting(self) -> List[str]:
        """Names of processes currently blocked on this mailbox."""
        return [p.name for p, _ in self._waiters]

    def receive(self) -> Receive:
        """Convenience: ``yield mailbox.receive()`` inside a process."""
        return Receive(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Mailbox({self.name!r}, queued={len(self._items)}, "
                f"waiting={len(self._waiters)})")
