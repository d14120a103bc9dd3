"""Event calendar, virtual clock, and generator-based processes.

Design notes
------------
* Events fire in (time, sequence) order; sequence numbers make the engine
  deterministic under simultaneous events (FIFO among equals), which the
  test suite and the reproducibility guarantees rely on.
* A process is a generator; ``yield event`` suspends until the event fires
  and evaluates to the event's value.  ``yield 1.5e-6`` is sugar for a
  :class:`Timeout`.
* Deadlock is an error, not a hang: if live processes remain but the
  calendar is empty, :class:`~repro.util.errors.DeadlockError` is raised —
  this is how mismatched sends/receives in simulated MPI programs surface.

Hot-path notes
--------------
The engine is the substrate under every simulated campaign, so its inner
loop is tuned for allocation economy rather than generality:

* ``Event.callbacks`` is polymorphic — ``None`` (no waiters), a bare
  callable (one waiter, the overwhelmingly common case), or a list.  Use
  :meth:`Event.add_callback`; most events never allocate a waiter list.
* Each :class:`Process` owns one reusable :class:`_Resume` heap entry used
  for its bootstrap, for bare-``yield <seconds>`` delays, and for resuming
  off already-resolved events — none of those paths allocate an Event.
* :class:`Timeout` skips label formatting; labels are for error messages
  and debugging only.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.util.errors import DeadlockError, SimulationError

_INF = float("inf")


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = (
        "engine",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_resolved",
        "label",
    )

    def __init__(self, engine: "Engine", label: str = "") -> None:
        self.engine = engine
        #: ``None`` | one callable | list of callables (see module notes).
        self.callbacks: Any = None
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._resolved = False
        self.label = label

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.label!r} read before trigger")
        return self._value

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb(event)`` to run when this event resolves."""
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = cb
        elif type(cbs) is list:
            cbs.append(cb)
        else:
            self.callbacks = [cbs, cb]

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire now with ``value``."""
        if self._triggered:
            raise SimulationError(f"event {self.label!r} triggered twice")
        self._triggered = True
        self._value = value
        self._ok = True
        self.engine._dispatch(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule this event to raise ``exception`` in waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.label!r} triggered twice")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.engine._dispatch(self)
        return self

    def _resolve(self) -> None:
        self._resolved = True
        cbs = self.callbacks
        if cbs is None:
            return
        self.callbacks = None
        if type(cbs) is list:
            for cb in cbs:
                cb(self)
        else:
            cbs(self)


class Timeout(Event):
    """An event that fires after a fixed virtual delay."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        # Inlined Event.__init__ without per-event label formatting.
        self.engine = engine
        self.callbacks = None
        self._value = value
        self._ok = True
        self._triggered = True  # a timeout cannot be succeeded externally
        self._resolved = False
        self.label = "timeout"
        # Inlined engine._schedule (delay >= 0 means `at` is never in the past).
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine._now + delay, seq, self))


class _Resume:
    """A process's reusable heap entry (boot, bare delays, late waits).

    A process has at most one outstanding wait, so one instance per process
    can stand in for the throwaway Events the engine would otherwise
    allocate for its bootstrap, for every ``yield <seconds>``, and for
    resuming off an event that already ran its callbacks.
    """

    __slots__ = ("process", "_value", "_ok")

    def __init__(self, process: "Process") -> None:
        self.process = process
        self._value: Any = None
        self._ok = True

    def _resolve(self) -> None:
        self.process._step(self)


ProcessGen = Generator[Any, Any, Any]


class Process(Event):
    """A running generator; also an Event that fires when it returns.

    The event's value is the generator's return value, so processes can
    ``yield`` other processes to join them.
    """

    __slots__ = ("generator", "_resume", "_dead")

    def __init__(self, engine: "Engine", generator: ProcessGen, label: str = "") -> None:
        super().__init__(engine, label=label or getattr(generator, "__name__", "proc"))
        self.generator = generator
        self._dead = False
        engine._live += 1
        # Bootstrap at the current time through the reusable resume entry.
        self._resume = resume = _Resume(self)
        engine._schedule(engine._now, resume)

    def kill(self, value: Any = None) -> bool:
        """Terminate this process now; its event resolves with ``value``.

        Used by the fault-injection layer to model a node crash: the
        generator is closed (``finally`` blocks run, releasing resources),
        the live count drops, and any stale heap entries for the process
        become no-ops.  Returns False if the process already finished.
        """
        if self._triggered:
            return False
        self._dead = True
        self.generator.close()
        self.engine._live -= 1
        Event.succeed(self, value)
        return True

    def _step(self, trigger: Any) -> None:
        if self._dead:
            return  # killed while this resume/callback was already queued
        engine = self.engine
        try:
            if trigger._ok:
                target = self.generator.send(trigger._value)
            else:
                target = self.generator.throw(trigger._value)
        except StopIteration as stop:
            engine._live -= 1
            super().succeed(stop.value)
            return
        except BaseException as exc:
            engine._live -= 1
            if self.callbacks is not None:
                super().fail(exc)
                return
            raise
        cls = target.__class__
        if cls is float or cls is int:
            # Bare-delay fast path: no Timeout, no callback registration.
            if not 0.0 <= target < _INF:
                raise SimulationError(
                    f"timeout delay must be finite and >= 0, got {target}"
                )
            resume = self._resume
            resume._value = None
            resume._ok = True
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (engine._now + target, seq, resume))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.label!r} yielded {type(target).__name__}, "
                "expected an Event or a delay in seconds"
            )
        if target._resolved:
            # The event already fired and ran its callbacks; a late waiter
            # must be resumed explicitly or it would sleep forever.
            resume = self._resume
            resume._value = target._value
            resume._ok = target._ok
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (engine._now, seq, resume))
        elif target.callbacks is None:
            target.callbacks = self._step
        else:
            target.add_callback(self._step)


class Engine:
    """The event calendar and virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._live = 0  # processes started and not yet finished
        #: cumulative count of processed (popped and resolved) calendar
        #: entries — the events/s denominator of the engine benchmarks.
        self.events_processed = 0
        #: time of the last *processed* entry.  ``run(until)`` and
        #: :meth:`run_window` advance :attr:`now` to the window end even
        #: when nothing fired there; this keeps the real activity time.
        self.last_event_time = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def live(self) -> int:
        """Processes started and not yet finished."""
        return self._live

    def next_time(self) -> float:
        """Timestamp of the earliest pending calendar entry (inf if none)."""
        return self._heap[0][0] if self._heap else _INF

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, at: float, event: Any) -> None:
        if at < self._now:
            raise SimulationError(f"cannot schedule event in the past ({at} < {self._now})")
        self._seq += 1
        heappush(self._heap, (at, self._seq, event))

    def _dispatch(self, event: Event) -> None:
        """Queue an externally triggered event at the current time."""
        self._schedule(self._now, event)

    # -- public API ---------------------------------------------------------

    def event(self, label: str = "") -> Event:
        return Event(self, label)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGen, label: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        return Process(self, generator, label=label)

    def run(self, until: float | None = None) -> float:
        """Execute events until the calendar drains (or ``until`` is reached).

        Returns the final virtual time.  Raises DeadlockError if processes
        remain alive with nothing scheduled.
        """
        heap = self._heap
        n = 0
        if until is None:
            while heap:
                at, _, event = heappop(heap)
                self._now = at
                event._resolve()
                n += 1
        else:
            while heap:
                if heap[0][0] > until:
                    break
                at, _, event = heappop(heap)
                self._now = at
                event._resolve()
                n += 1
        self.events_processed += n
        if n:
            self.last_event_time = self._now
        if until is not None and heap:
            self._now = until
            return until
        if self._live > 0:
            raise DeadlockError(
                f"{self._live} process(es) blocked forever at t={self._now:g}s "
                "(mismatched send/recv or un-triggered event)"
            )
        return self._now

    def run_window(self, until: float) -> int:
        """Process every calendar entry with timestamp <= ``until``.

        The windowed-execution primitive of the sharded driver
        (:mod:`repro.des.shard`): unlike :meth:`run`, draining the
        calendar with live processes is *not* an error here — a shard
        legitimately goes idle while a cross-shard message is in flight.
        The clock is left at ``until`` so later injected deliveries
        (which the lookahead guarantees to be >= the window end) are
        never in the engine's past.  Returns the number of entries
        processed; deadlock detection is the caller's job, globally.
        """
        heap = self._heap
        n = 0
        while heap and heap[0][0] <= until:
            at, _, event = heappop(heap)
            self._now = at
            event._resolve()
            n += 1
        self.events_processed += n
        if n:
            self.last_event_time = self._now
        self._now = until
        return n
