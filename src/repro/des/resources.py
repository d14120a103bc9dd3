"""Shared resources for DES processes: semaphores, rendezvous channels,
and event conjunction.

``Channel`` implements the matching semantics simulated MPI needs: a FIFO of
pending messages per (source, tag) with blocking receive.  ``Resource`` is a
counting semaphore used to serialize access to modeled hardware (e.g. a NIC
injection port).  ``AllOf`` waits for a set of events (MPI_Waitall).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from repro.des.engine import Engine, Event
from repro.util.errors import SimulationError


class Resource:
    """Counting semaphore with FIFO fairness.

    Usage from a process::

        yield resource.acquire()
        ...critical section...
        resource.release()
    """

    def __init__(self, engine: Engine, capacity: int = 1, label: str = "") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.label = label
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    def acquire(self) -> Event:
        ev = self.engine.event(label=f"acquire:{self.label}")
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.label!r}")
        if self._waiters:
            # Hand the slot to the next waiter; in_use stays constant.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class Channel:
    """A rendezvous message channel keyed by (source, tag).

    ``put`` never blocks (buffered-send semantics; transfer time is charged
    by the network model before ``put`` is called).  ``get`` blocks until a
    matching message exists.  Wildcards: tag ``None`` matches any tag from
    the given source, and a *namespaced* wildcard ``(ns, None)`` matches any
    tag of the form ``(ns, x)`` — how simulated MPI scopes MPI_ANY_TAG to
    one communicator.  Source matching is exact because simulated MPI
    resolves MPI_ANY_SOURCE at a higher level.
    """

    _ANY = object()

    def __init__(self, engine: Engine, label: str = "") -> None:
        self.engine = engine
        self.label = label
        self._recv_label = f"recv:{label}"
        self._mailbox: dict[tuple[Any, Any], deque[Any]] = {}
        #: blocked receives per key; a key is dropped once its queue
        #: empties, so an empty dict means nobody is waiting.
        self._getters: dict[tuple[Any, Any], deque[Event]] = {}

    def _key(self, source: Any, tag: Any) -> tuple[Any, Any]:
        return (source, self._ANY if tag is None else tag)

    @staticmethod
    def _is_ns_wildcard(tag: Any) -> bool:
        return isinstance(tag, tuple) and len(tag) == 2 and tag[1] is None

    def put(self, source: Any, tag: Any, payload: Any) -> None:
        """Deliver a message; wakes one matching getter if present."""
        getters = self._getters
        if getters:
            keys = [(source, tag)]
            if isinstance(tag, tuple) and len(tag) == 2:
                keys.append((source, (tag[0], None)))  # namespaced wildcard
            keys.append((source, self._ANY))
            for key in keys:
                waiters = getters.get(key)
                if waiters:
                    getter = waiters.popleft()
                    if not waiters:
                        del getters[key]
                    getter.succeed(payload)
                    return
        self._mailbox.setdefault((source, tag), deque()).append(payload)

    def _match_stored(self, source: Any, tag: Any) -> tuple[Any, Any] | None:
        """Find a mailbox key matching (source, tag) including wildcards."""
        if tag is None:
            for key in self._mailbox:
                if key[0] == source and self._mailbox[key]:
                    return key
            return None
        if self._is_ns_wildcard(tag):
            ns = tag[0]
            for key in self._mailbox:
                if (key[0] == source and isinstance(key[1], tuple)
                        and len(key[1]) == 2 and key[1][0] == ns
                        and self._mailbox[key]):
                    return key
            return None
        key = (source, tag)
        return key if self._mailbox.get(key) else None

    def get(self, source: Any, tag: Any = None) -> Event:
        """Event that fires with the payload of the next matching message."""
        ev = Event(self.engine, self._recv_label)
        key = self._match_stored(source, tag)
        if key is not None:
            ev.succeed(self._mailbox[key].popleft())
            if not self._mailbox[key]:
                del self._mailbox[key]
            return ev
        self._getters.setdefault(self._key(source, tag), deque()).append(ev)
        return ev

    @property
    def pending(self) -> int:
        return sum(len(q) for q in self._mailbox.values())


class AnyOf(Event):
    """Fires as soon as any constituent event fires (MPI_Waitany).

    The value is ``(index, value)`` of the first event to complete;
    simultaneous completions resolve to the lowest index.
    """

    __slots__ = ("_events",)

    def __init__(self, engine: Engine, events: list[Event], label: str = "any_of") -> None:
        super().__init__(engine, label=label)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf needs at least one event")
        fired = False
        for idx, ev in enumerate(self._events):
            if ev._resolved and not fired:
                self.succeed((idx, ev._value))
                fired = True
        if not fired:
            for idx, ev in enumerate(self._events):
                ev.add_callback(self._make_callback(idx))

    def _make_callback(self, idx: int) -> Callable[[Event], None]:
        def on_child(child: Event) -> None:
            if self.triggered:
                return
            if not child._ok:
                self.fail(child._value)
            else:
                self.succeed((idx, child._value))

        return on_child


class AllOf(Event):
    """Fires when all constituent events have fired (MPI_Waitall).

    The value is the list of constituent values in constructor order.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: Engine, events: list[Event], label: str = "all_of") -> None:
        super().__init__(engine, label=label)
        self._events = list(events)
        self._remaining = 0
        for ev in self._events:
            if not ev._resolved:
                self._remaining += 1
                ev.add_callback(self._on_child)
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])

    def _on_child(self, child: Event) -> None:
        if not child._ok:
            if not self.triggered:
                self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([ev._value for ev in self._events])
