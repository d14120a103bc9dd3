"""One bounded, thread-safe memo type for every process-local cache, and
the one function that turns content into a key.

A :class:`Memo` is an LRU map bounded by an entry count and, optionally,
by a byte budget over its values (``sizeof``).  It counts its own hits,
misses (fills) and evictions.  Memos built with ``register=True`` join
:data:`MEMOS`, which :func:`clear_memos` walks and ``/v1/stats`` reads.

Every memo here caches a pure function of its key, so an eviction only
costs a recompute; it never changes a result.

:func:`content_key` is the SHA-256 of a canonical, type-tagged encoding
of a value.  It depends only on content, never on ``PYTHONHASHSEED``,
object identity or ``repr``, so equal inputs get equal keys in every
interpreter; every digest in ``repro`` (cluster and compiler
fingerprints, tape and job digests, pass certificates, the experiment
disk-cache stem) is built by it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import threading
import types
from collections import OrderedDict
from collections.abc import Mapping
from fractions import Fraction
from typing import Any, Callable, Generic, Hashable, Iterable, TypeVar

import numpy as np

__all__ = ["MEMOS", "Memo", "clear_memos", "content_key", "memo_stats"]

V = TypeVar("V")

#: registered memos by name.
MEMOS: dict[str, "Memo[Any]"] = {}


class Memo(Generic[V]):
    """LRU memo bounded by ``max_entries`` and, with ``sizeof``, by
    ``budget_bytes`` of resident values.  The newest entry always stays,
    so a value larger than the budget is still served."""

    def __init__(self, name: str, max_entries: int, *,
                 budget_bytes: int | None = None,
                 sizeof: Callable[[V], int] | None = None,
                 register: bool = True) -> None:
        self.name = name
        self.max_entries = max_entries
        self._budget = budget_bytes
        self._sizeof = sizeof
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, V] = OrderedDict()
        self._resident = 0
        self.hits = self.misses = self.evictions = 0
        if register:
            MEMOS[name] = self

    def get(self, key: Hashable) -> V | None:
        """The value under ``key`` (a hit, made most recent), else None."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self.hits += 1
                self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Store a freshly computed value (a miss) unless another thread
        stored one first (then a hit); return the resident value."""
        with self._lock:
            resident = self._data.get(key)
            if resident is not None:
                self.hits += 1
                self._data.move_to_end(key)
                return resident
            self.misses += 1
            self._data[key] = value
            if self._sizeof is not None:
                self._resident += self._sizeof(value)
            self._evict()
            return value

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The value under ``key``, computing it outside the lock on a
        miss; a raced fill keeps the first value stored."""
        value = self.get(key)
        return value if value is not None else self.put(key, compute())

    def _evict(self) -> None:
        data = self._data
        while len(data) > 1 and (
                len(data) > self.max_entries
                or (self._budget is not None
                    and self._resident > self._budget)):
            _, victim = data.popitem(last=False)
            if self._sizeof is not None:
                self._resident -= self._sizeof(victim)
            self.evictions += 1

    def set_budget(self, budget_bytes: int | None) -> None:
        """Re-size the byte budget (``None`` lifts it) and evict down to
        it at once."""
        with self._lock:
            self._budget = budget_bytes
            self._evict()

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._data.clear()
            self._resident = 0
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int | None]:
        with self._lock:
            return {"entries": len(self._data),
                    "resident_bytes": self._resident,
                    "budget_bytes": self._budget,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


def clear_memos() -> None:
    """Clear every registered memo."""
    for memo in list(MEMOS.values()):
        memo.clear()


def memo_stats() -> dict[str, dict[str, int | None]]:
    """Per-memo counters of every registered memo, by name."""
    return {name: memo.stats() for name, memo in sorted(MEMOS.items())}


# -- content keys --------------------------------------------------------------


def content_key(obj: object) -> bytes:
    """SHA-256 digest of a canonical encoding of ``obj``.

    Each value is a one-byte type tag, a length (or item count) and its
    content: ``None``, ``bool``, ``int``, ``str`` and ``bytes`` as
    themselves; ``float`` by :meth:`float.hex` (so ``0.0`` and ``-0.0``
    differ); ``Fraction`` by numerator and denominator; tuples and lists
    in order; sets and frozensets sorted by their elements' encodings;
    mappings sorted by their keys' encodings; an ``Enum`` member by
    qualified class and member name; a dataclass by qualified class and
    its ``compare=True`` fields in declaration order (equal objects,
    equal keys); a numpy array by ``dtype.str``, shape and C-order
    bytes; a module-level function by module and qualified name.
    Anything else (a lambda or a local function too) raises
    :class:`TypeError`: there is no ``repr`` fallback.
    """
    buf = bytearray()
    _write(obj, buf, {})
    return hashlib.sha256(buf).digest()


def _write(obj: Any, buf: bytearray, seen: dict[int, bytes]) -> None:
    """Append ``obj``'s encoding to ``buf``.  ``seen`` holds the
    encodings of the dataclass instances this call already wrote, by
    ``id`` (a tree shares sub-objects, and all stay alive for the call)."""
    cls = type(obj)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        data = leaf[1](obj)
        buf += leaf[0] + len(data).to_bytes(8, "little") + data
    elif cls is tuple or cls is list:
        buf += (b"t" if cls is tuple else b"l") + len(obj).to_bytes(8, "little")
        for item in obj:
            _write(item, buf, seen)
    else:
        (_WRITERS.get(cls) or _writer_for(cls))(obj, buf, seen)


def _encode(obj: object, seen: dict[int, bytes]) -> bytes:
    buf = bytearray()
    _write(obj, buf, seen)
    return bytes(buf)


def _qualname(obj: Any) -> bytes:
    return f"{obj.__module__}.{obj.__qualname__}".encode()


def _function_name(fn: types.FunctionType) -> bytes:
    if "<" in fn.__qualname__:  # a lambda or a local: the name is no key
        raise TypeError(f"content_key cannot encode {fn.__qualname__}")
    return _qualname(fn)


def _array(obj: np.ndarray, buf: bytearray, seen: dict[int, bytes]) -> None:
    dtype = _DTYPES.get(obj.dtype)
    if dtype is None:
        if obj.dtype.hasobject:
            raise TypeError("content_key cannot encode an object array")
        dtype = _DTYPES[obj.dtype] = _encode(obj.dtype.str, seen)
    buf += b"a" + dtype
    _write(obj.shape, buf, seen)
    buf += obj.nbytes.to_bytes(8, "little")
    buf += np.ascontiguousarray(obj).data


def _sorted_chunk(tag: bytes, parts: Iterable[bytes], buf: bytearray) -> None:
    data = b"".join(sorted(parts))
    buf += tag + len(data).to_bytes(8, "little") + data


_Writer = Callable[[Any, bytearray, dict], None]

#: leaf encoders by base type, most specific first (``bool`` before
#: ``int``): the type tag and the content bytes.
_LEAF_BASES: tuple[tuple[Any, bytes, Callable[[Any], bytes]], ...] = (
    (type(None), b"N", lambda obj: b""),
    (bool, b"?", lambda obj: b"1" if obj else b"0"),
    (int, b"i", lambda obj: b"%d" % obj),
    (float, b"f", lambda obj: obj.hex().encode()),
    (str, b"s", str.encode),
    (bytes, b"b", bytes),
    (Fraction, b"q",
     lambda obj: f"{obj.numerator}/{obj.denominator}".encode()),
    (types.FunctionType, b"c", _function_name),
)

#: container encoders by base type.
_BASE_WRITERS: tuple[tuple[Any, _Writer], ...] = (
    # a named tuple equals, and encodes as, the plain tuple
    (tuple, lambda obj, buf, seen: _write(tuple(obj), buf, seen)),
    (list, lambda obj, buf, seen: _write(list(obj), buf, seen)),
    # sorted encodings: an order-free container gets one key
    ((set, frozenset), lambda obj, buf, seen: _sorted_chunk(
        b"S", (_encode(item, seen) for item in obj), buf)),
    # key encodings are prefix-free, so each entry sorts by its key
    (Mapping, lambda obj, buf, seen: _sorted_chunk(
        b"m", (_encode(k, seen) + _encode(v, seen)
               for k, v in obj.items()), buf)),
    (np.ndarray, _array),
)

#: leaf and container encoders by exact type, and array dtypes' encoded
#: ``dtype.str``, filled on first sight.
_LEAVES: dict[type, tuple[bytes, Callable[[Any], bytes]]] = {}
_WRITERS: dict[type, _Writer] = {}
_DTYPES: dict[np.dtype, bytes] = {}


def _writer_for(cls: type) -> _Writer:
    """Register the encoder of ``cls``'s instances (once per type)."""
    if issubclass(cls, enum.Enum):
        names = {m.name: _qualname(cls) + b":" + m.name.encode() for m in cls}
        _LEAVES[cls] = (b"e", lambda obj: names[obj.name])
        return _write
    if dataclasses.is_dataclass(cls):
        header = b"d" + _encode(_qualname(cls), {})
        fields = [f.name for f in dataclasses.fields(cls) if f.compare]

        def write_dataclass(obj: Any, buf: bytearray,
                            seen: dict[int, bytes]) -> None:
            done = seen.get(id(obj))
            if done is not None:
                buf += done
                return
            start = len(buf)
            buf += header
            for name in fields:
                _write(getattr(obj, name), buf, seen)
            seen[id(obj)] = bytes(buf[start:])
        _WRITERS[cls] = write_dataclass
        return write_dataclass
    for base, tag, leaf in _LEAF_BASES:
        if issubclass(cls, base):
            _LEAVES[cls] = (tag, leaf)
            return _write
    for base, writer in _BASE_WRITERS:
        if issubclass(cls, base):
            _WRITERS[cls] = writer
            return writer
    raise TypeError(f"content_key cannot encode {cls.__qualname__}")
