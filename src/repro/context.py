"""The run context: which engine and pricing model produce a result.

A :class:`RunContext` names the settings a run's numbers depend on: the
execution backend, the pricing model, and the DES shard count and shard
worker count.  It is frozen and validated on construction, and lives in
a :class:`contextvars.ContextVar`: :func:`current` reads it and
:func:`using` installs one for a ``with`` block (restored on exit, also
when the block raises).  A context var rather than a parameter, because
the experiments reach the backend through ``AppModel.scaling`` and
``time_step`` with no context argument; and rather than a process global,
because two threads can then price under different models at once.
Worker processes never inherit it: every process boundary passes the
context as an argument and re-enters it with :func:`using`.
"""

from __future__ import annotations

import contextvars
import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.util.errors import ConfigurationError

__all__ = ["RunContext", "current", "using"]


@dataclass(frozen=True)
class RunContext:
    """The run settings every result depends on.

    ``backend`` is a registered backend name, ``pricing`` a registered
    pricing model (canonicalized to lower case), ``des_shards`` the DES
    shard count (clamped to the partition by the DES backend) and
    ``des_workers`` the worker processes behind the shards (0 runs them
    in-process).
    """

    backend: str = "analytic"
    pricing: str = "roofline"
    des_shards: int = 1
    des_workers: int = 0

    def __post_init__(self) -> None:
        # the defaults are built-ins; checking them would import the
        # registries while they are still importing this module
        if self.backend != "analytic":
            from repro.ir.backend import get_backend

            get_backend(self.backend)
        if self.pricing != "roofline":
            from repro.machine.models import get_pricing_model

            object.__setattr__(self, "pricing",
                               get_pricing_model(self.pricing).name)
        for name, low in (("des_shards", 1), ("des_workers", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < low:
                raise ConfigurationError(
                    f"{name} must be an integer >= {low}, got {value!r}")

    def derive(self, **changes: object) -> "RunContext":
        """A copy with the given fields replaced; ``None`` keeps a field."""
        return dataclasses.replace(
            self, **{k: v for k, v in changes.items() if v is not None})


_DEFAULT = RunContext()
_CURRENT: contextvars.ContextVar[RunContext] = contextvars.ContextVar(
    "repro_run_context")


def current() -> RunContext:
    """The run context in effect (the defaults outside any :func:`using`)."""
    return _CURRENT.get(_DEFAULT)


@contextmanager
def using(ctx: RunContext) -> Iterator[RunContext]:
    """Run the ``with`` block under ``ctx``; the previous context comes
    back on exit, also when the block raises."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
