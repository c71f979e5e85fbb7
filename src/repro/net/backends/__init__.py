"""Transport/clock backends: the seam between protocol code and the world.

Two backends implement the contracts in :mod:`repro.net.backends.base`:

* the **simulated** backend — :class:`repro.sim.clock.Clock` +
  :class:`repro.net.network.Network` over a modeled topology (the
  default everywhere);
* the **live** backend — :class:`~repro.net.backends.wallclock.WallClock` +
  :class:`~repro.net.backends.livenet.LiveNetwork` over real asyncio UDP
  sockets, assembled by :class:`~repro.net.backends.liveworld.LiveWorld`
  on the shared :class:`repro.world.World` base.

Heavy live-backend symbols are exported lazily (PEP 562): ``base`` and
``wallclock`` are stdlib-only and safe for :mod:`repro.sim.clock` /
:mod:`repro.net.transport` to import, while ``AsyncioKernel`` /
``LiveNetwork`` / ``LiveWorld`` pull in the metrics and protocol stack —
importing them eagerly here would close an import cycle through
``sim.clock``.
"""

from __future__ import annotations

from repro.net.backends.base import (
    ClockBase,
    NetworkBackend,
    retry_schedule_ms,
    validate_fraction,
    validate_non_negative,
    validate_positive,
    validate_retry_count,
)
from repro.net.backends.wallclock import WallClock, wall_seconds

_LAZY = {
    "AsyncioKernel": ("repro.net.backends.asynckernel", "AsyncioKernel"),
    "LiveTransportConfig": ("repro.net.backends.config", "LiveTransportConfig"),
    "LiveNetwork": ("repro.net.backends.livenet", "LiveNetwork"),
    "LiveLossModel": ("repro.net.backends.livenet", "LiveLossModel"),
    "LiveWorld": ("repro.net.backends.liveworld", "LiveWorld"),
}

__all__ = [
    "ClockBase",
    "NetworkBackend",
    "WallClock",
    "wall_seconds",
    "retry_schedule_ms",
    "validate_positive",
    "validate_non_negative",
    "validate_fraction",
    "validate_retry_count",
    *_LAZY,
]


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target[0])
    value = getattr(module, target[1])
    globals()[name] = value  # cache for subsequent lookups
    return value
