"""Transport/clock backends: the seam between protocol code and the world.

Two backends implement the contracts in :mod:`repro.net.backends.base`:

* the **simulated** backend — :class:`repro.sim.clock.Clock` +
  :class:`repro.net.network.Network` over a modeled topology (the
  default everywhere);
* the **live** backend — :class:`~repro.net.backends.wallclock.WallClock` +
  :class:`~repro.net.backends.livenet.LiveNetwork` over real asyncio UDP
  sockets, assembled by :class:`~repro.net.backends.liveworld.LiveWorld`
  on the shared :class:`repro.world.World` base.

Both take the one :class:`repro.net.transport.TransportConfig`.  Import
the submodules directly: this package exports nothing, so importing
``base`` or ``wallclock`` (as :mod:`repro.sim.clock` does) never pulls in
the protocol stack.
"""
