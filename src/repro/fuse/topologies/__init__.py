"""Alternative FUSE liveness-checking topologies (paper §5.1).

The default implementation (:class:`repro.fuse.service.FuseService`)
shares liveness traffic with the overlay.  The paper sketches three
alternatives that trade scalability for security.  All three run on the
same group lifecycle as the service (:class:`repro.fuse.core.FuseCore`:
create, signal, exactly-once failure) and differ only in who monitors
whom, so one direct-link monitor runs each of them from a
:class:`Topology`:

* :data:`DIRECT_TREE` — per-group trees *without* an overlay: the root is
  the hub and pings every member.  No delegates, so delegates cannot
  attack the group; liveness cost grows with the number of groups.
* :data:`ALL_TO_ALL` — no hub: every member pings every other.  No member
  relies on another to forward notifications; n² messages per group;
  worst-case notification latency of twice the ping interval.
* ``Topology(server=host)`` — one trusted server is every group's hub.  It pings no
  one; each member pings it once per period.  Minimal member load, a
  single point of trust and a server bottleneck.

All three provide the same distributed one-way agreement semantics as
the service, which the shared suite in tests/test_topologies.py asserts
against all four.
"""

from repro.fuse.topologies.direct_link import ALL_TO_ALL, DIRECT_TREE, DirectLinkFuse, Topology

__all__ = ["ALL_TO_ALL", "DIRECT_TREE", "DirectLinkFuse", "Topology"]
