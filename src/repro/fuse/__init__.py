"""FUSE: lightweight guaranteed distributed failure notification.

The public API follows Fig 1 of the paper:

* :meth:`FuseService.create_group`  — ``CreateGroup(NodeId[] set)``;
  returns a first-class :class:`~repro.fuse.api.FuseGroup` handle with
  lifecycle subscriptions (``on_live`` / ``on_notified`` /
  ``on_member_notified``), backed by the world's
  :class:`~repro.fuse.api.GroupLedger`;
* :meth:`FuseService.register_failure_handler` —
  ``RegisterFailureHandler(Callback, FuseId)``;
* :meth:`FuseService.signal_failure` — ``SignalFailure(FuseId)``.

Semantics (distributed one-way agreement, §3): once any failure condition
affects a group — a node crash, a network failure FUSE notices, or an
explicit application signal — every live member's failure handler is
invoked exactly once within a bounded period of time, and no member's
group state is ever orphaned.

The default implementation monitors groups with per-group spanning trees
over SkipNet overlay routes, piggybacking a hash of live group IDs on the
overlay's existing ping traffic (§5-§6).  The group lifecycle it shares
with the §5.1 alternative liveness topologies (:mod:`repro.fuse.topologies`)
lives in :mod:`repro.fuse.core`.
"""

from repro.fuse.api import (
    FuseGroup,
    GroupLedger,
    GroupStatus,
    NotificationReason,
)
from repro.fuse.config import FuseConfig
from repro.fuse.ids import FuseId
from repro.fuse.service import FuseService

__all__ = [
    "FuseConfig",
    "FuseGroup",
    "FuseId",
    "FuseService",
    "GroupLedger",
    "GroupStatus",
    "NotificationReason",
]
