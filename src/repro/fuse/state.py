"""Per-node FUSE group state.

A node can simultaneously be the *root* of a group, a *member*, and a
*delegate* (a non-member on the liveness-checking tree).  All three roles
share the same record; role flags and role-specific fields distinguish
them.  Keeping one record per (node, group) makes teardown atomic: when a
group fails at a node, everything about it disappears together — which is
exactly the paper's "FUSE state is never orphaned" property.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.net.address import NodeId
from repro.fuse.ids import FuseId
from repro.sim.events import TimerHandle

FailureHandler = Callable[[FuseId], None]


class GroupState:
    """Everything one node knows about one live FUSE group."""

    __slots__ = (
        "fuse_id",
        "seq",
        "root_name",
        "root_id",
        "is_root",
        "is_member",
        "created_at",
        "links",
        "handler",
        "member_ids",
        "member_names",
        "pending_installs",
        "install_timer",
        "bootstrap_timer",
        "need_repair_timer",
        "repair_in_progress",
        "repair_backoff_ms",
        "repair_scheduled",
        "pending_create",
    )

    def __init__(
        self,
        fuse_id: FuseId,
        root_name: str,
        root_id: NodeId,
        created_at: float,
        is_root: bool = False,
        is_member: bool = False,
    ) -> None:
        self.fuse_id = fuse_id
        self.seq = 0
        self.root_name = root_name
        self.root_id = root_id
        self.is_root = is_root
        self.is_member = is_member
        self.created_at = created_at

        # Liveness-checking links: neighbor host -> silence timer.
        self.links: Dict[NodeId, TimerHandle] = {}

        # Application callback (members and root).
        self.handler: Optional[FailureHandler] = None

        # Root-only fields.
        self.member_ids: List[NodeId] = []
        self.member_names: List[str] = []
        self.pending_installs: Set[str] = set()
        self.install_timer: Optional[TimerHandle] = None
        self.repair_in_progress: bool = False
        self.repair_backoff_ms: float = 0.0
        self.repair_scheduled: Optional[TimerHandle] = None
        self.pending_create = None  # contacts yet to reply during blocking create

        # Member-only fields.
        self.bootstrap_timer: Optional[TimerHandle] = None
        self.need_repair_timer: Optional[TimerHandle] = None

    @property
    def is_delegate_only(self) -> bool:
        return not self.is_root and not self.is_member

    def cancel_all_timers(self) -> None:
        for timer in self.links.values():
            timer.cancel()
        self.links.clear()
        for timer in (
            self.install_timer,
            self.bootstrap_timer,
            self.need_repair_timer,
            self.repair_scheduled,
        ):
            if timer is not None:
                timer.cancel()
        self.install_timer = None
        self.bootstrap_timer = None
        self.need_repair_timer = None
        self.repair_scheduled = None

    def __repr__(self) -> str:
        roles = []
        if self.is_root:
            roles.append("root")
        if self.is_member:
            roles.append("member")
        if not roles:
            roles.append("delegate")
        return (
            f"GroupState({self.fuse_id}, seq={self.seq}, roles={'/'.join(roles)}, "
            f"links={sorted(self.links)})"
        )
