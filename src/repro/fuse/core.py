"""The FUSE group lifecycle that every implementation shares.

Whatever monitors a group's liveness — :class:`~repro.fuse.service.FuseService`'s
trees over the overlay, or one of the §5.1 direct-link topologies in
:mod:`repro.fuse.topologies` — a group is created, signalled and failed
the same way:

* ``create_group`` mints the fuse id, returns the
  :class:`~repro.fuse.api.FuseGroup` handle wired to the ledger, and
  contacts every node that must hold the group with a direct, blocking
  RPC (§3.2).  If any contact fails, every contacted node is sent a
  HardNotification so no state is orphaned (§6.2).
* ``register_failure_handler``, ``signal_failure`` and ``live_group_ids``
  are the rest of the paper's Fig 1 API.
* ``_fail_group`` invokes the application handler exactly once and files
  the node's ledger row; absent state is what makes every later
  notification a no-op (§3).

A monitor subclass supplies the group record and its hooks: how the
root's record is built (``_new_root_state``), whom the create contacts
(``_create_contacts``), how a contacted node installs the group
(``_on_create_request``), what a completed create arms (``_created``),
and whom a failure is spread to (``_spread_failure``).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Set

from repro.fuse.api import FuseGroup, GroupLedger
from repro.fuse.config import FuseConfig
from repro.fuse.ids import FuseId, make_fuse_id
from repro.fuse.messages import GroupCreateRequest, HardNotification
from repro.fuse.state import FailureHandler
from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import Host


class FuseCore:
    """Create, signal and fail FUSE groups on one host.

    Group records (``groups`` values) carry at least ``fuse_id``,
    ``created_at``, ``is_root``, ``is_member``, ``handler`` and
    ``pending_create``.
    """

    __slots__ = (
        "host",
        "sim",
        "config",
        "ledger",
        "groups",
        "notifications",
        "_fuse_id_serial",
    )

    def __init__(
        self,
        host: Host,
        config: Optional[FuseConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        self.host = host
        self.sim = host.network.sim
        self.config = config or FuseConfig()
        # The notification ledger — shared deployment-wide when the world
        # or experiment passes one in, private otherwise.  All group
        # lifecycle accounting (creates, per-member notifications, handle
        # dispatch) goes through it; see repro.fuse.api.
        self.ledger = ledger if ledger is not None else GroupLedger(
            self.sim, host.network.faults
        )
        self.groups: dict = {}
        self.notifications: dict = {}
        # Per-creator serial: fuse ids are a pure function of the world's
        # seed (no process-global state), which the trial engine's
        # serial-vs-parallel determinism guarantee depends on.
        self._fuse_id_serial = itertools.count(1)
        host.register_handler(GroupCreateRequest, self._on_create_request)
        host.register_handler(HardNotification, self._on_hard_notification)

    # ------------------------------------------------------------------
    # Public API (Fig 1 of the paper)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.host.name

    def create_group(self, members: Sequence[NodeId]) -> FuseGroup:
        """CreateGroup: build a group of this node (the root) plus ``members``.

        Returns a :class:`~repro.fuse.api.FuseGroup` handle carrying the
        assigned FUSE ID and lifecycle subscriptions: ``on_live`` fires
        once every member has been contacted (blocking-create semantics,
        §3.2); on failure the handle moves to ``failed_create``,
        ``on_notified`` fires, and all contacted members are notified so
        no state is orphaned (§6.2).  Every attempt and outcome is also
        recorded on :attr:`ledger`.
        """
        member_ids = [m for m in dict.fromkeys(members) if m != self.host.node_id]
        fuse_id = make_fuse_id(self.name, serial=next(self._fuse_id_serial))
        member_names = [self._name_of(m) for m in member_ids]
        state = self._new_root_state(fuse_id, member_ids, member_names)
        self.groups[fuse_id] = state
        self.sim.metrics.counter("fuse.create_attempts").increment()

        handle = FuseGroup(
            self, self.ledger, fuse_id, self.host.node_id, [self.host.node_id] + member_ids
        )
        self.ledger.record_create(fuse_id, self.host.node_id, handle.members)
        self.ledger.attach_handle(handle)

        contacts = self._create_contacts(state)
        if not contacts:
            self.sim.schedule_soon(lambda: self._complete_create(state))
            return handle

        # The nodes yet to reply; a failed create drops this set.
        awaiting = state.pending_create = set(contacts)
        request_names = [self.name] + member_names
        for node in contacts:
            self._create_rpc(state, awaiting, node, request_names)

        if not self.config.blocking_create:
            # Ablation: hand the ID back immediately; liveness checking
            # must catch unreachable members after the fact.  The ledger
            # keeps the first outcome, so the create's own is dropped.
            self.sim.schedule_soon(lambda: self.ledger.group_live(fuse_id))
        return handle

    def register_failure_handler(self, fuse_id: FuseId, handler: FailureHandler) -> None:
        """RegisterFailureHandler: invoke ``handler`` on group failure.

        If the group is unknown here — typically because it has already
        been signalled — the handler is invoked immediately (§3.2).
        """
        state = self.groups.get(fuse_id)
        if state is None:
            self.sim.schedule_soon(lambda: handler(fuse_id))
            return
        state.handler = handler

    def signal_failure(self, fuse_id: FuseId) -> None:
        """SignalFailure: the application declares the group failed."""
        state = self.groups.get(fuse_id)
        if state is None:
            return  # already failed; one notification per group, ever
        self.sim.metrics.counter("fuse.explicit_signals").increment()
        self._hard_fail(state, "signaled")

    def live_group_ids(self) -> List[FuseId]:
        return sorted(self.groups)

    # ------------------------------------------------------------------
    # Monitor hooks
    # ------------------------------------------------------------------
    def _new_root_state(self, fuse_id: FuseId, member_ids: List[NodeId], member_names: List[str]):
        """The root's record for a group it is creating."""
        raise NotImplementedError

    def _create_contacts(self, state) -> List[NodeId]:
        """Every node the blocking create must reach."""
        raise NotImplementedError

    def _created(self, state) -> None:
        """Every contact replied: arm whatever watches the new group."""

    def _spread_failure(self, state, reason: str, sender: Optional[NodeId]) -> None:
        """Send the notifications a failure at this node owes the group.
        ``sender`` is the node a HardNotification came from, or ``None``
        when this node detected or signalled the failure itself."""
        raise NotImplementedError

    def _teardown(self, state) -> None:
        """Release a dropped group's monitoring state (timers, links)."""

    def _name_of(self, node_id: NodeId) -> str:
        return self.host.network.host(node_id).name

    # ------------------------------------------------------------------
    # Group creation (§6.2)
    # ------------------------------------------------------------------
    def _create_rpc(
        self,
        state,
        awaiting: Set[NodeId],
        member: NodeId,
        request_names: List[str],
    ) -> None:
        request = GroupCreateRequest(state.fuse_id, self.name, request_names)

        def on_reply(reply) -> None:
            if state.pending_create is not awaiting or state.fuse_id not in self.groups:
                return
            if not getattr(reply, "ok", False):
                self._create_failed(state, f"member {member} refused")
                return
            awaiting.discard(member)
            if not awaiting:
                self._complete_create(state)

        def on_failure(why: str) -> None:
            if state.pending_create is not awaiting or state.fuse_id not in self.groups:
                return
            self._create_failed(state, f"member {member} unreachable ({why})")

        self.host.rpc(member, request, self.config.create_timeout_ms, on_reply, on_failure)

    def _complete_create(self, state) -> None:
        if state.fuse_id not in self.groups:
            return
        state.pending_create = None
        self.sim.metrics.counter("fuse.groups_created").increment()
        self._created(state)
        self.ledger.group_live(state.fuse_id)

    def _create_failed(self, state, reason: str) -> None:
        state.pending_create = None
        self.sim.metrics.counter("fuse.create_failures").increment()
        # Notify everyone who may have installed state; no orphans (§6.2).
        for node in self._create_contacts(state):
            self.host.send(node, HardNotification(state.fuse_id, f"create-failed: {reason}"))
        self._abandon(state)
        self.ledger.group_create_failed(state.fuse_id, reason)

    def _abandon(self, state) -> None:
        """Drop a group whose create failed; the root is not notified."""
        self._remove_state(state)

    # ------------------------------------------------------------------
    # Failure (§6.4)
    # ------------------------------------------------------------------
    def _in_grace(self, state) -> bool:
        """Is the group young enough that a peer may not have installed it
        yet?  A disclaimer then is the install/ping race, not a failure
        (§6.3)."""
        return self.sim.now - state.created_at <= self.config.grace_period_ms

    def _on_hard_notification(self, message: Message) -> None:
        state = self.groups.get(message.fuse_id)
        if state is None:
            return  # already failed here; exactly-once is preserved
        self._hard_fail(state, message.reason, message.sender)

    def _hard_fail(self, state, reason: str, sender: Optional[NodeId] = None) -> None:
        self._spread_failure(state, reason, sender)
        self._fail_group(state, reason)

    def _fail_group(self, state, reason: str) -> None:
        """Invoke the handler exactly once and drop every trace of the
        group.  Absence of state is what makes later notifications no-ops
        and RegisterFailureHandler fire immediately."""
        if self.groups.pop(state.fuse_id, None) is None:
            return
        self._teardown(state)
        self.notifications[state.fuse_id] = reason
        if state.is_member or state.is_root:
            self.sim.metrics.counter("fuse.hard_notifications").increment()
        handler = state.handler
        if handler is not None:
            handler(state.fuse_id)
        role = "root" if state.is_root else ("member" if state.is_member else "delegate")
        self.ledger.notified(state.fuse_id, self.host.node_id, role, reason)

    def _remove_state(self, state) -> None:
        """Silent teardown for delegate-only or never-completed state."""
        if self.groups.pop(state.fuse_id, None) is None:
            return
        self._teardown(state)
