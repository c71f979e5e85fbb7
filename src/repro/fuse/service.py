"""The FUSE service: one instance per node.

Protocol summary (paper §6):

* **Create** (§6.2): the root contacts every member directly and in
  parallel (GroupCreateRequest/Reply).  Each member concurrently routes an
  InstallChecking message toward the root through the overlay; every node
  on the path — member, delegates, root — installs per-(group, link)
  timers.  Creation succeeds only when every member replied within the
  creation timeout; otherwise every contacted member is sent a
  HardNotification so no state is orphaned.

* **Steady state** (§6.3): each overlay ping/ack carries a hash of the
  FUSE IDs the sender believes it monitors jointly with that neighbor.  A
  matching hash resets all the (group, neighbor) timers; a mismatch makes
  both sides exchange their id lists and drop — after a grace period —
  the checking trees they disagree on.  The shared ids per neighbor are
  an index kept at every site that adds or drops a checking link; the
  overlay watches its keys, so a ping on a link with no shared group on
  either side calls no FUSE code.

* **Notifications** (§6.4): liveness-tree breaks raise SoftNotifications,
  which spread through the tree, tear down delegate state, and trigger
  repair — they never reach the application.  Explicit signals, create or
  repair failures, and repair encountering a forgotten group raise
  HardNotifications, which invoke the application handler exactly once.

* **Repair** (§6.5): members ask the root to repair (NeedRepair) and give
  up after the member repair timeout; the root re-runs the create-style
  exchange (GroupRepairRequest/Reply) with an incremented sequence number
  and per-group exponential backoff capped at 40 s.  Any member that lost
  its group state fails the repair, converting it into a HardNotification
  for everyone.
"""

from __future__ import annotations

import copy
import hashlib
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.fuse.api import GroupLedger
from repro.fuse.config import FuseConfig
from repro.fuse.core import FuseCore
from repro.fuse.ids import FuseId
from repro.fuse.messages import (
    FuseLinkList,
    GroupCreateReply,
    GroupRepairReply,
    GroupRepairRequest,
    HardNotification,
    InstallChecking,
    NeedRepair,
    SoftNotification,
)
from repro.fuse.state import GroupState
from repro.net.address import NodeId
from repro.net.message import Message
from repro.overlay.skipnet.messages import RouteEnvelope
from repro.overlay.skipnet.node import OverlayNode

_EMPTY_HASH = hashlib.sha1(b"").hexdigest()


class _SharedLink:
    """The groups whose checking tree uses one neighbor link: their fuse
    ids as a sorted tuple, and the ping payload (its sha1), built on first
    use.  A link change replaces ``ids`` (never mutates it), so a caller
    may iterate it while links come and go.  A tuple, not a set: most
    links carry one group, and a set per entry cost 1.3 MB on
    ``fault_storm_400``."""

    __slots__ = ("ids", "payload")

    def __init__(self, ids: Tuple[FuseId, ...]) -> None:
        self.ids = ids
        self.payload: Optional[dict] = None

    def ping_payload(self) -> dict:
        if self.payload is None:
            digest = hashlib.sha1("|".join(self.ids).encode()).hexdigest()
            self.payload = {"fuse": {"hash": digest}}
        return self.payload


class FuseService(FuseCore):
    """FUSE API and protocol engine attached to one overlay node: the
    shared group lifecycle plus liveness trees over overlay routes."""

    __slots__ = (
        "overlay",
        "_last_list_sent",
        "_liveness_timeout",
        "_stable_store",
        "_shared",
    )

    def __init__(
        self,
        overlay_node: OverlayNode,
        config: Optional[FuseConfig] = None,
        ledger: Optional[GroupLedger] = None,
    ) -> None:
        super().__init__(overlay_node.host, config, ledger)
        self.overlay = overlay_node
        self._last_list_sent: Dict[NodeId, float] = {}
        # neighbor -> the groups whose ``links`` hold it; an entry exists
        # only while some group uses the link (_index_link/_unindex_link).
        self._shared: Dict[NodeId, _SharedLink] = {}
        # A (group, link) is declared failed after the overlay's ping
        # period + ping timeout of silence (the paper's 20-80 s window).
        self._liveness_timeout = overlay_node.config.liveness_silence_ms

        # §3.6 stable storage: survives crashes (it models a disk file).
        # Maps fuse_id -> minimal recovery record.
        self._stable_store: Dict[FuseId, dict] = {}

        host = self.host
        host.on_crash(self._on_host_crash)
        host.on_recover(self._on_host_recover)
        host.register_handler(InstallChecking, self._on_install_delivered)
        host.register_handler(SoftNotification, self._on_soft_notification)
        host.register_handler(NeedRepair, self._on_need_repair)
        host.register_handler(GroupRepairRequest, self._on_repair_request)
        host.register_handler(FuseLinkList, self._on_link_list)

        overlay_node.register_payload_provider(self._payload_for, self._shared)
        overlay_node.register_ping_listener(self._on_ping_evidence, self._shared)
        overlay_node.register_failure_listener(self._on_neighbor_failure)
        overlay_node.register_upcall(self._on_route_upcall)

    def _on_host_crash(self) -> None:
        """Fail-stop crash: all volatile FUSE state vanishes (§3.6).  The
        surviving peers discover the loss via liveness timers and list
        reconciliation; repairs hitting this node after recovery find no
        state and harden into notifications."""
        self.groups.clear()
        self._last_list_sent.clear()
        self._shared.clear()

    def _on_host_recover(self) -> None:
        """§3.6 alternative: with stable storage enabled, a recovering
        node assumes its member/root groups are still alive and
        re-installs checking state.  The active comparison of live FUSE
        IDs (and repair hitting any group that actually failed meanwhile)
        reconciles it with the rest of the world."""
        if not self.config.stable_storage:
            return
        for fuse_id, record in sorted(self._stable_store.items()):
            if fuse_id in self.groups or fuse_id in self.notifications:
                continue
            state = GroupState(
                fuse_id,
                root_name=record["root_name"],
                root_id=record["root_id"],
                created_at=self.sim.now,
                is_root=record["is_root"],
                is_member=record["is_member"],
            )
            state.seq = record["seq"]
            state.member_ids = list(record["member_ids"])
            state.member_names = list(record["member_names"])
            self.groups[fuse_id] = state
            if state.is_root:
                # Rebuild the whole checking tree via a repair round.
                state.pending_installs = set(state.member_names)
                self._attempt_repair(state, "stable-storage-recovery")
            else:
                self._arm_bootstrap_timer(state)
                self.sim.schedule_soon(lambda s=state: self._route_install_checking(s))

    def _persist(self, state: GroupState) -> None:
        """Write the group's recovery record to "disk" (no-op unless the
        §3.6 stable-storage option is on)."""
        if not self.config.stable_storage:
            return
        if not (state.is_member or state.is_root):
            return  # delegates never persist; they are rebuilt by repair
        self._stable_store[state.fuse_id] = {
            "root_name": state.root_name,
            "root_id": state.root_id,
            "is_root": state.is_root,
            "is_member": state.is_member,
            "seq": state.seq,
            "member_ids": list(state.member_ids),
            "member_names": list(state.member_names),
        }

    def _unpersist(self, fuse_id: FuseId) -> None:
        self._stable_store.pop(fuse_id, None)

    # ------------------------------------------------------------------
    # Group creation (the blocking fan-out lives in FuseCore)
    # ------------------------------------------------------------------
    def _new_root_state(
        self, fuse_id: FuseId, member_ids: List[NodeId], member_names: List[str]
    ) -> GroupState:
        state = GroupState(
            fuse_id,
            root_name=self.name,
            root_id=self.host.node_id,
            created_at=self.sim.now,
            is_root=True,
            is_member=True,
        )
        state.member_ids = member_ids
        state.member_names = member_names
        state.pending_installs = set(member_names)
        return state

    def _create_contacts(self, state: GroupState) -> List[NodeId]:
        return state.member_ids

    def _created(self, state: GroupState) -> None:
        self._persist(state)
        self._arm_install_timer(state)

    def _abandon(self, state: GroupState) -> None:
        self._soft_notify_links(state, exclude=None)
        self._remove_state(state)

    def _on_create_request(self, message: Message) -> None:
        request = message
        root_id = request.sender
        existing = self.groups.get(request.fuse_id)
        if existing is not None:
            # Another member's InstallChecking can race ahead of our own
            # create request, leaving delegate-only state here.  Upgrade
            # it to member state — otherwise a later repair would find
            # "no membership" and wrongly harden (§6.5).
            if not existing.is_member:
                existing.is_member = True
                existing.root_name = request.root_name
                if root_id is not None:
                    existing.root_id = root_id
                self._persist(existing)
                self._arm_bootstrap_timer(existing)
                self._route_install_checking(existing)
            self.host.respond(request, GroupCreateReply(request.fuse_id, ok=True))
            return
        state = GroupState(
            request.fuse_id,
            root_name=request.root_name,
            root_id=root_id,
            created_at=self.sim.now,
            is_member=True,
        )
        self.groups[request.fuse_id] = state
        self._persist(state)
        self._arm_bootstrap_timer(state)
        self.host.respond(request, GroupCreateReply(request.fuse_id, ok=True))
        self._route_install_checking(state)

    def _route_install_checking(self, state: GroupState) -> None:
        if not self.overlay.joined:
            return  # bootstrap timer will catch the dead overlay
        self.overlay.route(
            state.root_name,
            InstallChecking(state.fuse_id, state.seq, self.name, state.root_name),
        )

    def _arm_bootstrap_timer(self, state: GroupState) -> None:
        if state.bootstrap_timer is not None and state.bootstrap_timer.reschedule_after(
            self._liveness_timeout
        ):
            return
        # The handle lives on ``state``, so its callback (like those of the
        # three other state timers) must not hold ``state``: a crash drops
        # the state uncancelled, and the pair would be a reference cycle.
        state.bootstrap_timer = self.host.call_after(
            self._liveness_timeout,
            lambda fuse_id=state.fuse_id: self._on_bootstrap_timeout(fuse_id),
            label=f"{self.name}:fuse-bootstrap",
        )

    def _on_bootstrap_timeout(self, fuse_id: FuseId) -> None:
        """No liveness links ever materialized for a member's group."""
        state = self.groups.get(fuse_id)
        if state is None or state.links:
            return
        self._local_tree_failure(state, "no-checking-installed")

    def _arm_install_timer(self, state: GroupState) -> None:
        if state.install_timer is not None:
            state.install_timer.cancel()
        if not state.pending_installs:
            state.install_timer = None
            return
        state.install_timer = self.host.call_after(
            self.config.install_timeout_ms,
            lambda fuse_id=state.fuse_id: self._on_install_timeout(fuse_id),
            label=f"{self.name}:fuse-install",
        )

    def _on_install_timeout(self, fuse_id: FuseId) -> None:
        state = self.groups.get(fuse_id)
        if state is None or not state.is_root or not state.pending_installs:
            return
        self._attempt_repair(state, "install-timeout")

    # ------------------------------------------------------------------
    # InstallChecking handling (upcalls on every hop + root terminal)
    # ------------------------------------------------------------------
    def _on_route_upcall(
        self,
        envelope: RouteEnvelope,
        prev_hop: Optional[NodeId],
        next_hop: Optional[NodeId],
        delivered: bool,
    ) -> None:
        payload = envelope.payload
        if not isinstance(payload, InstallChecking):
            return
        state = self.groups.get(payload.fuse_id)
        if state is not None and payload.seq < state.seq:
            return  # stale install from before a repair
        if state is None:
            if delivered:
                return  # terminal node with no state: nothing to install
            root_id = self.overlay.overlay.resolve(payload.root_name)
            if root_id is None:
                return
            state = GroupState(
                payload.fuse_id,
                root_name=payload.root_name,
                root_id=root_id,
                created_at=self.sim.now,
            )
            self.groups[payload.fuse_id] = state
        state.seq = payload.seq
        for hop in (prev_hop, next_hop):
            if hop is not None and hop != self.host.node_id:
                self._ensure_link(state, hop)
        if state.bootstrap_timer is not None and state.links:
            state.bootstrap_timer.cancel()
            state.bootstrap_timer = None

    def _on_install_delivered(self, message: Message) -> None:
        """Terminal delivery of an InstallChecking envelope."""
        install = message
        state = self.groups.get(install.fuse_id)
        if state is None or not state.is_root or install.root_name != self.name:
            # Delivered somewhere other than the intended root (the root
            # departed, or overlay routing is in flux).  The originating
            # member's timers will drive recovery; nothing to do here.
            return
        if install.seq < state.seq:
            return
        state.pending_installs.discard(install.member_name)
        if not state.pending_installs:
            if state.install_timer is not None:
                state.install_timer.cancel()
                state.install_timer = None
            state.repair_backoff_ms = 0.0  # tree fully healthy again

    # ------------------------------------------------------------------
    # Liveness links and piggybacked hashes
    # ------------------------------------------------------------------
    def _ensure_link(self, state: GroupState, neighbor: NodeId) -> None:
        # Resetting a live timer in place reuses its callback closure and
        # handle; this runs once per shared group per ping/ack, so it is
        # the hottest timer path in steady state.  Safe because group
        # state never survives a crash, so the closure's incarnation
        # guard always matches the current incarnation.
        existing = state.links.get(neighbor)
        if existing is not None and existing.reschedule_after(self._liveness_timeout):
            return
        state.links[neighbor] = self._make_link_timer(state.fuse_id, neighbor)
        if existing is None:
            self._index_link(neighbor, state.fuse_id)

    def _make_link_timer(self, fuse_id: FuseId, neighbor: NodeId):
        return self.host.call_after(
            self._liveness_timeout,
            lambda: self._on_link_timeout(fuse_id, neighbor),
            label=f"{self.name}:fuse-link",
        )

    def _index_link(self, neighbor: NodeId, fuse_id: FuseId) -> None:
        shared = self._shared.get(neighbor)
        if shared is None:
            self._shared[neighbor] = _SharedLink((fuse_id,))
            return
        ids = shared.ids
        at = bisect_left(ids, fuse_id)
        shared.ids = ids[:at] + (fuse_id,) + ids[at:]
        shared.payload = None

    def _unindex_link(self, neighbor: NodeId, fuse_id: FuseId) -> None:
        shared = self._shared[neighbor]
        ids = shared.ids
        if ids == (fuse_id,):
            del self._shared[neighbor]
            return
        at = ids.index(fuse_id)
        shared.ids = ids[:at] + ids[at + 1 :]
        shared.payload = None

    def _drop_link(self, state: GroupState, neighbor: NodeId) -> None:
        timer = state.links.pop(neighbor, None)
        if timer is not None:
            timer.cancel()
            self._unindex_link(neighbor, state.fuse_id)

    def _payload_for(self, neighbor: NodeId) -> Optional[dict]:
        shared = self._shared.get(neighbor)
        if shared is None:
            return None
        return shared.payload or shared.ping_payload()

    def _on_ping_evidence(self, neighbor: NodeId, payload: dict, _is_ack: bool) -> None:
        fuse_part = payload.get("fuse")
        theirs = _EMPTY_HASH if fuse_part is None else fuse_part.get("hash", _EMPTY_HASH)
        shared = self._shared.get(neighbor)
        if shared is None:
            if theirs == _EMPTY_HASH:
                return  # empty on both sides: trivially in agreement
            mine_ids: Tuple[FuseId, ...] = ()
        else:
            mine_ids = shared.ids
            if (shared.payload or shared.ping_payload())["fuse"]["hash"] == theirs:
                # Agreement: this link is alive for every shared group.
                groups = self.groups
                for fuse_id in mine_ids:
                    self._ensure_link(groups[fuse_id], neighbor)
                return
        # Disagreement: reconcile by exchanging id lists (§6.3), at most
        # once per link per half ping period to bound chatter.
        last = self._last_list_sent.get(neighbor, -1e18)
        if self.sim.now - last < self.overlay.config.ping_period_ms / 2.0:
            return
        self._last_list_sent[neighbor] = self.sim.now
        listing = {
            fuse_id: self.groups[fuse_id].seq for fuse_id in mine_ids
        }
        self.host.send(neighbor, FuseLinkList(listing))

    def _on_link_list(self, message: Message) -> None:
        peer = message.sender
        if peer is None:
            return
        shared = self._shared.get(peer)
        if shared is None:
            return
        peer_groups: Dict[FuseId, int] = message.groups
        for fuse_id in shared.ids:
            state = self.groups[fuse_id]
            if fuse_id in peer_groups:
                state.seq = max(state.seq, peer_groups[fuse_id])
                self._ensure_link(state, peer)
            else:
                # The neighbor disclaims this group on our shared link.
                if self._in_grace(state):
                    continue  # install/ping race (§6.3): give it time
                self._drop_link(state, peer)
                self._local_tree_failure(state, "reconcile-disagreement")
        # Groups the peer has but we do not: the peer's own reconciliation
        # (triggered by our hash) removes them on its side; replying with
        # our list here would only double the chatter.

    def _on_link_timeout(self, fuse_id: FuseId, neighbor: NodeId) -> None:
        state = self.groups.get(fuse_id)
        if state is None:
            return
        self._drop_link(state, neighbor)
        self.sim.metrics.counter("fuse.link_timeouts").increment()
        self._local_tree_failure(state, "link-timeout")

    def _on_neighbor_failure(self, neighbor: NodeId, reason: str) -> None:
        """Overlay declared a neighbor unresponsive: every group sharing a
        checking link with it just lost that link.  The groups are visited
        in ``self.groups`` order, which fixes the SoftNotification order."""
        shared = self._shared.get(neighbor)
        if shared is None:
            return
        fuse_ids = set(shared.ids)
        affected = [state for fuse_id, state in self.groups.items() if fuse_id in fuse_ids]
        for state in affected:
            self._drop_link(state, neighbor)
            self._local_tree_failure(state, f"overlay-{reason}")

    # ------------------------------------------------------------------
    # Soft notifications and local tree teardown
    # ------------------------------------------------------------------
    def _soft_notify_links(self, state: GroupState, exclude: Optional[NodeId]) -> None:
        for neighbor in sorted(state.links):
            if neighbor == exclude:
                continue
            self.sim.metrics.counter("fuse.soft_notifications").increment()
            self.host.send(neighbor, SoftNotification(state.fuse_id, state.seq))

    def _clear_links(self, state: GroupState) -> None:
        for neighbor, timer in state.links.items():
            timer.cancel()
            self._unindex_link(neighbor, state.fuse_id)
        state.links.clear()

    def _local_tree_failure(self, state: GroupState, reason: str, exclude: Optional[NodeId] = None) -> None:
        """This node's view of the group's checking tree is broken (§6.3):
        spread SoftNotifications, drop delegate state, and — if we are a
        member or the root — start repair."""
        if state.fuse_id not in self.groups:
            return
        if not self.config.repair_enabled and (state.is_member or state.is_root):
            # Ablation: no repair; convert any tree break into group failure.
            if state.is_root:
                self._hard_fail(state, f"no-repair:{reason}")
            else:
                self._send_control(
                    state.root_id, HardNotification(state.fuse_id, f"no-repair:{reason}")
                )
                self._soft_notify_links(state, exclude)
                self._fail_group(state, f"no-repair:{reason}")
            return
        self._soft_notify_links(state, exclude)
        self._clear_links(state)
        if state.is_root:
            self._attempt_repair(state, reason)
        elif state.is_member:
            self._member_request_repair(state)
        else:
            self._remove_state(state)

    def _on_soft_notification(self, message: Message) -> None:
        soft = message
        state = self.groups.get(soft.fuse_id)
        if state is None:
            return
        if soft.seq < state.seq:
            return  # stale notification from a pre-repair tree (§6.4)
        state.seq = max(state.seq, soft.seq)
        self._local_tree_failure(state, "soft-notification", exclude=soft.sender)

    # ------------------------------------------------------------------
    # Repair (§6.5)
    # ------------------------------------------------------------------
    def _member_request_repair(self, state: GroupState) -> None:
        if state.need_repair_timer is not None and state.need_repair_timer.active:
            return  # repair request already outstanding
        self._send_control(state.root_id, NeedRepair(state.fuse_id, state.seq))
        state.need_repair_timer = self.host.call_after(
            self.config.member_repair_timeout_ms,
            lambda fuse_id=state.fuse_id: self._on_member_repair_timeout(fuse_id),
            label=f"{self.name}:fuse-needrepair",
        )

    def _on_member_repair_timeout(self, fuse_id: FuseId) -> None:
        state = self.groups.get(fuse_id)
        if state is None:
            return
        # Never heard back from the root: give up and notify (§6.5).
        self._hard_fail(state, "member-repair-timeout")

    def _on_need_repair(self, message: Message) -> None:
        need = message
        state = self.groups.get(need.fuse_id)
        if state is None or not state.is_root:
            # The group no longer exists here: whoever asked must hear a
            # hard failure, or their state would dangle until timeout.
            if need.sender is not None:
                self.host.send(need.sender, HardNotification(need.fuse_id, "group-gone"))
            return
        if state.pending_create is not None:
            return  # creation still in flight; its own machinery decides
        self._attempt_repair(state, "need-repair")

    def _attempt_repair(self, state: GroupState, reason: str) -> None:
        if not state.is_root or state.fuse_id not in self.groups:
            return
        if not self.config.repair_enabled:
            self._hard_fail(state, f"no-repair:{reason}")
            return
        if state.repair_in_progress:
            return
        if state.repair_scheduled is not None and state.repair_scheduled.active:
            return
        delay = state.repair_backoff_ms
        state.repair_backoff_ms = min(
            self.config.repair_backoff_cap_ms,
            max(self.config.repair_backoff_initial_ms, state.repair_backoff_ms * 2.0),
        )
        state.repair_scheduled = self.host.call_after(
            delay,
            lambda fuse_id=state.fuse_id: self._do_repair(fuse_id),
            label=f"{self.name}:fuse-repair",
        )

    def _do_repair(self, fuse_id: FuseId) -> None:
        state = self.groups.get(fuse_id)
        if state is None or not state.is_root:
            return
        state.repair_scheduled = None
        state.repair_in_progress = True
        state.seq += 1
        state.pending_installs = set(state.member_names)
        self._persist(state)
        self.sim.metrics.counter("fuse.repairs_started").increment()
        if not state.member_ids:
            state.repair_in_progress = False
            return
        outcome = {"failed": False, "awaiting": set(state.member_ids)}
        for member in state.member_ids:
            self._repair_rpc(state, member, outcome)
        # Root's own stake in the new tree: wait for installs again.
        self._arm_install_timer(state)

    def _repair_rpc(self, state: GroupState, member: NodeId, outcome: dict) -> None:
        request = GroupRepairRequest(state.fuse_id, state.seq, self.name)

        def on_reply(reply) -> None:
            if outcome["failed"] or state.fuse_id not in self.groups:
                return
            if not getattr(reply, "known", False):
                outcome["failed"] = True
                self._hard_fail(state, f"repair-unknown-at-{member}")
                return
            outcome["awaiting"].discard(member)
            if not outcome["awaiting"]:
                state.repair_in_progress = False
                self.sim.metrics.counter("fuse.repairs_succeeded").increment()

        def on_failure(why: str) -> None:
            if outcome["failed"] or state.fuse_id not in self.groups:
                return
            outcome["failed"] = True
            self._hard_fail(state, f"repair-{why}-at-{member}")

        self.host.rpc(member, request, self.config.root_repair_timeout_ms, on_reply, on_failure)

    def _on_repair_request(self, message: Message) -> None:
        request = message
        state = self.groups.get(request.fuse_id)
        if state is None or not state.is_member:
            self.host.respond(request, GroupRepairReply(request.fuse_id, known=False))
            return
        state.seq = max(state.seq, request.seq)
        if state.need_repair_timer is not None:
            state.need_repair_timer.cancel()
            state.need_repair_timer = None
        # Fresh tree: drop the old links (their delegates reconcile away)
        # and install checking along the current overlay route.
        self._clear_links(state)
        self._persist(state)
        self.host.respond(request, GroupRepairReply(request.fuse_id, known=True))
        self._arm_bootstrap_timer(state)
        self._route_install_checking(state)

    # ------------------------------------------------------------------
    # Hard notifications and group teardown
    # ------------------------------------------------------------------
    def _spread_failure(self, state: GroupState, reason: str, sender: Optional[NodeId]) -> None:
        """The root fans the HardNotification out to every other member; a
        node that detected or signalled the failure itself tells the root.
        Either way the checking tree is cleaned (§6.4)."""
        if state.is_root:
            for member in state.member_ids:
                if member == sender:
                    continue
                self._send_control(member, HardNotification(state.fuse_id, reason))
        elif sender is None:
            self._send_control(state.root_id, HardNotification(state.fuse_id, reason))
        self._soft_notify_links(state, exclude=None)

    def _teardown(self, state: GroupState) -> None:
        self._clear_links(state)
        state.cancel_all_timers()
        self._unpersist(state.fuse_id)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send_control(self, dst_id: NodeId, msg: Message) -> None:
        """Root<->member control traffic travels directly between root and
        members, not along overlay routes (§6 intro)."""
        if dst_id == self.host.node_id:
            self.sim.schedule_soon(lambda: self.host.deliver(self._stamp_self(msg)))
            return
        self.host.send(dst_id, msg)

    def _stamp_self(self, msg: Message):
        stamped = copy.copy(msg)
        stamped.sender = self.host.node_id
        return stamped

    def _name_of(self, node_id: NodeId) -> str:
        return self.overlay.overlay.name_of(node_id) or super()._name_of(node_id)

    def __repr__(self) -> str:
        return f"FuseService({self.name}, groups={len(self.groups)})"
