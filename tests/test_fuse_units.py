"""Unit tests for FUSE building blocks: config, state records, messages,
and the trace log."""

import pytest

from repro.fuse.config import FuseConfig
from repro.fuse.messages import (
    FuseLinkList,
    GroupCreateReply,
    GroupCreateRequest,
    GroupRepairReply,
    GroupRepairRequest,
    HardNotification,
    InstallChecking,
    NeedRepair,
    SoftNotification,
)
from repro.fuse.state import GroupState
from repro.sim import Simulator
from repro.sim.trace import TraceLog
from repro.world import FuseWorld


class TestFuseConfig:
    def test_defaults_match_paper_constants(self):
        cfg = FuseConfig()
        assert cfg.grace_period_ms == 5_000.0          # §6.3
        assert cfg.repair_backoff_cap_ms == 40_000.0   # §6.5
        assert cfg.member_repair_timeout_ms == 60_000.0   # §7.4
        assert cfg.root_repair_timeout_ms == 120_000.0    # §7.4
        assert cfg.repair_enabled and cfg.blocking_create

    def test_validation(self):
        with pytest.raises(ValueError):
            FuseConfig(repair_backoff_initial_ms=0)
        with pytest.raises(ValueError):
            FuseConfig(repair_backoff_initial_ms=100, repair_backoff_cap_ms=50)
        with pytest.raises(ValueError):
            FuseConfig(grace_period_ms=-1)

    def test_liveness_timeout_derivation(self):
        """A service's link timeout is the overlay's ping period + ping
        timeout (the paper's 20-80 s detection window)."""
        world = FuseWorld(n_nodes=4, seed=1)
        overlay = world.overlay.config
        assert overlay.liveness_silence_ms == overlay.ping_period_ms + overlay.ping_timeout_ms
        for node in world.node_ids:
            assert world.fuse(node)._liveness_timeout == overlay.liveness_silence_ms


class TestGroupState:
    def make_state(self, **kwargs):
        return GroupState("fid", root_name="r", root_id=0, created_at=0.0, **kwargs)

    def test_role_flags(self):
        assert self.make_state().is_delegate_only
        assert not self.make_state(is_member=True).is_delegate_only
        assert not self.make_state(is_root=True).is_delegate_only

    def test_cancel_all_timers(self):
        sim = Simulator()
        state = self.make_state()
        fired = []
        state.links[1] = sim.call_at(10.0, lambda: fired.append("link"))
        state.install_timer = sim.call_at(20.0, lambda: fired.append("install"))
        state.bootstrap_timer = sim.call_at(30.0, lambda: fired.append("boot"))
        state.need_repair_timer = sim.call_at(40.0, lambda: fired.append("nr"))
        state.cancel_all_timers()
        sim.run()
        assert fired == []
        assert state.links == {}

    def test_repr_shows_roles(self):
        assert "root" in repr(self.make_state(is_root=True))
        assert "delegate" in repr(self.make_state())


class TestMessageShapes:
    def test_create_request_fields(self):
        msg = GroupCreateRequest("fid", "root", ["root", "m1"])
        assert msg.fuse_id == "fid"
        assert msg.member_names == ("root", "m1")
        assert msg.rpc_id == -1  # unassigned until sent

    def test_replies_carry_flags(self):
        assert GroupCreateReply("f", ok=False).ok is False
        assert GroupRepairReply("f", known=False).known is False

    def test_install_checking_carries_seq(self):
        msg = InstallChecking("fid", 3, "member", "root")
        assert msg.seq == 3

    def test_notification_reasons(self):
        assert HardNotification("f", "signaled").reason == "signaled"
        assert SoftNotification("f", 2).seq == 2
        assert NeedRepair("f", 1).fuse_id == "f"

    def test_link_list_copies_input(self):
        groups = {"a": 1}
        msg = FuseLinkList(groups)
        groups["b"] = 2
        assert msg.groups == {"a": 1}

    def test_sizes_are_modest(self):
        """Control messages stay small — the paper's 'lightweight' claim
        rests on pings carrying only a 20-byte hash."""
        for cls_instance in [
            SoftNotification("f", 0),
            HardNotification("f", "x"),
            NeedRepair("f", 0),
        ]:
            assert cls_instance.size_bytes <= 256


class TestTraceLog:
    def test_records_and_filters(self):
        sim = Simulator()
        log = TraceLog(sim.clock)
        log.record("net", "sent ping", dst=3)
        log.record("fuse", "group created")
        assert len(log) == 2
        assert len(log.filter(category="net")) == 1
        assert len(log.filter(contains="group")) == 1

    def test_capacity_drops_oldest(self):
        sim = Simulator()
        log = TraceLog(sim.clock, capacity=10)
        for i in range(25):
            log.record("x", f"event {i}")
        assert len(log) <= 11
        messages = [rec.message for rec in log]
        assert "event 24" in messages
        assert "event 0" not in messages

    def test_dump_tail(self):
        sim = Simulator()
        log = TraceLog(sim.clock)
        for i in range(5):
            log.record("x", f"event {i}")
        dump = log.dump(limit=2)
        assert "event 4" in dump
        assert "event 0" not in dump
