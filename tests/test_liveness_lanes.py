"""Liveness-lane proofs: byte identity, ejection, mode resolution.

The lane plane (``repro.sim.lanes``) is a pure performance layer: with
lanes on or off, every observable — dispatch trace, counters,
notification times, scenario measurements — must be byte-identical.
These tests pin that contract:

* the golden dispatch trace matches the committed fixture with lanes
  *off* (the default-on path is covered by
  ``tests/test_hotpath_determinism.py``, against the same fixture, so
  the two modes are identical by transitivity);
* every builtin scenario reproduces its committed ``[expect]`` fixture
  with lanes off (lanes-on is covered by ``tests/test_api_identity.py``);
* a link fault ejects nobody until a connection breaks (the lost pings
  are retransmitted in the lane); a loss change (``Topology.generation``)
  flushes before the next lane step; a crash mid-window ejects the
  crashed node synchronously;
* the compressed flash-crowd bootstrap joins *every* node (the
  15,996/16,000 gap regression, fixed by the first-sweep floor).
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.scenarios import BUILTIN
from repro.sim.lanes import resolve_lanes_mode
from repro.world import FuseWorld

from golden_scenario import run_golden_scenario
from tests.make_api_fixtures import OUT_DIR, scenario_json

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_dispatch.json"

GOLDEN_KEYS = (
    "trace_records",
    "trace_sha256",
    "events_dispatched",
    "final_time_ms",
    "counters",
    "group_status",
    "notifications",
)


def _golden_fixture():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenTraceIdentity:
    """Lanes off reproduces the same golden dispatch trace as the
    committed (lanes-on-verified) fixture."""

    @pytest.mark.parametrize("mode", ["off"])
    def test_golden_trace_mode(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_LIVENESS_LANES", mode)
        want = _golden_fixture()
        got = run_golden_scenario(seed=want["seed"])
        for key in GOLDEN_KEYS:
            assert got[key] == want[key], f"{key} diverged with lanes={mode}"


class TestScenarioIdentityLanesOff:
    """All builtin scenarios match their committed fixtures with lanes
    off (test_api_identity covers the default lanes-on path)."""

    @pytest.mark.parametrize("name", sorted(BUILTIN))
    def test_builtin_scenario_lanes_off(self, name, monkeypatch):
        monkeypatch.setenv("REPRO_LIVENESS_LANES", "off")
        fixture = (OUT_DIR / f"scenario_{name}.json").read_text()
        assert scenario_json(name) == fixture


class TestFallbackParity:
    """The scalar path is the fallback: a world runs with lanes on or
    off, and no other mode exists.  The lane plane is pure Python, so
    numpy stays optional, gated exactly like scipy in net/routing.py."""

    def test_scenario_pure_python_backend(self):
        # A fresh interpreter where numpy and scipy cannot be imported:
        # the lanes-on steady scenario still matches its fixture.
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.modules['scipy'] = None\n"
            "from tests.make_api_fixtures import scenario_json\n"
            "sys.stdout.write(scenario_json('steady'))\n"
        )
        repo = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=f"{repo / 'src'}{os.pathsep}{repo}")
        env["REPRO_LIVENESS_LANES"] = "on"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            cwd=repo,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        fixture = (OUT_DIR / "scenario_steady.json").read_text()
        assert proc.stdout == fixture

    def test_mode_resolution(self, monkeypatch):
        assert resolve_lanes_mode(True) == "on"
        assert resolve_lanes_mode(False) == "off"
        assert resolve_lanes_mode("off") == "off"
        monkeypatch.setenv("REPRO_LIVENESS_LANES", "off")
        assert resolve_lanes_mode() == "off"
        monkeypatch.delenv("REPRO_LIVENESS_LANES")
        assert resolve_lanes_mode() == "on"
        for bogus in ("py", "numpy", "0", "ON", ""):
            with pytest.raises(ValueError):
                resolve_lanes_mode(bogus)
            monkeypatch.setenv("REPRO_LIVENESS_LANES", bogus)
            with pytest.raises(ValueError):
                resolve_lanes_mode()
            monkeypatch.delenv("REPRO_LIVENESS_LANES")

    def test_lanes_off_world_has_no_plane(self):
        world = FuseWorld(n_nodes=12, seed=3, liveness_lanes="off")
        assert world.sim.lane_plane is None
        assert world.overlay.lane_plane is None


def _laned_world(n=20, seed=5):
    """A settled world where every node has been absorbed into a lane."""
    world = FuseWorld(n_nodes=n, seed=seed, liveness_lanes=True)
    world.bootstrap()
    # Every first sweep fires within one ping period; the sweep absorbs.
    world.run_for_minutes(1.5)
    plane = world.sim.lane_plane
    assert plane is not None
    assert plane.lane_count == n, "every idle node should be laned"
    return world, plane


class TestLaneEjection:
    def test_link_fault_retries_in_lane_until_the_break(self):
        world, plane = _laned_world()
        twin = FuseWorld(n_nodes=20, seed=5, liveness_lanes=False)
        twin.bootstrap()
        twin.run_for_minutes(1.5)
        a = world.node_ids[0]
        b = min(world.overlay_node(a).neighbors())
        suspicions = {}
        for w in (world, twin):
            seen = suspicions[w] = []
            for node_id in (a, b):
                w.overlay_node(node_id).register_failure_listener(
                    lambda peer, reason, w=w, node_id=node_id, seen=seen: seen.append(
                        (w.now, node_id, peer, reason)
                    )
                )
            w.net.faults.block_pair(a, b)
        # The fault concerns nobody until a ping crosses the blocked pair,
        # and then it is retransmitted inside the lane: nobody is ejected
        # before max_retries is exhausted and the connection breaks.
        breaks = world.sim.metrics.counter("net.connection_breaks")
        before = breaks.value
        while breaks.value == before:
            assert plane.ejects == 0 and plane.lane_count == 20
            assert world.sim.step()
        # The break ejects the pinger, and only the pinger.
        assert plane.flushes == 0
        assert plane.ejects_by_cause == {
            "flush": 0, "retries_exhausted": 1, "ping_timeout": 0,
            "table_change": 0, "teardown": 0,
        }
        assert plane.lane_count == 19
        # Breaks and the suspicion between the pair match the scalar twin.
        until = world.now + 90_000.0
        for w in (world, twin):
            w.sim.run(until=until)
        assert suspicions[world] == suspicions[twin]
        assert {(a, b, "broken"), (b, a, "broken")} & {s[1:] for s in suspicions[world]}
        assert breaks.value == twin.sim.metrics.counter("net.connection_breaks").value
        assert world.sim.events_dispatched == twin.sim.events_dispatched
        assert plane.flushes == 0

    def test_loss_change_flushes_before_next_lane_step(self):
        world, plane = _laned_world()
        flushes = plane.flushes
        gen_before = world.topology.generation
        world.topology.set_uniform_loss(0.05)
        assert world.topology.generation != gen_before
        world.run_for_minutes(1.0)
        assert plane.flushes == flushes + 1

    def test_crash_ejects_synchronously(self):
        world, plane = _laned_world()
        victim = world.node_ids[4]
        node = world.overlay_node(victim)
        assert plane.is_laned(node)
        ejects = plane.ejects
        world.crash(victim)
        # The crash listener tears the node down, which must eject it
        # from the plane immediately — not at the next advance window.
        assert not plane.is_laned(node)
        assert plane.ejects > ejects
        # The crashed node's timers were materialized and then cancelled
        # by the teardown, exactly like the scalar path.
        assert node._sweep_timer is None or not node._sweep_timer.active
        assert not node._outstanding_pings

    def test_table_change_ejects(self):
        world, plane = _laned_world()
        # A leave triggers table pushes to the departed node's neighbors;
        # each push ejects that node from its lane.
        ejects = plane.ejects
        world.overlay_node(world.node_ids[7]).leave()
        assert plane.ejects > ejects

    def test_identical_table_push_keeps_the_lane(self):
        world, plane = _laned_world()
        node = world.overlay_node(world.node_ids[3])
        assert plane.is_laned(node)
        ejects, table = plane.ejects, node.table
        world.overlay._push_table(node.name)
        assert plane.is_laned(node)
        assert plane.ejects == ejects
        assert node.table is table

    def test_restarted_node_still_gets_an_identical_push(self):
        """A crashed node restarting before any neighbor noticed is still
        in the rings: its table is unchanged, but it must be pushed again
        to rejoin and restart its sweeps."""
        world, _plane = _laned_world()
        victim = world.node_ids[3]
        node = world.overlay_node(victim)
        table = node.table
        world.crash(victim)
        assert not node.joined and world.overlay.is_member(node.name)
        world.net.recover_host(victim)
        world.overlay.complete_join(node)
        assert node.joined
        assert node.table is not table
        assert node.table.leaf_set == table.leaf_set
        assert node._sweep_timer is not None

    def test_ejected_state_is_scalar_equivalent(self):
        """After a flush, materialized timers keep working: suspicion of
        a crashed neighbor still fires through the scalar path."""
        world, plane = _laned_world()
        victim = world.node_ids[2]
        world.crash(victim)
        world.run_for_minutes(3.0)
        # Some neighbor must have suspected the victim and reported it.
        assert world.overlay.member_count < 20


class TestCompressedBootstrapJoinsEveryNode:
    """Satellite regression for the 16k flash-crowd gap: in the
    compressed join regime the first-sweep floor holds liveness probes
    until the storm ends, so no joiner is suspected mid-join and
    ``overlay_members == n_nodes``."""

    def test_compressed_bootstrap_full_membership(self):
        # 500 nodes is past CLASSIC_BOOTSTRAP_MAX_NODES, so bootstrap
        # uses the compressed schedule (60 ms spacing).
        world = FuseWorld(n_nodes=500, seed=7)
        world.bootstrap()
        assert world.overlay.member_count == 500
        spacing = world.join_interval_ms()
        assert spacing < 200.0
        assert world.overlay.first_sweep_floor_ms == 500 * spacing

    def test_classic_bootstrap_keeps_floor_at_zero(self):
        world = FuseWorld(n_nodes=20, seed=7)
        world.bootstrap()
        assert world.overlay.first_sweep_floor_ms == 0.0
        assert world.overlay.member_count == 20
