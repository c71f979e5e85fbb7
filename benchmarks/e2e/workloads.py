"""The four workloads of the end-to-end benchmark.

Each drives the program only through public surfaces (``FuseWorld`` /
``LiveWorld``, ``bootstrap``, ``create_group``, ``FuseGroup.signal``,
``run_for``, fault verbs, ``execute_with_context`` with public tracks,
``world.ledger``, ``sim.metrics`` counters, ``sim.lane_plane.stats()``,
``net.routes.cached_*``), times those calls from outside, and checks
what came back.

The deployment is the same in every run: ``WORLD_SEED`` fixes the
topology, the node names and the protocol's own random streams.
``--seed`` drives what the benchmark generates on top of it — which
nodes form which group, who fails and when — through streams named
``bench.<seed>.*``.  (A topology drawn per seed puts 2 to 5 of its 66
ASes behind 300-500 ms links, which moves every latency percentile by
tens of percent from seed to seed.)

The simulated work is a fixed function of ``(seed, seconds)``: a
workload's window covers ``seconds`` times a fixed number of simulated
minutes, fitted on the reference container so the window there takes
about ``seconds`` of host time.  The same arguments therefore give the
same event stream, the same simulated-time metrics and the same
``sim_digest`` on every run and every machine; only host time varies.
``live_soak_128`` is paced by the wall clock, so its window takes
``seconds`` everywhere.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from timing import Interval, Mark, Timeline

MINUTE_MS = 60_000.0
WORLD_SEED = 7

FUSE_MESSAGE_TYPES = (
    "GroupCreateRequest", "GroupCreateReply", "InstallChecking",
    "SoftNotification", "HardNotification", "NeedRepair",
    "GroupRepairRequest", "GroupRepairReply", "FuseLinkList",
)


@dataclass
class Slices:
    """A window cut into equal simulated-time slices, each timed and
    calibrated on its own."""

    slice_ms: float = 0.0
    intervals: List[Interval] = field(default_factory=list)
    events: List[int] = field(default_factory=list)
    messages: List[int] = field(default_factory=list)

    @property
    def sim_seconds(self) -> float:
        return len(self.intervals) * self.slice_ms / 1000.0


@dataclass
class Outcome:
    """Everything one workload run produced, before it is named."""

    n_nodes: int
    setups: List[Tuple[Interval, Interval]]      # (construct, bootstrap) per set-up
    bootstrap_events: List[int]
    joined: int
    window: Slices
    host_clock: str                               # "wall" or "cpu": which clock rates use
    life_intervals: List[Interval]                # host time from the first create to the end of the run
    lay_groups_raw_s: float
    groups_attempted: int
    groups_live: int
    groups_completed: int                         # live and, where signalled, every member notified
    create_ms: List[float]
    notify_s: List[float]
    expected_notes: int
    delivered_notes: int
    spurious_groups: int
    counts: Dict[str, float]
    problems: List[str]
    sim_digest: Optional[str]
    setup_tracks_raw_s: float = 0.0               # scenario workloads only
    aggregate_raw_s: float = 0.0


def tally(outcome: Outcome) -> Tuple[int, int]:
    """(attempted, failed) operations of a run: notifications owed to
    surviving members, group creates, and peers joining the overlay."""
    attempted = outcome.expected_notes + outcome.groups_attempted + outcome.n_nodes
    failed = (
        (outcome.expected_notes - outcome.delivered_notes)
        + (outcome.groups_attempted - outcome.groups_live)
        + (outcome.n_nodes - outcome.joined)
    )
    return attempted, failed


class NoTracer:
    """Stands in for :class:`layers.Tracer` on an untraced run."""

    tracing = False

    def start(self, phase: str) -> None:
        pass

    def stop(self) -> None:
        pass


# ----------------------------------------------------------------------
# Pieces shared by the workloads
# ----------------------------------------------------------------------
def set_up(
    tl: Timeline, tracer, make_world: Callable[[], object], repeats: int
) -> Tuple[object, List[Tuple[Interval, Interval]], List[int]]:
    """Construct and bootstrap a fresh world ``repeats`` times; keep the
    last.  Only the last one is traced, so the earlier ones give the
    untraced set-up time a traced run compares itself with."""
    setups, events = [], []
    world = None
    for index in range(repeats):
        last = index == repeats - 1
        if last:
            tracer.start("setup")
        a = tl.mark()
        world = make_world()
        b = tl.mark()
        world.bootstrap()
        c = tl.mark()
        if last:
            tracer.stop()
        setups.append((tl.interval("construct", a, b), tl.interval("bootstrap", b, c)))
        events.append(world.sim.events_dispatched)
        if not last:
            if hasattr(world, "close"):  # a live world holds sockets
                world.close()
            world = None
            gc.collect()
    return world, setups, events


def pick_groups(rng, node_ids: Sequence[int], count: int, size: int) -> List[Tuple[int, List[int]]]:
    pool = list(node_ids)
    picks = []
    for _ in range(count):
        root, *members = rng.sample(pool, size)
        picks.append((root, members))
    return picks


def total_raw_s(intervals: Sequence[Interval]) -> float:
    return sum(iv.raw_s for iv in intervals)


def lay_groups(world, tl: Timeline, picks, batch: int, step_ms: float, chunk: int = 1):
    """Create the picked groups ``batch`` at a time and drive the world
    in steps of ``step_ms`` until each batch is live; ``chunk`` batches
    share one timed interval.  Returns (handles, simulated create latency
    in ms of each group that went live, host interval per chunk)."""
    handles, intervals = [], []
    latency: Dict[str, float] = {}
    pending = set()

    def live(group, t0: float) -> None:
        latency[group.fuse_id] = world.now - t0
        pending.discard(group.fuse_id)

    for chunk_start in range(0, len(picks), batch * chunk):
        a = tl.mark()
        for start in range(chunk_start, min(chunk_start + batch * chunk, len(picks)), batch):
            for root, members in picks[start : start + batch]:
                group = world.create_group(root, members)
                pending.add(group.fuse_id)
                handles.append(group)
                group.on_live(lambda g, t0=world.now: live(g, t0))
            deadline = world.now + 60_000.0
            while pending and world.now < deadline:
                world.run_for(step_ms)
        intervals.append(tl.interval("lay_groups", a, tl.mark()))
    return handles, latency, intervals


def run_slices(world, tl: Timeline, count: int, slice_ms: float, name: str) -> Slices:
    """Run ``count`` slices of ``slice_ms`` and time each from outside."""
    messages = world.sim.metrics.counter("net.messages")
    out = Slices(slice_ms)
    mark = tl.mark()
    for _ in range(count):
        events0, messages0 = world.sim.events_dispatched, messages.value
        world.run_for(slice_ms)
        nxt = tl.mark()
        out.intervals.append(tl.interval("slice", mark, nxt, parent=name))
        out.events.append(world.sim.events_dispatched - events0)
        out.messages.append(messages.value - messages0)
        mark = nxt
    return out


def audit_members(ledger, groups, since_ms: Dict[str, float], skip=frozenset()):
    """For each (fuse_id, members) check every member outside ``skip``
    has a ledger note.  Returns (expected, delivered, latencies in s
    measured from ``since_ms[fuse_id]``, groups fully notified)."""
    expected = delivered = complete = 0
    latencies: List[float] = []
    for fuse_id, members in groups:
        times = ledger.notification_times(fuse_id)
        owed = [m for m in members if m not in skip]
        got = [m for m in owed if m in times]
        expected += len(owed)
        delivered += len(got)
        complete += len(got) == len(owed)
        latencies.extend((times[m] - since_ms[fuse_id]) / 1000.0 for m in got)
    return expected, delivered, latencies, complete


def counter_values(world) -> Dict[str, int]:
    return {name: c.value for name, c in world.sim.metrics.counters().items()}


def digest_of(world) -> str:
    """sha256 over everything simulated that a host-time change must not
    move: events dispatched, every counter, every ledger row."""
    h = hashlib.sha256()
    h.update(repr(world.sim.events_dispatched).encode())
    h.update(repr(sorted(counter_values(world).items())).encode())
    for row in world.ledger.creates:
        h.update(repr(tuple(row)).encode())
    for row in world.ledger.notes:
        h.update(repr((row.when, row.fuse_id, row.node, row.role, row.reason.value, row.raw, row.phase)).encode())
    return h.hexdigest()


def layer_counts(world, groups: int) -> Dict[str, float]:
    """Per-layer work counts, read from the program's public counters."""
    c = counter_values(world)
    events = world.sim.events_dispatched
    messages = c.get("net.messages", 0)
    transmissions = c.get("net.transmissions", 0)
    plane = getattr(world.sim, "lane_plane", None)
    lanes = plane.stats() if plane is not None else {}
    micro = lanes.get("micro_events_dispatched", 0)
    absorbs = lanes.get("absorbs", 0)
    routes = getattr(world.net, "routes", None)
    fuse_msgs = sum(c.get(f"net.msg.{t}", 0) for t in FUSE_MESSAGE_TYPES)
    return {
        "sim.kernel.events": events,
        "sim.lanes.micro_events": micro,
        "sim.lanes.micro_frac": micro / events if events else 0.0,
        "sim.lanes.absorbs": absorbs,
        "sim.lanes.ejects": lanes.get("ejects", 0),
        "sim.lanes.ejects_per_absorb": lanes.get("ejects", 0) / absorbs if absorbs else 0.0,
        "sim.lanes.backend_numpy": 1 if lanes.get("backend") == "numpy" else 0,
        "net.routing.routes_cached": routes.cached_route_count if routes is not None else 0,
        "net.routing.trees_cached": routes.cached_tree_count if routes is not None else 0,
        "net.network.messages": messages,
        "net.network.transmissions": transmissions,
        # Lanes count a message when it is sent and a transmission when it
        # lands, so a world stopped mid-flight can read one or two short.
        "net.network.retransmit_ratio": max(0.0, (transmissions - messages) / messages) if messages else 0.0,
        "net.network.connection_breaks": c.get("net.connection_breaks", 0),
        "net.network.bytes": c.get("net.bytes", 0),
        "overlay.skipnet.members": world.overlay.member_count,
        "overlay.skipnet.pings": c.get("net.msg.OverlayPing", 0),
        "overlay.skipnet.route_envelopes": c.get("net.msg.RouteEnvelope", 0),
        "overlay.skipnet.route_drops": c.get("overlay.route_drops", 0),
        "fuse.service.create_attempts": c.get("fuse.create_attempts", 0),
        "fuse.service.create_failures": c.get("fuse.create_failures", 0),
        "fuse.service.explicit_signals": c.get("fuse.explicit_signals", 0),
        "fuse.service.soft_notifications": c.get("fuse.soft_notifications", 0),
        "fuse.service.hard_notifications": c.get("fuse.hard_notifications", 0),
        "fuse.service.repairs_started": c.get("fuse.repairs_started", 0),
        "fuse.service.repairs_succeeded": c.get("fuse.repairs_succeeded", 0),
        "fuse.service.link_timeouts": c.get("fuse.link_timeouts", 0),
        "fuse.service.msgs_per_group": fuse_msgs / groups if groups else 0.0,
        "fuse.api.ledger_creates": len(world.ledger.creates),
        "fuse.api.ledger_notes": len(world.ledger.notes),
    }


def check_setups(problems: List[str], events: List[int], joined: int, n: int, exact: bool) -> None:
    if joined != n:
        problems.append(f"bootstrap joined {joined} of {n} peers")
    if exact and len(set(events)) != 1:
        problems.append(f"bootstraps of one seed dispatched different event counts: {events}")


# ----------------------------------------------------------------------
# steady_4k
# ----------------------------------------------------------------------
def steady_4k(seed: int, seconds: float, smoke: bool, tl: Timeline, tracer, repeats: int) -> Outcome:
    """Batch simulation: a settled 4,000-node overlay with 128 groups of
    8, watched for 0.95 simulated minutes per requested second."""
    from repro.world import FuseWorld

    n, n_groups, batch = (200, 16, 4) if smoke else (4000, 128, 16)
    slice_ms = 10_000.0
    n_slices = max(6, round(seconds * 5.7))
    world, setups, events = set_up(tl, tracer, lambda: FuseWorld(n_nodes=n, seed=WORLD_SEED), repeats)
    problems: List[str] = []
    joined = world.overlay.member_count
    check_setups(problems, events, joined, n, exact=True)

    tracer.start("run")
    picks = pick_groups(world.sim.rng.stream(f"bench.{seed}.groups"), world.node_ids, n_groups, 8)
    handles, latency, group_ivs = lay_groups(world, tl, picks, batch, step_ms=250.0)
    a = tl.mark()
    world.run_for(MINUTE_MS)  # drain InstallChecking traffic
    gc.collect()
    drain = tl.interval("drain", a, tl.mark())
    window = run_slices(world, tl, n_slices, slice_ms, "window")
    spurious = len({row.fuse_id for row in world.ledger.notes})

    # Tear every group down through its creator's handle and check the
    # explicit signal reaches each member.
    a = tl.mark()
    since = {}
    for group in handles:
        since[group.fuse_id] = world.now
        group.signal()
    world.run_for(30_000.0)
    expected, delivered, notify_s, complete = audit_members(
        world.ledger, [(g.fuse_id, g.members) for g in handles], since
    )
    teardown = tl.interval("signal_all", a, tl.mark())
    tracer.stop()

    return Outcome(
        n_nodes=n, setups=setups, bootstrap_events=events, joined=joined,
        window=window, host_clock="wall",
        life_intervals=group_ivs + [drain] + window.intervals + [teardown],
        lay_groups_raw_s=total_raw_s(group_ivs),
        groups_attempted=n_groups, groups_live=len(latency), groups_completed=complete,
        create_ms=list(latency.values()), notify_s=notify_s,
        expected_notes=expected, delivered_notes=delivered, spurious_groups=spurious,
        counts=layer_counts(world, n_groups), problems=problems, sim_digest=digest_of(world),
    )


# ----------------------------------------------------------------------
# fault_storm_400
# ----------------------------------------------------------------------
def fault_storm_400(seed: int, seconds: float, smoke: bool, tl: Timeline, tracer, repeats: int) -> Outcome:
    """Batch simulation run by the scenario layer: loss, rolling
    disconnects, a crash-recover wave and a partition over 400 groups of
    5, the storm lasting 0.85 simulated minutes per requested second."""
    from repro.scenarios import (
        Phase, Scenario, Track, evaluate_expectations, execute_with_context, parse_expect,
    )
    from repro.scenarios.tracks import (
        CrashRecoverWave, GroupWorkload, LinkLossRamp, Partition, RollingDisconnect,
    )
    from repro.world import FuseWorld

    n, n_groups, victims, wave = (200, 100, 12, 6) if smoke else (400, 400, 40, 16)
    slice_min = 0.25
    storm_min = max(2.0, round(seconds * 0.85 * 2) / 2)
    # The scenario owns the clock, and the kernel's event count is exact
    # only between run() calls.  So each stage is cut into phases of one
    # slice: the first carries the stage's name (tracks start on it, and
    # schedule the rest of their work with timers), the others only pass
    # time, and the probe track's phase hooks see every boundary.
    phases = tuple(
        Phase(stage if k == 0 else f"{stage}.{k}", slice_min)
        for stage, minutes in (("warmup", 1.0), ("storm", storm_min), ("split", 4.0), ("recover", 4.0))
        for k in range(round(minutes / slice_min))
    )
    marks: Dict[str, Mark] = {}
    seen: Dict[str, float] = {}
    window = Slices(slice_min * MINUTE_MS)

    class Probe(Track):
        """No-op track recording host time and counters at the
        scenario's seams.  One runs first in the track list, one last."""

        def __init__(self, first: bool) -> None:
            self.first = first

        def boundary(self, ctx) -> None:
            mark = tl.mark()
            events = ctx.sim.events_dispatched
            messages = ctx.sim.metrics.counter("net.messages").value
            if "boundary" in marks:
                window.intervals.append(tl.interval("slice", marks["boundary"], mark, parent="window"))
                window.events.append(events - int(seen["events"]))
                window.messages.append(messages - int(seen["messages"]))
            marks["boundary"] = mark
            seen.update(events=events, messages=messages)

        def setup(self, ctx) -> None:
            if self.first:
                marks["bootstrapped"] = tl.mark()
                seen["bootstrap_events"] = ctx.sim.events_dispatched
                seen["joined"] = ctx.world.overlay.member_count
                tracer.stop()
                tracer.start("run")
            else:
                marks["tracks_set_up"] = tl.mark()
                seen["groups_laid_ms"] = ctx.sim.now

        def on_phase_start(self, ctx, phase) -> None:
            if self.first:
                self.boundary(ctx)

        def on_phase_end(self, ctx, phase) -> None:
            if not self.first and phase is phases[-1]:
                self.boundary(ctx)

    streams = f"bench.{seed}"
    scenario = Scenario(
        name="fault_storm_400", n_nodes=n, phases=phases,
        tracks=(
            Probe(first=True),
            GroupWorkload(n_groups, 5, stream=f"{streams}.groups"),
            LinkLossRamp("storm", start_loss=0.004, end_loss=0.004, steps=1),
            RollingDisconnect(
                victims, "storm", interval_minutes=storm_min / (victims + 8), down_minutes=3.0,
                stream=f"{streams}.faults",
            ),
            CrashRecoverWave(
                wave, recover_phase="recover", crash_phase="storm", spacing_ms=100.0,
                stream=f"{streams}.churn",
            ),
            Partition("split", fractions=(0.6, 0.4), heal_after_minutes=2.0),
            Probe(first=False),
        ),
        expect=parse_expect({"delivered": "== expected"}),
    )

    setups: List[Tuple[Interval, Interval]] = []
    events: List[int] = []
    if repeats > 1:
        _, setups, events = set_up(
            tl, NoTracer(), lambda: FuseWorld(n_nodes=n, seed=WORLD_SEED), repeats - 1
        )
        gc.collect()

    def factory(n_nodes: int, world_seed: int):
        tracer.start("setup")
        marks["enter"] = tl.mark()
        world = FuseWorld(n_nodes=n_nodes, seed=world_seed)
        marks["constructed"] = tl.mark()
        return world

    measurements, ctx = execute_with_context(scenario, WORLD_SEED, world_factory=factory)
    done = tl.mark()
    tracer.stop()
    world = ctx.world
    setups.append(
        (
            tl.interval("construct", marks["enter"], marks["constructed"]),
            tl.interval("bootstrap", marks["constructed"], marks["bootstrapped"]),
        )
    )
    events.append(int(seen["bootstrap_events"]))

    problems: List[str] = []
    check_setups(problems, events, int(seen["joined"]), n, exact=True)
    for outcome in evaluate_expectations(scenario.expect, measurements):
        if not outcome.ok:
            problems.append(f"expectation failed: {outcome.violation}")

    # GroupWorkload lays its groups back to back with create_group_sync,
    # so each create starts at the simulated instant the one before it
    # went live: consecutive ledger rows give every create's latency.
    starts = [row.when for row in world.ledger.creates] + [seen["groups_laid_ms"]]
    create_ms = [b - a for a, b in zip(starts, starts[1:])]
    setup_tracks = tl.interval("setup_tracks", marks["bootstrapped"], marks["tracks_set_up"])

    return Outcome(
        n_nodes=n, setups=setups, bootstrap_events=events, joined=int(seen["joined"]),
        window=window, host_clock="wall",
        life_intervals=[setup_tracks] + window.intervals, lay_groups_raw_s=setup_tracks.raw_s,
        groups_attempted=n_groups, groups_live=measurements["groups_created"],
        groups_completed=measurements["groups_created"],
        create_ms=create_ms, notify_s=[m * 60.0 for m in measurements["latency_min"]],
        expected_notes=measurements["notifications_expected"],
        delivered_notes=measurements["notifications_delivered"],
        spurious_groups=measurements["spurious_groups"],
        counts=layer_counts(world, n_groups), problems=problems, sim_digest=digest_of(world),
        setup_tracks_raw_s=setup_tracks.raw_s,
        aggregate_raw_s=tl.interval("aggregate", marks["boundary"], done).raw_s,
    )


# ----------------------------------------------------------------------
# group_churn_400
# ----------------------------------------------------------------------
def group_churn_400(seed: int, seconds: float, smoke: bool, tl: Timeline, tracer, repeats: int) -> Outcome:
    """Open loop in simulated time: 5 creates of 8-member groups per
    simulated second on a fixed schedule, for 0.6 simulated minutes per
    requested second; every group is signalled 30 simulated s after it
    goes live."""
    from repro.world import FuseWorld

    n = 200 if smoke else 400
    rate_per_s, signal_after_ms, slice_ms = 5, 30_000.0, 10_000.0
    create_slices = max(2, round(seconds * 3.6))
    n_groups = int(create_slices * slice_ms / 1000.0) * rate_per_s
    world, setups, events = set_up(tl, tracer, lambda: FuseWorld(n_nodes=n, seed=WORLD_SEED), repeats)
    problems: List[str] = []
    joined = world.overlay.member_count
    check_setups(problems, events, joined, n, exact=True)

    tracer.start("run")
    sim = world.sim
    picks = pick_groups(sim.rng.stream(f"bench.{seed}.churn"), world.node_ids, n_groups, 8)
    start_ms = world.now
    create_ms: List[float] = []
    signalled: Dict[str, float] = {}
    groups: List[Tuple[str, Tuple[int, ...]]] = []

    def create(root: int, members: List[int], due_ms: float) -> None:
        group = world.create_group(root, members)

        def signal() -> None:
            signalled[group.fuse_id] = world.now
            group.signal()

        def live(g) -> None:
            # From the time the create was due, not from when it was sent
            # (the same instant here: simulated time cannot run late).
            create_ms.append(world.now - due_ms)
            groups.append((g.fuse_id, g.members))
            sim.call_after(signal_after_ms, signal)

        group.on_live(live)

    for k, (root, members) in enumerate(picks):
        due = start_ms + k * 1000.0 / rate_per_s
        sim.call_at(due, lambda r=root, m=members, d=due: create(r, m, d))
    window = run_slices(world, tl, create_slices + 6, slice_ms, "window")
    tracer.stop()

    early = {row.fuse_id for row in world.ledger.notes if row.when < signalled.get(row.fuse_id, float("inf"))}
    expected, delivered, notify_s, complete = audit_members(
        world.ledger, [g for g in groups if g[0] in signalled], signalled
    )
    expected += 8 * (len(groups) - len(signalled))  # live but never signalled: all owed
    return Outcome(
        n_nodes=n, setups=setups, bootstrap_events=events, joined=joined,
        window=window, host_clock="wall",
        life_intervals=window.intervals, lay_groups_raw_s=total_raw_s(window.intervals),
        groups_attempted=n_groups, groups_live=len(groups), groups_completed=complete,
        create_ms=create_ms, notify_s=notify_s,
        expected_notes=expected, delivered_notes=delivered, spurious_groups=len(early),
        counts=layer_counts(world, n_groups), problems=problems, sim_digest=digest_of(world),
    )


# ----------------------------------------------------------------------
# live_soak_128
# ----------------------------------------------------------------------
def live_soak_128(seed: int, seconds: float, smoke: bool, tl: Timeline, tracer, repeats: int) -> Outcome:
    """Wall-paced: 128 peers on localhost asyncio UDP at 0.04 wall s per
    simulated s, 32 groups of 5; 6 peers crash one by one over the first
    fifth of a fault phase that lasts ``seconds`` of wall time."""
    from repro.net.backends.liveworld import LiveWorld

    n, n_groups, n_victims, pace = (32, 16, 4, 0.01) if smoke else (128, 32, 6, 0.04)
    slice_ms = 15_000.0
    fault_slices = int(seconds / pace * 1000.0 // slice_ms)
    if fault_slices < 20:
        raise SystemExit(
            f"live_soak_128 needs --seconds >= {20 * slice_ms / 1000.0 * pace:.1f}: the last "
            "crash must be followed by 4 simulated minutes of detection budget"
        )
    # Profiling doubles the CPU cost of every message; a traced run keeps
    # the simulated schedule and halves the pace, or the event loop
    # saturates and peers evict each other for answering pings late.
    time_scale = 2.0 * pace if tracer.tracing else pace
    world, setups, events = set_up(
        tl, tracer, lambda: LiveWorld(n_nodes=n, seed=WORLD_SEED, time_scale=time_scale), repeats
    )
    try:
        problems: List[str] = []
        joined = world.overlay.member_count
        check_setups(problems, events, joined, n, exact=False)

        tracer.start("run")
        picks = pick_groups(world.sim.rng.stream(f"bench.{seed}.groups"), world.node_ids, n_groups, 5)
        # One calibration spin per 8 creates: a spin blocks the event loop
        # for 12 ms, 0.3 simulated s at this pace.
        handles, latency, group_ivs = lay_groups(world, tl, picks, batch=1, step_ms=50.0, chunk=8)
        baseline = run_slices(world, tl, 2, slice_ms, "baseline")

        # The crashes fill the first fifth of the fault phase; the rest is
        # the detection budget (soak_live.py's 4 simulated minutes).
        victims = world.sim.rng.stream(f"bench.{seed}.faults").sample(list(world.node_ids), n_victims)
        crashed_at: Dict[int, float] = {}

        def crash(node: int) -> None:
            crashed_at[node] = world.now
            world.crash(node)

        gap_ms = fault_slices * slice_ms / 5.0 / n_victims
        for index, node in enumerate(victims):
            world.sim.call_after(index * gap_ms, lambda v=node: crash(v))
        window = run_slices(world, tl, fault_slices, slice_ms, "window")
        tracer.stop()

        hit, since = [], {}
        for group in handles:
            down = [crashed_at[m] for m in group.members if m in crashed_at]
            if group.fuse_id in latency and down:
                hit.append((group.fuse_id, group.members))
                since[group.fuse_id] = min(down)
        expected, delivered, notify_s, _ = audit_members(world.ledger, hit, since, skip=frozenset(crashed_at))
        spurious = {row.fuse_id for row in world.ledger.notes} - set(since)
        counts = layer_counts(world, n_groups)
    finally:
        world.close()
    return Outcome(
        n_nodes=n, setups=setups, bootstrap_events=events, joined=joined,
        window=window, host_clock="cpu",
        life_intervals=group_ivs + baseline.intervals + window.intervals,
        lay_groups_raw_s=total_raw_s(group_ivs),
        groups_attempted=n_groups, groups_live=len(latency), groups_completed=len(latency),
        create_ms=list(latency.values()), notify_s=notify_s,
        expected_notes=expected, delivered_notes=delivered, spurious_groups=len(spurious),
        counts=counts, problems=problems, sim_digest=None,
    )


WORKLOADS = {
    "steady_4k": steady_4k,
    "fault_storm_400": fault_storm_400,
    "group_churn_400": group_churn_400,
    "live_soak_128": live_soak_128,
}
