"""Timeline-driven scenario model: phases, event tracks, and the executor.

The paper's claim (abstract, §3.5) is that FUSE delivers failure
notifications under *arbitrary* failure patterns — crashes, disconnects,
partitions, intransitive link failures, packet loss.  A
:class:`Scenario` makes "arbitrary" concrete: it is a named, seedable
composition of

* **phases** — consecutive windows of virtual time (warmup,
  steady-state, measurement); phases marked ``measure=True`` reset the
  metrics counters at their start and contribute to the reported
  message rate;
* **tracks** — independent generators of load and faults
  (:mod:`repro.scenarios.tracks`): churn schedules, partition-and-heal
  waves, rolling disconnects, intransitive pair failures, time-varying
  link loss, and FUSE/SV-tree workloads.

A scenario compiles onto the existing primitives with no new mechanism:
tracks schedule through ``world.sim``, drive
:class:`repro.net.faults.FaultInjector` and
:meth:`repro.net.topology.Topology.set_uniform_loss`, and the whole
scenario runs as one trial function under :mod:`repro.engine`, so seed
replication, ``--jobs`` parallelism, and JSON archiving work unchanged
(see :mod:`repro.scenarios.runner`).

Execution order is deterministic and mirrors the hand-written experiment
loops this layer replaced:

1. build the world from the trial seed and ``bootstrap()`` it;
2. run every track's ``setup`` hook, in track order (synchronous work —
   e.g. group creation — may advance the clock here);
3. fix the phase boundary times;
4. for each phase: run every track's ``on_phase_start`` hook, reset
   counters if measuring, ``run_for`` the phase, then ``on_phase_end``;
5. aggregate the shared measurement state into a flat dict.

Determinism rules: tracks draw randomness only from named streams via
:meth:`ScenarioContext.stream` (memoized per name, so two tracks naming
the same stream share one draw sequence — how the fig 9 scenario
reproduces the old experiment's exact victim sample), and all
phase-boundary work happens in Python between ``run_for`` calls, never
through racing sim timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.trial import Measurements
from repro.net.address import NodeId
from repro.scenarios.expect import Expectation
from repro.world import FuseWorld

MINUTE_MS = 60_000.0


@dataclass(frozen=True)
class Phase:
    """One consecutive window of a scenario's timeline.

    Attributes:
        name: phase label; tracks reference phases by name.
        minutes: duration in virtual minutes.
        measure: when True, metrics counters reset at phase start and the
            phase's message count contributes to ``msgs_per_sec``.
    """

    name: str
    minutes: float
    measure: bool = False

    def __post_init__(self) -> None:
        if self.minutes < 0:
            raise ValueError(f"phase {self.name!r} has negative duration")


class Track:
    """Base class for scenario event tracks.

    Hooks run in track-list order at deterministic points of the
    scenario lifecycle; all of them are optional.  Tracks communicate
    with the aggregation step only through the :class:`ScenarioContext`.
    """

    def setup(self, ctx: "ScenarioContext") -> None:
        """Synchronous work after bootstrap, before the first phase."""

    def on_phase_start(self, ctx: "ScenarioContext", phase: Phase) -> None:
        """Runs immediately before ``run_for`` of ``phase``."""

    def on_phase_end(self, ctx: "ScenarioContext", phase: Phase) -> None:
        """Runs immediately after ``run_for`` of ``phase``."""


@dataclass
class Scenario:
    """A named, seedable composition of phases and tracks.

    ``seed`` is only the *default* base seed: the runner derives one world
    seed per (scenario, base seed) pair, and ``execute(scenario, seed=...)``
    overrides it per trial.
    """

    name: str
    n_nodes: int
    phases: Tuple[Phase, ...]
    tracks: Tuple[Track, ...] = ()
    seed: int = 0
    description: str = ""
    #: declared outcomes evaluated per trial by the runner (the spec's
    #: ``[expect]`` block — see :mod:`repro.scenarios.expect`)
    expect: Tuple[Expectation, ...] = ()

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("scenario needs a positive node count")
        if not self.phases:
            raise ValueError(f"scenario {self.name!r} has no phases")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate phase names in scenario {self.name!r}: {names}")

    @property
    def total_minutes(self) -> float:
        return sum(p.minutes for p in self.phases)

    def phase(self, name: str) -> Phase:
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"scenario {self.name!r} has no phase {name!r}")


class ScenarioContext:
    """Mutable state shared by a running scenario's tracks.

    Tracks register groups and record faults/notifications here; the
    aggregation step turns this into the flat measurements dict.  Nodes
    marked *unobservable* (crashed or disconnected by a fault track)
    still run their local FUSE instance — which self-notifies — but
    their notifications are excluded from delivery accounting, matching
    the paper's Fig 9 methodology (only the remaining live members'
    notifications are reported).
    """

    def __init__(self, world: FuseWorld, scenario: Scenario) -> None:
        self.world = world
        self.scenario = scenario
        self.sim = world.sim
        #: fuse_id -> (root, [root] + members)
        self.groups: Dict[str, Tuple[NodeId, List[NodeId]]] = {}
        self.groups_failed = 0
        #: fuse_id -> nodes whose notifications count for delivery
        #: accounting (filled by workload tracks; resolved against the
        #: world ledger after the run)
        self.observed: Dict[str, Set[NodeId]] = {}
        #: (fuse_id, node) -> virtual ms of the node's *first* notification
        self.notification_times: Dict[Tuple[str, NodeId], float] = {}
        #: node -> virtual ms of the node's first injected fault
        self.fault_times: Dict[NodeId, float] = {}
        #: fuse_id -> virtual ms a track declared the whole group doomed
        #: (e.g. a partition cutting through it) without faulting a node
        self.group_fault_times: Dict[str, float] = {}
        #: nodes whose notifications must not count as deliveries
        self.unobservable: Set[NodeId] = set()
        self.phase_start_ms: Dict[str, float] = {}
        self.phase_end_ms: Dict[str, float] = {}
        #: extra scalar measurements tracks report (merged into the
        #: final dict; must be JSON-serializable)
        self.extra: Dict[str, Any] = {}
        #: per-run scratch space, typically keyed by ``id(track)``.
        #: Tracks are shared across serial seed replicas, so per-run
        #: mutable state must live here, never on the track instance.
        self.scratch: Dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # Facilities for tracks
    # ------------------------------------------------------------------
    def stream(self, name: str):
        """The named RNG stream (memoized: same name -> same sequence)."""
        return self.sim.rng.stream(name)

    def register_group(self, fuse_id: str, root: NodeId, members: Sequence[NodeId]) -> None:
        self.groups[fuse_id] = (root, list(members))

    def observe_group(self, fuse_id: str, nodes: Sequence[NodeId]) -> None:
        """Count these nodes' notifications for ``fuse_id`` as deliveries.

        The actual times are read from the world's
        :class:`~repro.fuse.api.GroupLedger` after the run — tracks no
        longer attach per-(group, member) observers.
        """
        self.observed.setdefault(fuse_id, set()).update(nodes)

    def record_notification(self, fuse_id: str, node: NodeId) -> None:
        """Record ``node``'s first notification for ``fuse_id`` directly
        (custom tracks only; the ledger pass uses setdefault too, so
        manual records merge cleanly)."""
        self.notification_times.setdefault((fuse_id, node), self.sim.now)

    def resolve_notifications(self) -> None:
        """Fill :attr:`notification_times` from the world ledger.

        Scanned in ledger append order — chronological — so downstream
        latency lists keep the exact ordering the old per-node observers
        produced."""
        observed = self.observed
        if not observed:
            return
        for rec in self.world.ledger.notes:
            nodes = observed.get(rec.fuse_id)
            if nodes is not None and rec.node in nodes:
                self.notification_times.setdefault((rec.fuse_id, rec.node), rec.when)

    def note_fault(self, node: NodeId, observable: bool = True) -> None:
        """Record that a fault track hit ``node`` now.

        ``observable=False`` marks nodes whose own notifications must not
        count as deliveries (crashed / disconnected nodes).
        """
        self.fault_times.setdefault(node, self.sim.now)
        if not observable:
            self.unobservable.add(node)

    def expect_group_failure(self, fuse_id: str) -> None:
        """Declare a registered group doomed as of now (no node faulted)."""
        if fuse_id in self.groups:
            self.group_fault_times.setdefault(fuse_id, self.sim.now)


def execute(scenario: Scenario, seed: Optional[int] = None) -> Measurements:
    """Run ``scenario`` in a fresh world and return flat measurements.

    Pure apart from its arguments: the same (scenario, seed) pair always
    yields the same measurements, which is what lets the runner fan seed
    replicas across processes (:mod:`repro.scenarios.runner`).
    """
    return execute_with_context(scenario, seed)[0]


def execute_with_context(
    scenario: Scenario,
    seed: Optional[int] = None,
    world_factory=None,
) -> Tuple[Measurements, ScenarioContext]:
    """:func:`execute`, additionally returning the run's context (world,
    ledger, raw records) for property checks that need more than the flat
    measurements — the scenario fuzzer and ledger-level assertions.

    ``world_factory`` (``(n_nodes, seed) -> world``) swaps the backend the
    scenario runs on; the default builds a simulated :class:`FuseWorld`.
    The parity harness (:mod:`repro.scenarios.parity`) passes a factory
    building a :class:`repro.net.backends.liveworld.LiveWorld` so the same
    timeline drives real sockets."""
    run_seed = scenario.seed if seed is None else seed
    if world_factory is None:
        world = FuseWorld(n_nodes=scenario.n_nodes, seed=run_seed)
    else:
        world = world_factory(scenario.n_nodes, run_seed)
    world.bootstrap()
    ctx = ScenarioContext(world, scenario)
    world.ledger.set_phase("setup")
    for track in scenario.tracks:
        track.setup(ctx)

    # Fix phase boundaries after setup (synchronous group creation may
    # have advanced the clock).
    t = world.sim.now
    for phase in scenario.phases:
        ctx.phase_start_ms[phase.name] = t
        t += phase.minutes * MINUTE_MS
        ctx.phase_end_ms[phase.name] = t

    msgs = world.sim.metrics.counter("net.messages")
    measured_msgs = 0
    measured_ms = 0.0
    phase_rates: Dict[str, float] = {}
    for phase in scenario.phases:
        world.ledger.set_phase(phase.name)
        for track in scenario.tracks:
            track.on_phase_start(ctx, phase)
        if phase.measure:
            world.sim.metrics.reset_counters()
        msgs_before = msgs.value
        world.run_for(phase.minutes * MINUTE_MS)
        phase_msgs = msgs.value - msgs_before
        if phase.minutes > 0:
            phase_rates[phase.name] = phase_msgs / (phase.minutes * 60.0)
        if phase.measure:
            measured_msgs += msgs.value
            measured_ms += phase.minutes * MINUTE_MS
        for track in scenario.tracks:
            track.on_phase_end(ctx, phase)

    ctx.resolve_notifications()
    out = _aggregate(ctx, measured_msgs, measured_ms)
    # Per-phase measurement windows: a per-phase message rate for every
    # phase, and per-phase first-notification counts (observable nodes),
    # so partition-vs-healed behaviour is visible in one run instead of
    # pooled across all measured phases.
    for name, rate in phase_rates.items():
        out[f"msgs_per_sec[{name}]"] = rate
    last_phase = scenario.phases[-1]
    for phase in scenario.phases:
        start = ctx.phase_start_ms[phase.name]
        end = ctx.phase_end_ms[phase.name]
        # Half-open windows, except the final phase: events scheduled at
        # exactly the scenario's end time do dispatch, so the last window
        # closes inclusively.
        if phase is last_phase:
            count = sum(
                1
                for (_fid, node), when in ctx.notification_times.items()
                if start <= when <= end and node not in ctx.unobservable
            )
        else:
            count = sum(
                1
                for (_fid, node), when in ctx.notification_times.items()
                if start <= when < end and node not in ctx.unobservable
            )
        out[f"notifications[{phase.name}]"] = count
    out.update(ctx.extra)
    return out, ctx


def _group_fault_time(ctx: ScenarioContext, fuse_id: str, members: Sequence[NodeId]) -> Optional[float]:
    """Earliest injected-fault time relevant to a group, or None."""
    times = [ctx.fault_times[m] for m in members if m in ctx.fault_times]
    declared = ctx.group_fault_times.get(fuse_id)
    if declared is not None:
        times.append(declared)
    return min(times) if times else None


def _aggregate(ctx: ScenarioContext, measured_msgs: int, measured_ms: float) -> Measurements:
    """Reduce the context's raw records to the shared measurement set.

    * ``notifications_delivered`` / ``latency_min`` cover *affected*
      groups (>= 1 faulted member or a declared group fault) at
      observable nodes; latency is minutes since the group's earliest
      fault.
    * ``spurious_groups`` counts distinct groups notified with no fault
      touching them — the false-positive metric of Figs 10 and 12.
    """
    affected: Dict[str, float] = {}
    for fuse_id, (_root, members) in ctx.groups.items():
        t0 = _group_fault_time(ctx, fuse_id, members)
        if t0 is not None:
            affected[fuse_id] = t0

    latency_min: List[float] = []
    delivered = 0
    spurious: Set[str] = set()
    notified: Set[str] = set()
    for (fuse_id, node), when in ctx.notification_times.items():
        notified.add(fuse_id)
        if fuse_id in affected:
            if node in ctx.unobservable:
                continue
            delivered += 1
            latency_min.append((when - affected[fuse_id]) / MINUTE_MS)
        else:
            spurious.add(fuse_id)

    expected = sum(
        sum(1 for m in members if m not in ctx.unobservable)
        for fuse_id, (_root, members) in ctx.groups.items()
        if fuse_id in affected
    )
    return {
        "msgs_per_sec": measured_msgs / (measured_ms / 1000.0) if measured_ms > 0 else 0.0,
        "groups_created": len(ctx.groups),
        "groups_failed": ctx.groups_failed,
        "groups_affected": len(affected),
        "groups_notified": len(notified),
        "notifications_expected": expected,
        "notifications_delivered": delivered,
        "spurious_groups": len(spurious),
        "latency_min": latency_min,
        "final_alive": len(ctx.world.alive_node_ids()),
        "events": ctx.world.sim.events_dispatched,
    }
