"""Liveness lanes: a batched fast path for homogeneous ping traffic.

Steady-state event volume is dominated by overlay liveness probes: every
node pings each distinct neighbor once per ping period, and at 16,000
nodes nearly every dispatched event is one leg of a ping/ack round trip.
The classic path pays full generality for each leg — a heap push and pop
on a ~100k-entry heap, a :class:`~repro.sim.events.TimerHandle`, a
guarded closure, a message object, and a retransmission state machine —
even though the traffic is completely regular.

A :class:`LanePlane` is a specialized sub-scheduler for exactly that
regular traffic.  An :class:`~repro.overlay.skipnet.node.OverlayNode`
whose sweep finds nothing unusual in flight is *absorbed* into the plane:
its periodic sweep and every leg of its ping round trips become
"micro-events" in a small internal heap (plus a monotone deadline queue
for pending-ack timeouts).  While any node is laned,
:meth:`LanePlane.advance` is the simulator's one dispatch loop: it merges
those micro-events with the main heap's events in global ``(when, seq)``
order and dispatches both, the heap's ones exactly as the kernel would.

The contract is **byte identity** with the scalar path, proven by the
golden dispatch trace and the figure/scenario fixtures:

* Sequence numbers are drawn from the *same* ``EventQueue`` counter at
  exactly the points the scalar path would push, and nonces from the
  node's own counter, so interleaving with real events — and with any
  event the lane later *materializes* back onto the heap — preserves
  global ``(when, seq)`` dispatch order.
* RNG draws (loss, jitter) go through the shared ``net.transport``
  stream in scalar order.  This is why the plane cannot vectorize the
  draws themselves: the jitter model consumes one Mersenne–Twister draw
  per transmission, and replaying that stream bit-for-bit is part of the
  determinism contract.  The batching win is structural — no mega-heap
  sifts, no handle/closure/message allocation, no generic dispatch.
* Counters, the per-sender serialization chain (``_send_busy_until``),
  the connection cache, trace records, and ``events_dispatched`` are all
  mirrored one-for-one.
* Payload collection and ping/ack listener delivery call the *real*
  FUSE evidence hooks, so notification-relevant behavior is untouched.
  They apply the overlay's watched-neighbor rule
  (:meth:`~repro.overlay.skipnet.node.OverlayNode.register_payload_provider`):
  a provider is asked only for a watched neighbor, and a listener hears
  only a non-empty payload or a watched sender, so a ping on a link that
  carries no FUSE group calls no FUSE code on either path.

A node stays laned through packet loss and through faults that do not
concern it.  A lost ping or ack attempt is retransmitted *in the lane*: the
retry is a micro-event at ``now + rto``, its backoff state a
:class:`~repro.net.network._SendAttemptState` advanced by the same
retry-or-break routine the scalar path runs.  A fault mutation only
refreshes ``faults_clear`` and the connection-set reference, because every
fault-dependent decision is taken live per micro-event
(``can_communicate``, ``host.alive``, ``incarnation``); what a lane
*snapshots* — route latency and loss — is guarded by
``Topology.generation``, and only that (or a performance-fault window,
whose timing the micro-engine does not model) flushes every lane.

A node goes heterogeneous — its retransmissions are exhausted and the
connection breaks, a pending-ack timeout is about to fire, its table
changes, or it crashes or is torn down — and *ejects* to the classic
scalar path: every virtual timer and in-flight transmission, including a
retry mid-backoff, is materialized back onto the main heap with its
recorded ``(when, seq)``, after which the run is indistinguishable from
one that never laned.
"""

from __future__ import annotations

import os
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.net.network import _SendAttemptState
from repro.overlay.skipnet.messages import OverlayPing, OverlayPingAck
from repro.overlay.skipnet.node import _EMPTY_PAYLOAD
from repro.sim.events import TimerHandle

_PING_BYTES = OverlayPing.size_bytes
_ACK_BYTES = OverlayPingAck.size_bytes

# Trace labels, identical to the f-strings the scalar send path builds.
_TX_PING = "tx:OverlayPing"
_RX_PING = "rx:OverlayPing"
_RTX_PING = "rtx:OverlayPing"
_TX_ACK = "tx:OverlayPingAck"
_RX_ACK = "rx:OverlayPingAck"
_RTX_ACK = "rtx:OverlayPingAck"

# Micro-event kinds (4th tuple field of the internal heap entries).
_SWEEP = 0        # obj = _LaneEntry: periodic neighbor sweep
_ATTEMPT = 1      # obj = _Flight: ping transmission attempt (A -> B)
_DELIVER = 2      # obj = _Flight: ping arrival at the neighbor
_ACK_ATTEMPT = 3  # obj = _Flight: ack transmission attempt (B -> A)
_ACK_DELIVER = 4  # obj = _Flight: ack arrival back at the pinger
_RETRY = 5        # obj = _Flight: ping retransmission (state in _retries)
_ACK_RETRY = 6    # obj = _Flight: ack retransmission (state in _retries)
_IDLE = 7         # flight has no pending progress event (timeout only)

# Flight kind -> (scalar dispatch label, ack leg?, delivery?) of the
# pending progress event, for materialization.
_PROGRESS = {
    _ATTEMPT: (_TX_PING, False, False),
    _DELIVER: (_RX_PING, False, True),
    _ACK_ATTEMPT: (_TX_ACK, True, False),
    _ACK_DELIVER: (_RX_ACK, True, True),
    _RETRY: (_RTX_PING, False, False),
    _ACK_RETRY: (_RTX_ACK, True, False),
}

EJECT_CAUSES = ("flush", "retries_exhausted", "ping_timeout", "table_change", "teardown")


def resolve_lanes_mode(override=None) -> str:
    """Resolve the liveness-lanes mode: ``"on"`` or ``"off"``.

    ``override`` (a ``FuseWorld(liveness_lanes=...)`` argument) wins when
    given: ``True``/``False`` or one of the two mode strings.  Otherwise
    the ``REPRO_LIVENESS_LANES`` environment variable decides (default
    on).  Anything else raises :class:`ValueError`.
    """
    if override is True:
        return "on"
    if override is False:
        return "off"
    mode = os.environ.get("REPRO_LIVENESS_LANES", "on") if override is None else override
    if mode not in ("on", "off"):
        raise ValueError(f"liveness-lanes mode must be 'on' or 'off', got {mode!r}")
    return mode


class _Flight:
    """One ping round trip of a laned node.

    ``rec`` is the owning entry's per-neighbor snapshot tuple:
    ``(nbr_id, nbr_node, nbr_host, pair, route_out, route_back,
    lat_out, loss_out, lat_back, loss_back, nbr_collect, nbr_watched,
    nbr_ping_listeners)``.
    """

    __slots__ = (
        "entry", "rec", "nonce", "payload", "ack_payload",
        "first_contact", "ack_first_contact", "b_inc",
        "kind", "when", "seq", "timeout_when", "timeout_seq", "live",
    )

    def __init__(self, entry, rec, nonce, payload, first_contact,
                 when, seq, timeout_when, timeout_seq) -> None:
        self.entry = entry
        self.rec = rec
        self.nonce = nonce
        self.payload = payload
        self.ack_payload = None
        self.first_contact = first_contact
        self.ack_first_contact = False
        self.b_inc = 0
        self.kind = _ATTEMPT
        self.when = when
        self.seq = seq
        self.timeout_when = timeout_when
        self.timeout_seq = timeout_seq
        self.live = True


class _LaneEntry:
    """Per-node lane state: neighbor snapshots and the virtual sweep."""

    __slots__ = (
        "node", "host", "src", "inc", "recs", "outstanding",
        "collect", "watched", "listeners",
        "sweep_when", "sweep_seq", "sweep_label", "timeout_label", "live",
    )

    def __init__(self, node, recs, sweep_label, timeout_label) -> None:
        self.node = node
        self.host = node.host
        self.src = node.host.node_id
        self.inc = node.host.incarnation
        self.recs = recs
        # Payload collection, snapped at absorb time: the single FUSE
        # provider and its watched mapping directly when that is the
        # whole chain (the standard wiring), the generic merge otherwise.
        # Lane callers normalize falsy contributions to the shared empty
        # payload, exactly like OverlayNode._collect_payload.
        # register_payload_provider flushes every lane, so the snapshot
        # cannot go stale.
        self.collect, self.watched = _collector(node)
        # The live (listener, watched) list object (appends stay visible).
        self.listeners = node._ping_listeners
        self.outstanding = {}
        self.sweep_when = 0.0
        self.sweep_seq = -1
        self.sweep_label = sweep_label
        self.timeout_label = timeout_label
        self.live = True


def _collector(node):
    """``(collect, watched)`` for a node's payload providers: the single
    provider and its watched mapping, or the generic merge (which applies
    every provider's mapping itself) with ``None``."""
    providers = node._payload_providers
    if len(providers) == 1:
        return providers[0]
    return node._collect_payload, None


def _guarded_sweep(host, inc, sweep):
    """Recreate Host.call_after's incarnation guard for a sweep timer."""
    def guarded():
        if host.alive and host.incarnation == inc:
            sweep()
    return guarded


def _guarded_timeout(host, inc, node, nbr, nonce):
    """The guarded ping-timeout callback the scalar path would have."""
    def guarded():
        if host.alive and host.incarnation == inc:
            node._on_ping_timeout(nbr, nonce)
    return guarded


def _ping_on_fail(node, nbr, nonce):
    """The on_fail callback a scalar ping send carries."""
    return lambda *_: node._on_ping_broken(nbr, nonce)


class LanePlane:
    """The lane scheduler attached to one simulator/overlay pair."""

    def __init__(self, sim, net, overlay) -> None:
        self._sim = sim
        self._net = net
        self._overlay = overlay

        queue = sim.queue
        self._queue = queue
        self._heap = queue._heap
        self._pending = queue._pending
        self._next_seq = queue._seq
        self._clock = sim.clock
        self._trace = sim.trace

        self._topology = net.topology
        self._faults = net.faults
        self._gen = self._topology.generation
        self._fault_gen = self._faults.mutation_count
        self._faults_clear = not self._faults.any_faults()

        config = net.config
        self._send_oh = config.send_overhead_ms
        self._recv_oh = config.recv_overhead_ms
        self._jitter = config.jitter_fraction
        self._setup2 = config.connection_setup_rtts * 2.0
        ocfg = overlay.config
        self._period = ocfg.ping_period_ms
        self._timeout = ocfg.ping_timeout_ms

        self._busy = net._send_busy_until
        self._connections = net._connections
        self._rng_random = net._rng.random
        self._ctr_messages = net._ctr_messages
        self._ctr_bytes = net._ctr_bytes
        self._ctr_deliveries = net._ctr_deliveries
        self._ctr_transmissions = net._ctr_transmissions
        # Per-type counters are resolved lazily so they are *created* at
        # the same virtual instant the scalar path would create them
        # (Counter._started_at is observable via rate_per_second()).
        self._ctr_ping = None
        self._ctr_ack = None

        self._entries = {}          # OverlayNode -> _LaneEntry
        self._q = []                # heap of (when, seq, kind, obj)
        self._timeouts = deque()    # flights in timeout-deadline order
        # Virtual sweep timers.  A sweep reschedule is always now+period
        # issued in dispatch order, so sweep_when (and sweep_seq) are
        # monotone in append order: a FIFO deque replaces a heap, and the
        # micro-heap holds only in-flight transmissions — hundreds at
        # 16,000 nodes instead of one entry per node.
        self._sweeps = deque()      # entries in sweep-deadline order
        # Flights with a retransmission pending (kind _RETRY/_ACK_RETRY)
        # -> their _SendAttemptState mid-backoff.  Touched only when an
        # attempt is lost, so the loss-free path carries no retry state.
        self._retries = {}
        self._suspended = False

        # Introspection for benchmarks/tests.
        self.micro_dispatched = 0
        self.absorbs = 0
        self.ejects_by_cause = dict.fromkeys(EJECT_CAUSES, 0)
        self.flushes = 0

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    def suspend(self) -> None:
        """Stop absorbing (bootstrap join storms churn tables too fast
        for lanes to pay off); already-laned nodes are flushed."""
        self._suspended = True
        self.flush()

    def resume(self) -> None:
        self._suspended = False

    @property
    def lane_count(self) -> int:
        return len(self._entries)

    def is_laned(self, node) -> bool:
        return node in self._entries

    @property
    def ejects(self) -> int:
        return sum(self.ejects_by_cause.values())

    def stats(self) -> dict:
        return {
            "laned_nodes": len(self._entries),
            "micro_events_dispatched": self.micro_dispatched,
            "absorbs": self.absorbs,
            "ejects": self.ejects,
            "ejects_by_cause": dict(self.ejects_by_cause),
            "flushes": self.flushes,
        }

    # ------------------------------------------------------------------
    # Absorption
    # ------------------------------------------------------------------
    def try_absorb(self, node) -> bool:
        """Absorb ``node`` at the top of its (real) sweep dispatch.

        Returns True when the node was absorbed — the caller's sweep body
        has then already been executed virtually, including scheduling
        the next sweep.  Returns False when the node must stay scalar.
        """
        if self._suspended or node in self._entries:
            return False
        if node._outstanding_pings:
            return False  # something already in flight: stay scalar
        self._check_invalidations()
        faults = self._faults
        if faults.has_perf_faults():
            # Latency-inflation / bandwidth-contention windows change
            # packet timing per endpoint — heterogeneity the batched
            # micro-engine does not model.  Stay scalar until the window
            # heals (installing it flushed every lane; absorption resumes
            # at the first sweep after the heal).  Gray failure needs no
            # refusal: it only drops application-class messages, and the
            # lane plane replays nothing but liveness pings and acks,
            # which gray nodes answer by definition.
            return False
        nbr_ids = node._neighbor_ids()
        if not nbr_ids:
            return False
        net = self._net
        hosts = net._hosts
        overlay = self._overlay
        routes = net.routes
        route_cache = routes._routes
        src = node.host.node_id
        recs = []
        for nbr in nbr_ids:
            nbr_host = hosts.get(nbr)
            name = overlay._name_by_id.get(nbr)
            nbr_node = overlay._nodes.get(name) if name is not None else None
            if nbr_host is None or nbr_node is None or nbr_node.host is not nbr_host:
                return False
            # The lane delivers pings/acks by calling the overlay handlers
            # directly; verify they are the registered handlers so any
            # exotic re-wiring keeps the fully generic scalar path.
            if nbr_host._handlers.get("OverlayPing") != nbr_node._on_ping:
                return False
            route_out = route_cache.get((src, nbr))
            if route_out is None:
                route_out = routes.route(src, nbr)
            route_back = route_cache.get((nbr, src))
            if route_back is None:
                route_back = routes.route(nbr, src)
            if route_out.current_burst() or route_back.current_burst():
                # Stateful (Gilbert-Elliott) loss on either direction:
                # each traversal advances a per-link Markov chain, so the
                # lane's memoryless replay would diverge.  Installing a
                # burst bumps the topology generation, which flushes every
                # lane (_check_invalidations); this guard keeps the node
                # from being re-absorbed while the burst is live.
                return False
            pair = (src, nbr) if src <= nbr else (nbr, src)
            recs.append((
                nbr, nbr_node, nbr_host, pair, route_out, route_back,
                route_out.current_latency(), route_out.current_loss(),
                route_back.current_latency(), route_back.current_loss(),
                *_collector(nbr_node), nbr_node._ping_listeners,
            ))
        if node.host._handlers.get("OverlayPingAck") != node._on_ping_ack:
            return False
        entry = _LaneEntry(
            node, tuple(recs),
            f"{node.name}:sweep", f"{node.name}:ping-timeout",
        )
        self._entries[node] = entry
        self.absorbs += 1
        # Run the sweep that is dispatching right now as the first
        # virtual one (the kernel already counted/traced its dispatch).
        self._do_sweep(entry, self._clock._now)
        return True

    # ------------------------------------------------------------------
    # Ejection
    # ------------------------------------------------------------------
    def eject_node(self, node, cause: str) -> bool:
        """Return ``node`` to the scalar path, materializing its virtual
        timers and in-flight transmissions onto the main heap.  ``cause``
        (one of :data:`EJECT_CAUSES`) says where the eject originates."""
        entry = self._entries.pop(node, None)
        if entry is None:
            return False
        self._materialize(entry)
        self.ejects_by_cause[cause] += 1
        return True

    def flush(self) -> None:
        """Eject every laned node (a lane snapshot went stale)."""
        entries = self._entries
        if not entries:
            return
        for entry in list(entries.values()):
            self._materialize(entry)
        self.ejects_by_cause["flush"] += len(entries)
        entries.clear()
        self.flushes += 1
        # Every queued micro-event is now stale; drop them eagerly.
        self._q.clear()
        self._timeouts.clear()
        self._sweeps.clear()

    def _check_invalidations(self) -> None:
        gen = self._topology.generation
        faults = self._faults
        fault_gen = faults.mutation_count
        if fault_gen != self._fault_gen:
            # Fault state is read live per micro-event (can_communicate,
            # host.alive, incarnation), so a mutation only refreshes the
            # faults_clear fast path and the connection set, which
            # crash/disconnect purge by *rebinding*
            # (Network._purge_connections).  Nobody is ejected unless the
            # mutation opened a performance-fault window.
            self._fault_gen = fault_gen
            self._faults_clear = not faults.any_faults()
            self._connections = self._net._connections
            if faults.has_perf_faults():
                self.flush()
        if gen != self._gen:
            # Latency/loss snapshots are stale: everyone goes back to the
            # scalar path and re-forms lanes (with fresh snapshots) at
            # their next sweep.
            self._gen = gen
            self.flush()

    def _materialize(self, entry) -> None:
        """Push the entry's virtual events onto the real heap with their
        recorded (when, seq), recreating exactly the handles, closures,
        and retransmission state the scalar path would be holding."""
        entry.live = False
        node = entry.node
        host = entry.host
        inc = entry.inc
        queue = self._queue
        heap = self._heap
        pending = self._pending
        retries = self._retries
        clock = self._clock
        tracing = self._trace is not None

        if entry.sweep_seq >= 0:
            cb = _guarded_sweep(host, inc, node._sweep)
            heappush(heap, (entry.sweep_when, entry.sweep_seq, cb, entry.sweep_label))
            pending.add(entry.sweep_seq)
            node._sweep_timer = TimerHandle(
                queue, clock, entry.sweep_seq, entry.sweep_when, cb, entry.sweep_label
            )
            entry.sweep_seq = -1

        for f in entry.outstanding.values():
            nbr = f.rec[0]
            # The outstanding-ping record and its timeout timer.
            tcb = _guarded_timeout(host, inc, node, nbr, f.nonce)
            heappush(heap, (f.timeout_when, f.timeout_seq, tcb, entry.timeout_label))
            pending.add(f.timeout_seq)
            node._outstanding_pings[nbr] = (
                f.nonce,
                TimerHandle(queue, clock, f.timeout_seq, f.timeout_when, tcb,
                            entry.timeout_label),
            )
            # The in-flight leg, if any (_IDLE: dead receiver / dead
            # sender leg / broken connection — only the timeout remains).
            if f.kind != _IDLE:
                label, ack, delivers = _PROGRESS[f.kind]
                state = retries.pop(f, None) or self._send_state(f, ack)
                heappush(heap, (
                    f.when, f.seq,
                    state._deliver_now if delivers else state.attempt,
                    label if tracing else "",
                ))
                pending.add(f.seq)
            f.live = False
        entry.outstanding.clear()

    # ------------------------------------------------------------------
    # The dispatch loop of a laned world
    # ------------------------------------------------------------------
    def advance(self, until: Optional[float], budget: Optional[int],
                predicate: Optional[Callable[[], bool]] = None) -> int:
        """Dispatch the main heap's events and the micro-events in global
        ``(when, seq)`` order: the simulator's dispatch loop while any
        node is laned.  A heap event is dispatched in place, exactly as
        the kernel's own loop does it.

        Returns the number of events dispatched, heap and micro alike
        (:attr:`micro_dispatched` counts only the latter), when the next
        event lies past ``until``, ``budget`` events were dispatched,
        ``predicate()`` (checked after each event; never given with a
        budget) held, :meth:`Simulator.stop` was called, or no node is
        laned any more; only that last return leaves the predicate
        unchecked for the last event, to the kernel's loop.

        This is the hottest loop in the simulator at scale (~95% of all
        dispatches in a 16,000-node steady window), so the four flight
        bodies are inlined with their shared state hoisted to locals, and
        the timeout/sweep FIFOs are folded into a cached *barrier* key —
        the earliest live head of either queue.  Flight dispatches never
        add an earlier timeout or sweep (both queues are monotone and
        only :meth:`_do_sweep` appends), so the cache can only go stale
        *early* — a completed flight dying at the timeout head — which
        the validation step below resolves before acting on it.  A heap
        event that absorbs a node recomputes the barrier, and a fault or
        topology change refreshes what the locals hold."""
        self._check_invalidations()
        if not self._entries:
            return 0
        sim = self._sim
        faults = self._faults
        q = self._q
        tq = self._timeouts
        sq = self._sweeps
        heap = self._heap
        pending = self._pending
        clock = self._clock
        trace = self._trace
        hpop = heappop
        hpush = heappush
        nxt = self._next_seq.__next__
        rng = self._rng_random
        jit_frac = self._jitter
        recv_oh = self._recv_oh
        setup2 = self._setup2
        send_oh = self._send_oh
        busy_map = self._busy
        connections = self._connections
        faults_clear = self._faults_clear
        can_comm = faults.can_communicate
        ctr_trans = self._ctr_transmissions
        ctr_deliv = self._ctr_deliveries
        ctr_msgs = self._ctr_messages
        ctr_bytes = self._ctr_bytes
        ctr_ack = self._ctr_ack
        inf = float("inf")
        until_f = inf if until is None else until
        # The dispatch count at which to stop (budget) or, with a
        # predicate, to check it next (the caller checked it already).
        limit = 1 if predicate is not None else (inf if budget is None else budget)
        dispatched = 0
        real = 0
        # Cache of the real heap's head, invalidated by length change and
        # after every heap dispatch: every push (a lane-called listener
        # scheduling real work, a drop materializing a retry) grows the
        # heap.  A pure cancel leaves the length unchanged, so the head is
        # re-validated before it is dispatched; a cancelled one can only
        # make the cached key *conservative*, never miss an earlier event.
        real_len = -1
        real_when = inf
        real_seq = 0
        real_entry = None
        absorbs = self.absorbs

        def barrier():
            """(when, seq, timeout_flight, sweep_entry) of the earliest
            live timeout/sweep head; (inf, 0, None, None) when empty."""
            while tq and not tq[0].live:
                tq.popleft()
            while sq and not sq[0].live:
                sq.popleft()
            if tq:
                fl = tq[0]
                if sq:
                    en = sq[0]
                    if en.sweep_when < fl.timeout_when or (
                        en.sweep_when == fl.timeout_when
                        and en.sweep_seq < fl.timeout_seq
                    ):
                        return en.sweep_when, en.sweep_seq, None, en
                return fl.timeout_when, fl.timeout_seq, fl, None
            if sq:
                en = sq[0]
                return en.sweep_when, en.sweep_seq, None, en
            return inf, 0, None, None

        b_when, b_seq = barrier()[:2]

        # The stop flag can only change inside bodies that run user code
        # (heap events, listeners, sweeps): those re-check it and set
        # limit to end the loop, so the hot iterations skip the lookup.
        while True:
            head = None
            if q:
                head = q[0]
                if not head[3].live:
                    hpop(q)
                    continue
                when = head[0]
                seq = head[1]
                if b_when < when or (b_when == when and b_seq < seq):
                    head = None
                    when = b_when
                    seq = b_seq
            else:
                if b_when == inf:
                    break  # nobody is laned: the kernel's loop takes over
                when = b_when
                seq = b_seq
            if dispatched >= limit:
                if predicate is None or predicate() or sim._stop_requested:
                    break
                limit = dispatched + 1
            # Does a real event come first?
            if len(heap) != real_len:
                while heap:
                    real_entry = heap[0]
                    if real_entry[1] in pending:
                        break
                    hpop(heap)
                real_len = len(heap)
                if real_len:
                    real_when = real_entry[0]
                    real_seq = real_entry[1]
                else:
                    real_when = inf
            if real_when < when or (real_when == when and real_seq < seq):
                if real_when > until_f:
                    break
                if heap[0] is not real_entry or real_seq not in pending:
                    real_len = -1  # cancelled since it was cached
                    continue
                # The kernel's dispatch of a heap event, in place.
                hpop(heap)
                pending.remove(real_seq)
                clock._now = real_when
                if trace is not None:
                    trace.record("dispatch", real_entry[3])
                real_entry[2]()
                dispatched += 1
                real += 1
                # Re-read what the event can have changed.  Of its lane
                # work, only an absorb can queue a timeout or sweep before
                # the cached barrier; ejects and flushes kill heads, which
                # the barrier validation skips.
                if (faults.mutation_count != self._fault_gen
                        or self._topology.generation != self._gen):
                    self._check_invalidations()
                    faults_clear = self._faults_clear
                    connections = self._connections
                if self.absorbs != absorbs:
                    absorbs = self.absorbs
                    b_when, b_seq = barrier()[:2]
                real_len = -1
                if sim._stop_requested:
                    limit = dispatched
                continue
            if when > until_f:
                break

            if head is None:
                # Barrier (timeout or sweep).  Validate first: the cached
                # key goes stale-early when the head flight completed.
                nw, ns, nt, nsw = barrier()
                if nw != b_when or ns != b_seq:
                    b_when = nw
                    b_seq = ns
                    continue
                if nt is not None:
                    # A pending-ack timeout is about to fire: suspicion
                    # is "interesting", so the node rejoins the scalar
                    # path and the kernel dispatches the materialized
                    # timer normally.
                    self.eject_node(nt.entry.node, "ping_timeout")
                    b_when, b_seq = barrier()[:2]
                    continue
                sq.popleft()
                clock._now = when
                dispatched += 1
                if trace is not None:
                    trace.record("dispatch", nsw.sweep_label)
                nsw.sweep_seq = -1
                self._do_sweep(nsw, when)
                b_when, b_seq = barrier()[:2]
                if sim._stop_requested:
                    limit = dispatched
                continue

            hpop(q)
            kind = head[2]
            f = head[3]
            clock._now = when
            dispatched += 1
            if kind == _ATTEMPT:
                # Mirror of _SendAttemptState.attempt (outbound ping).
                if trace is not None:
                    trace.record("dispatch", _TX_PING)
                entry = f.entry
                host = entry.host
                if not host.alive or host.incarnation != entry.inc:
                    f.kind = _IDLE  # unreachable while laned; fidelity
                    continue
                ctr_trans.value += 1
                rec = f.rec
                if (faults_clear or can_comm(entry.src, rec[0])) and not (
                    rng() < rec[7]
                ):
                    latency = rec[6]
                    # uniform(0, j) is 0 + (j-0)*random() in CPython, so
                    # j*random() is the same draw and the same bits.
                    jit = jit_frac * rng() * latency
                    if f.first_contact:
                        connections.add(rec[3])
                        arrival = when + setup2 * latency + latency + jit + recv_oh
                    else:
                        arrival = when + latency + jit + recv_oh
                    seq2 = nxt()
                    f.kind = _DELIVER
                    f.when = arrival
                    f.seq = seq2
                    hpush(q, (arrival, seq2, _DELIVER, f))
                else:
                    # Lost: cold path retries in-lane, or breaks and ejects
                    # (barrier cache can only have gone stale-early).
                    self._segment_lost(f, False, when)
            elif kind == _DELIVER:
                # Mirror of Network._deliver + Host.deliver + _on_ping.
                if trace is not None:
                    trace.record("dispatch", _RX_PING)
                rec = f.rec
                nbr_host = rec[2]
                if not nbr_host.alive:
                    # Receiver is down: the ping vanishes; only the
                    # timeout remains.
                    f.kind = _IDLE
                    continue
                ctr_deliv.value += 1
                entry = f.entry
                src = entry.src
                watched = rec[11]
                ack_payload = (
                    rec[10](src) if watched is None or src in watched else None
                )
                if not ack_payload:
                    ack_payload = _EMPTY_PAYLOAD
                # host.send(sender, OverlayPingAck(...)) mirror (no
                # on_fail).
                ctr_msgs.value += 1
                if ctr_ack is None:
                    ctr_ack = self._net._type_counter("OverlayPingAck")
                    self._ctr_ack = ctr_ack
                ctr_ack.value += 1
                ctr_bytes.value += _ACK_BYTES
                nbr = rec[0]
                busy = busy_map.get(nbr)
                if busy is None or busy < when:
                    busy = when
                inject = busy + send_oh
                busy_map[nbr] = inject
                f.ack_payload = ack_payload
                f.ack_first_contact = rec[3] not in connections
                f.b_inc = nbr_host.incarnation
                seq2 = nxt()
                f.kind = _ACK_ATTEMPT
                f.when = inject
                f.seq = seq2
                hpush(q, (inject, seq2, _ACK_ATTEMPT, f))
                # Listeners run after the ack send, exactly like _on_ping.
                payload = f.payload
                for listener, watched in rec[12]:
                    if payload or watched is None or src in watched:
                        listener(src, payload, False)
                if sim._stop_requested:
                    limit = dispatched
            elif kind == _ACK_ATTEMPT:
                # Mirror of _SendAttemptState.attempt (returning ack).
                if trace is not None:
                    trace.record("dispatch", _TX_ACK)
                rec = f.rec
                nbr_host = rec[2]
                if not nbr_host.alive or nbr_host.incarnation != f.b_inc:
                    f.kind = _IDLE  # responder died mid-send
                    continue
                ctr_trans.value += 1
                entry = f.entry
                if (faults_clear or can_comm(rec[0], entry.src)) and not (
                    rng() < rec[9]
                ):
                    latency = rec[8]
                    jit = jit_frac * rng() * latency
                    if f.ack_first_contact:
                        connections.add(rec[3])
                        arrival = when + setup2 * latency + latency + jit + recv_oh
                    else:
                        arrival = when + latency + jit + recv_oh
                    seq2 = nxt()
                    f.kind = _ACK_DELIVER
                    f.when = arrival
                    f.seq = seq2
                    hpush(q, (arrival, seq2, _ACK_DELIVER, f))
                else:
                    self._segment_lost(f, True, when)
            elif kind == _ACK_DELIVER:
                # Mirror of Network._deliver + OverlayNode._on_ping_ack.
                if trace is not None:
                    trace.record("dispatch", _RX_ACK)
                entry = f.entry
                if not entry.host.alive:
                    f.kind = _IDLE
                    continue
                ctr_deliv.value += 1
                rec = f.rec
                # The virtual outstanding record matches by construction
                # (one flight per neighbor, same nonce); cancelling the
                # virtual timeout is dropping the flight.
                nbr = rec[0]
                del entry.outstanding[nbr]
                f.live = False
                payload = f.ack_payload
                for listener, watched in entry.listeners:
                    if payload or watched is None or nbr in watched:
                        listener(nbr, payload, True)
                if sim._stop_requested:
                    limit = dispatched
            else:
                self._retry(f, kind == _ACK_RETRY, when)

        self.micro_dispatched += dispatched - real
        return dispatched

    # ------------------------------------------------------------------
    # Micro-event bodies (exact mirrors of the scalar code paths)
    # ------------------------------------------------------------------
    def _do_sweep(self, entry, now: float) -> None:
        """Mirror of OverlayNode._sweep plus Network.send per neighbor."""
        node = entry.node
        outstanding = entry.outstanding
        nxt = self._next_seq.__next__
        timeout_when = now + self._timeout
        oh = self._send_oh
        busy_map = self._busy
        base = busy_map.get(entry.src)
        if base is None or base < now:
            base = now
        q = self._q
        tq = self._timeouts
        ctr_messages = self._ctr_messages
        ctr_ping = self._ctr_ping
        ctr_bytes = self._ctr_bytes
        connections = self._connections
        collect = entry.collect
        watched = entry.watched
        nonce_next = node._ping_nonce.__next__
        recs = entry.recs

        if outstanding:
            send_recs = [rec for rec in recs if rec[0] not in outstanding]
        else:
            send_recs = recs
        if send_recs and ctr_ping is None:
            ctr_ping = self._net._type_counter("OverlayPing")
            self._ctr_ping = ctr_ping

        hpush = heappush
        inject = base
        for rec in send_recs:
            inject = inject + oh
            nonce = nonce_next()
            nbr = rec[0]
            payload = collect(nbr) if watched is None or nbr in watched else None
            if not payload:
                payload = _EMPTY_PAYLOAD
            timeout_seq = nxt()
            # Network.send mirror: counters, busy chain, first contact.
            ctr_messages.value += 1
            ctr_ping.value += 1
            ctr_bytes.value += _PING_BYTES
            attempt_seq = nxt()
            f = _Flight(
                entry, rec, nonce, payload, rec[3] not in connections,
                inject, attempt_seq, timeout_when, timeout_seq,
            )
            outstanding[nbr] = f
            hpush(q, (inject, attempt_seq, _ATTEMPT, f))
            tq.append(f)
        if send_recs:
            busy_map[entry.src] = inject
        # Reschedule the sweep (scalar: host.call_after(period, _sweep)).
        # now+period in dispatch order is monotone: append, don't heap.
        sweep_seq = nxt()
        entry.sweep_when = now + self._period
        entry.sweep_seq = sweep_seq
        self._sweeps.append(entry)

    # ------------------------------------------------------------------
    # Retransmission (cold: runs only when an attempt was lost)
    # ------------------------------------------------------------------
    def _send_state(self, f, ack: bool) -> _SendAttemptState:
        """The attempt-0 scalar send state of ``f``'s ping (or ack) leg."""
        entry = f.entry
        rec = f.rec
        if ack:
            msg = OverlayPingAck(f.nonce, f.ack_payload)
            msg.sender = rec[0]
            return _SendAttemptState(
                self._net, rec[0], entry.src, msg, rec[5], f.ack_first_contact,
                None, f.b_inc,
            )
        msg = OverlayPing(f.nonce, f.payload)
        msg.sender = entry.src
        return _SendAttemptState(
            self._net, entry.src, rec[0], msg, rec[4], f.first_contact,
            _ping_on_fail(entry.node, rec[0], f.nonce), entry.inc,
        )

    def _segment_lost(self, f, ack: bool, now: float, state=None) -> None:
        """A ping (or ack) attempt was lost.  The scalar retry-or-break
        routine advances the backoff; the retry becomes a micro-event
        with the sequence number the scalar push would draw.  Retries
        exhausted, that routine has broken the connection and scheduled
        the sender's failure callback: the node ejects so the callback
        finds its outstanding-ping record on the scalar side."""
        if state is None:
            state = self._send_state(f, ack)
        delay = state._segment_lost()
        if delay is None:
            f.kind = _IDLE
            self.eject_node(f.entry.node, "retries_exhausted")
            return
        self._retries[f] = state
        seq = next(self._next_seq)
        f.kind = _ACK_RETRY if ack else _RETRY
        f.when = now + delay
        f.seq = seq
        heappush(self._q, (f.when, seq, f.kind, f))

    def _retry(self, f, ack: bool, now: float) -> None:
        """A retransmission comes due: the two attempt branches of
        :meth:`advance`, for either leg, with the backoff state at hand."""
        state = self._retries.pop(f)
        if self._trace is not None:
            self._trace.record("dispatch", _RTX_ACK if ack else _RTX_PING)
        rec = f.rec
        if ack:
            host, inc, first = rec[2], f.b_inc, f.ack_first_contact
            latency, loss = rec[8], rec[9]
        else:
            host, inc, first = f.entry.host, f.entry.inc, f.first_contact
            latency, loss = rec[6], rec[7]
        if not host.alive or host.incarnation != inc:
            f.kind = _IDLE  # sender died mid-backoff
            return
        self._ctr_transmissions.value += 1
        rng = self._rng_random
        if (
            self._faults_clear or self._faults.can_communicate(state.src, state.dst)
        ) and not (rng() < loss):
            jit = self._jitter * rng() * latency
            extra = 0.0
            if first:
                self._connections.add(rec[3])
                extra = self._setup2 * latency
            arrival = now + extra + latency + jit + self._recv_oh
            seq = next(self._next_seq)
            f.kind = _ACK_DELIVER if ack else _DELIVER
            f.when = arrival
            f.seq = seq
            heappush(self._q, (arrival, seq, f.kind, f))
        else:
            self._segment_lost(f, ack, now, state)

    def __repr__(self) -> str:
        return (
            f"LanePlane(lanes={len(self._entries)}, "
            f"micro={self.micro_dispatched}, ejects={self.ejects})"
        )
