"""LiveNetwork: the message fabric over real asyncio UDP datagrams.

Same contract as the simulated :class:`repro.net.network.Network` (both
implement :class:`repro.net.backends.base.NetworkBackend`): hosts call
``send`` and either the destination's handler runs exactly once or
``on_fail`` fires after retries exhaust.  The reliability layer mirrors
the simulator's TCP model on top of datagrams — per-pair sequence
numbers, receiver acks, retransmission at exponentially backed-off
virtual RTOs, a broken "connection" after ``max_retries`` — so one
:class:`~repro.net.transport.TransportConfig` tunes both backends; the
wire applies its RTO, backoff, retry count and jitter.

Fault injection happens on the wire, at the codec boundary of the
*receiving* endpoint:

* partition / block / disconnect — ``faults.can_communicate(src, dst)``
  fails ⇒ the datagram is silently dropped *before* the ack, so the
  sender retries into the void and eventually breaks the connection,
  exactly like the simulator's lossy path;
* loss / burst loss — a uniform draw plus a lazily-created per-pair
  Gilbert-Elliott chain (:class:`LiveLossModel`), again pre-ack;
* gray failure — the frame is acked (transport succeeded) but
  non-liveness messages are dropped before dispatch, bumping the same
  lazy ``net.gray_drops`` counter as the sim;
* crash — :meth:`LiveNetwork.crash_host` closes the victim's UDP socket,
  so in-flight and future frames hit a dead port;
* latency — delivery is deferred by :data:`PATH_LATENCY_MS` scaled by
  ``faults.latency_factor`` (localhost is effectively instant, so the
  synthetic latency stands in for the simulated topology's paths).

Known deviations from the simulator (see docs/BACKENDS.md): no per-send
CPU-occupancy model (real serialization time replaces it, so the config's
send/receive overheads are unused), no TCP connection-setup round trip,
and acks are exempt from fault checks — the simulator models a
message's whole reliable exchange as one draw, so applying faults to the
data frame alone is what preserves parity.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Set, Tuple, TYPE_CHECKING

from repro.net.address import NodeId
from repro.net.backends import codec
from repro.net.backends.base import NetworkBackend, SendAttempt
from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.net.topology import GilbertElliott, _validate_probability
from repro.net.transport import TransportConfig
from repro.sim.metrics import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.backends.asynckernel import AsyncioKernel

FailureCallback = Callable[[NodeId, Message], None]

_PairKey = Tuple[NodeId, NodeId]

#: Virtual one-way latency added to every delivery, standing in for the
#: simulated topology's path latency.
PATH_LATENCY_MS = 30.0


class LiveLossModel:
    """Wire-side stand-in for the :class:`repro.net.topology.Topology` knobs
    scenario tracks touch: uniform loss and Gilbert-Elliott burst loss.

    There are no modeled links on localhost, so burst chains are created
    lazily per communicating (src, dst) pair — each pair gets its own
    chain state, the live analogue of per-link chains.
    """

    def __init__(self) -> None:
        self._uniform_loss = 0.0
        self._burst_params: Optional[Tuple[float, float, float, float]] = None
        self._chains: Dict[_PairKey, GilbertElliott] = {}

    def set_uniform_loss(self, loss: float) -> None:
        self._uniform_loss = _validate_probability(loss, "loss")

    def current_loss(self, src: NodeId, dst: NodeId) -> float:
        return self._uniform_loss

    def set_uniform_burst(
        self,
        p_g2b: float,
        p_b2g: float,
        loss_good: float = 0.0,
        loss_bad: float = 0.3,
    ) -> int:
        self._burst_params = (
            _validate_probability(p_g2b, "p_g2b"),
            _validate_probability(p_b2g, "p_b2g"),
            _validate_probability(loss_good, "loss_good"),
            _validate_probability(loss_bad, "loss_bad"),
        )
        self._chains.clear()
        return 0  # chains materialize lazily per pair

    def clear_burst(self) -> int:
        count = len(self._chains)
        self._burst_params = None
        self._chains.clear()
        return count

    @property
    def burst_link_count(self) -> int:
        return len(self._chains)

    def sample_burst(self, src: NodeId, dst: NodeId, rng) -> bool:
        params = self._burst_params
        if params is None:
            return False
        pair = (src, dst)
        chain = self._chains.get(pair)
        if chain is None:
            chain = self._chains[pair] = GilbertElliott(*params)
        return chain.sample(rng)


class _DedupeWindow:
    """Per-pair receiver dedupe: watermark + sparse out-of-order set."""

    __slots__ = ("watermark", "pending")

    def __init__(self) -> None:
        self.watermark = -1  # every seq <= watermark already delivered
        self.pending: Set[int] = set()

    def seen(self, seq: int) -> bool:
        return seq <= self.watermark or seq in self.pending

    def add(self, seq: int) -> None:
        self.pending.add(seq)
        while self.watermark + 1 in self.pending:
            self.watermark += 1
            self.pending.discard(self.watermark)


class _LivePending(SendAttempt):
    """Retransmission state for one unacked data frame."""

    __slots__ = ("seq", "frame", "type_name", "timer")

    def __init__(
        self,
        network: "LiveNetwork",
        src: NodeId,
        dst: NodeId,
        seq: int,
        frame: bytes,
        type_name: str,
        on_fail: Optional[FailureCallback],
        src_incarnation: int,
    ) -> None:
        super().__init__(network, src, dst, on_fail, src_incarnation)
        self.seq = seq
        self.frame = frame
        self.type_name = type_name
        self.timer = None

    @property
    def message(self) -> Message:
        # Decode the retained frame so the failure callback sees the same
        # message object shape a receiver would have.
        _, _, _, _, message = codec.decode_frame(self.frame)
        assert message is not None
        return message

    def transmit(self) -> None:
        net = self.network
        net._ctr_transmissions.value += 1
        net._sendto(self.src, self.dst, self.frame)
        # The RTO counts from the wall instant the datagram leaves: inside
        # a batch that runs late the frozen clock lags it, which would
        # shorten the timeout by the lateness.
        sim = net.sim
        self.timer = sim.call_at(
            sim.clock.wall_ms() + self.rto_ms, self._on_timeout, label=f"rto:{self.type_name}"
        )

    def retire(self) -> None:
        """Stop retransmitting: cancel the timer and forget the frame."""
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None  # the handle keeps _on_timeout: a cycle
        self.network._pending.pop((self.src, self.dst, self.seq), None)

    def acked(self) -> None:
        # Only a pending frame is found by its ack: retire() forgets it.
        self.retire()
        self.network._mark_connected(self.src, self.dst)

    def _on_timeout(self) -> None:
        self.timer = None  # a fired handle keeps this bound method
        sender = self.network._hosts[self.src]
        if not sender.alive or sender.incarnation != self.src_incarnation:
            self.retire()
            return
        # The wire retransmits at once, so the returned delay is unused:
        # the next timeout is the backed-off rto_ms.
        if self._segment_lost() is None:
            self.retire()  # the connection broke; on_fail is scheduled
            return
        self.transmit()


class _UdpProtocol(asyncio.DatagramProtocol):
    def __init__(self, network: "LiveNetwork", node_id: NodeId) -> None:
        self.network = network
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        self.network._on_datagram(self.node_id, data)

    def error_received(self, exc) -> None:
        # ICMP port-unreachable from a crashed peer's closed socket:
        # exactly the silence the retry machinery is built for.
        pass


class LiveNetwork(NetworkBackend):
    """Message fabric over per-host UDP endpoints on 127.0.0.1."""

    def __init__(
        self,
        sim: "AsyncioKernel",
        config: Optional[TransportConfig] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        super().__init__(sim, config or TransportConfig(), faults or FaultInjector())
        self.loss_model = LiveLossModel()
        self._transports: Dict[NodeId, asyncio.DatagramTransport] = {}
        self._addrs: Dict[NodeId, Tuple[str, int]] = {}
        self._next_seq: Dict[_PairKey, int] = {}
        self._pending: Dict[Tuple[NodeId, NodeId, int], _LivePending] = {}
        self._dedupe: Dict[_PairKey, _DedupeWindow] = {}
        self._reopening: Set[asyncio.Task] = set()  # the loop holds tasks weakly
        self._ctr_codec_rejects: Optional[Counter] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def open_endpoints(self) -> None:
        """Bind one UDP socket per registered host (setup phase)."""
        for node_id in self._hosts:
            if node_id not in self._transports:
                await self._open(node_id)

    async def _open(self, node_id: NodeId) -> None:
        transport, _ = await self.sim.loop.create_datagram_endpoint(
            lambda nid=node_id: _UdpProtocol(self, nid),
            local_addr=("127.0.0.1", 0),
        )
        self._transports[node_id] = transport
        self._addrs[node_id] = transport.get_extra_info("sockname")

    def _close_endpoint(self, node_id: NodeId) -> None:
        transport = self._transports.pop(node_id, None)
        self._addrs.pop(node_id, None)
        if transport is not None:
            transport.close()

    def _on_host_crash(self, node_id: NodeId) -> None:
        self._close_endpoint(node_id)

    def _on_host_recover(self, node_id: NodeId) -> None:
        """Reopen a recovered host's socket (new ephemeral port).

        Runs as a loop task because tracks trigger recovery from inside
        timer callbacks; sends in the gap blackhole and are covered by
        the retransmission schedule.
        """
        if node_id not in self._transports:
            task = self.sim.loop.create_task(self._open(node_id))
            self._reopening.add(task)
            task.add_done_callback(self._reopening.discard)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        on_fail: Optional[FailureCallback] = None,
    ) -> None:
        if src == dst:
            raise ValueError("host cannot send a network message to itself")
        hosts = self._hosts
        sender = hosts.get(src)
        if sender is None or dst not in hosts:
            raise KeyError(f"unknown endpoint in send {src}->{dst}")
        if not sender.alive:
            return  # a dead process sends nothing

        type_name = type(message).__name__
        self._ctr_messages.value += 1
        self._type_counter(type_name).value += 1
        self._ctr_bytes.value += message.size_bytes

        # Serialization is the isolation boundary (the receiver always
        # materializes a fresh object, so copy_on_send needs no copy
        # here); the sender stamp rides the envelope's src field and is
        # applied by the codec at decode time, leaving the caller's
        # object untouched — same observable contract as the simulator's
        # stamp-on-copy.
        pair = (src, dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        frame = codec.encode_message(src, dst, seq, message)
        state = _LivePending(
            self, src, dst, seq, frame, type_name, on_fail, sender.incarnation
        )
        self._pending[(src, dst, seq)] = state
        state.transmit()

    def _sendto(self, src: NodeId, dst: NodeId, frame: bytes) -> None:
        transport = self._transports.get(src)
        if transport is None or transport.is_closing():
            return  # dead socket sends nothing
        addr = self._addrs.get(dst)
        if addr is None:
            return  # destination socket closed: packets blackhole
        transport.sendto(frame, addr)

    # ------------------------------------------------------------------
    # Receiving (the codec boundary — where wire faults act)
    # ------------------------------------------------------------------
    def _on_datagram(self, owner: NodeId, data: bytes) -> None:
        try:
            kind, src, dst, seq, message = codec.decode_frame(data)
        except codec.CodecError:
            ctr = self._ctr_codec_rejects
            if ctr is None:
                ctr = self._ctr_codec_rejects = self.sim.metrics.counter("net.codec_rejects")
            ctr.value += 1
            return  # wire garbage: drop

        if kind == "a":
            # Ack for our (dst -> envelope d) pending frame.
            state = self._pending.get((dst, src, seq))
            if state is not None:
                state.acked()
            return

        if dst != owner or message is None:
            return  # misrouted or malformed: drop

        receiver = self._hosts.get(dst)
        if receiver is None or dst not in self._transports:
            return

        faults = self.faults
        if not faults.can_communicate(src, dst):
            return  # partition/block/disconnect: silent pre-ack drop
        loss = self.loss_model.current_loss(src, dst)
        if loss > 0.0 and self._rng.random() < loss:
            return
        if self.loss_model.sample_burst(src, dst, self._rng):
            return

        # Transport accepts the frame: ack it (even for duplicates —
        # the first ack may have been lost).
        self._sendto(dst, src, codec.encode_ack(dst, src, seq))

        window = self._dedupe.get((src, dst))
        if window is None:
            window = self._dedupe[(src, dst)] = _DedupeWindow()
        if window.seen(seq):
            return
        window.add(seq)

        if self._gray_drop(dst, message):
            return

        # Synthetic path latency stands in for the simulated topology.
        latency = PATH_LATENCY_MS * faults.latency_factor(src, dst)
        jitter = self._rng.uniform(0.0, self.config.jitter_fraction) * latency
        self.sim.schedule_after(
            latency + jitter,
            lambda: self._dispatch(dst, message),
            label=f"rx:{type(message).__name__}",
        )

    def _dispatch(self, dst: NodeId, message: Message) -> None:
        receiver = self._hosts.get(dst)
        if receiver is None or not receiver.alive:
            return
        self._ctr_deliveries.value += 1
        receiver.deliver(message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Cancel every retransmission without marking its pair connected:
        # an unacked frame proves nothing about the path.
        for state in list(self._pending.values()):
            state.retire()
        for node_id in list(self._transports):
            self._close_endpoint(node_id)

    def __repr__(self) -> str:
        return (
            f"LiveNetwork(hosts={len(self._hosts)}, "
            f"endpoints={len(self._transports)}, pending={len(self._pending)})"
        )
