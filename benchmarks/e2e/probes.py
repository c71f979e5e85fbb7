"""Layer probes: direct timings of one public function per layer.

Each probe builds its input from the seed, times the call ``REPEATS``
times on fresh input and reports the median, in host time per
operation.  They are the ``*_us`` / ``*_ms`` per-layer metrics: the cost
of a layer's unit of work with nothing else running, to set beside the
layer's share of a whole workload.  ``scale`` shrinks every input (the
smoke test runs them at a fifth).
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, Tuple

REPEATS = 5


def _median_us(run: Callable[[], Tuple[float, int]]) -> float:
    """``run()`` returns (seconds, operations); median µs per operation."""
    samples = []
    for _ in range(REPEATS):
        seconds, ops = run()
        samples.append(seconds * 1e6 / ops)
    return statistics.median(samples)


def _noop() -> None:
    pass


def kernel_dispatch(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.sim.kernel import Simulator

    count = int(40_000 * scale)

    def run():
        sim = Simulator(seed=1)
        for when in (rng.random() * 1000.0 for _ in range(count)):
            sim.schedule_at(when, _noop)
        start = time.perf_counter()
        dispatched = sim.run()
        return time.perf_counter() - start, dispatched

    return {"sim.kernel.dispatch_us": _median_us(run)}


def event_queue(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.sim.events import EventQueue
    from repro.sim.kernel import Simulator

    count = int(40_000 * scale)

    def push_pop():
        queue = EventQueue()
        times = [rng.random() * 1000.0 for _ in range(count)]
        start = time.perf_counter()
        for when in times:
            queue.push(when, _noop)
        while queue.pop() is not None:
            pass
        return time.perf_counter() - start, count

    def timers():
        sim = Simulator(seed=1)
        handles = [sim.call_after(rng.random() * 1000.0, _noop) for _ in range(count // 2)]
        start = time.perf_counter()
        for index, handle in enumerate(handles):
            if index & 1:
                handle.cancel()
            else:
                handle.reschedule_after(500.0)
        return time.perf_counter() - start, len(handles)

    return {
        "sim.events.push_pop_us": _median_us(push_pop),
        "sim.events.timer_cancel_us": _median_us(timers),
    }


def mercator_build(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.net.mercator import MercatorConfig, build_mercator_topology

    config = MercatorConfig.scaled_for_hosts(int(4000 * scale))

    def run():
        stream = random.Random(rng.random())
        start = time.perf_counter()
        build_mercator_topology(config, stream)
        return time.perf_counter() - start, 1

    return {"net.mercator.build_ms": _median_us(run) / 1000.0}


def routing(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.net.mercator import MercatorConfig, build_mercator_topology
    from repro.net.routing import RouteTable

    topology, hosts = build_mercator_topology(
        MercatorConfig.scaled_for_hosts(int(2000 * scale)), random.Random(rng.random())
    )
    cold, warm = [], []
    for _ in range(REPEATS):
        table = RouteTable(topology)
        pairs = [tuple(rng.sample(hosts, 2)) for _ in range(int(4000 * scale))]
        for sink in (cold, warm):  # first touch, then the same pairs again
            start = time.perf_counter()
            for src, dst in pairs:
                table.route(src, dst)
            sink.append((time.perf_counter() - start) * 1e6 / len(pairs))
    return {
        "net.routing.route_cold_us": statistics.median(cold),
        "net.routing.route_warm_us": statistics.median(warm),
    }


def network_send(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.net.mercator import MercatorConfig, build_mercator_topology
    from repro.net.message import Message
    from repro.net.network import Network
    from repro.net.node import Host
    from repro.sim.kernel import Simulator

    count = int(5_000 * scale)

    def run():
        sim = Simulator(seed=rng.randrange(1 << 30))
        topology, hosts = build_mercator_topology(MercatorConfig(n_hosts=2, n_as=2), sim.rng.stream("topology"))
        net = Network(sim, topology)
        a, b = (Host(net, node) for node in hosts[:2])
        b.register_handler(Message, lambda _msg: None)
        start = time.perf_counter()
        for _ in range(count):
            net.send(a.node_id, b.node_id, Message())
        sim.run()
        return time.perf_counter() - start, count

    return {"net.network.send_deliver_us": _median_us(run)}


def rings(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.overlay.skipnet.config import OverlayConfig
    from repro.overlay.skipnet.rings import RingStructure

    config = OverlayConfig()
    add, table = [], []
    for _ in range(REPEATS):
        names = [f"node-{i:05d}" for i in range(int(4000 * scale))]
        rng.shuffle(names)
        ring = RingStructure(config.base, config.numeric_digits, config.leaf_set_half)
        start = time.perf_counter()
        for name in names:
            ring.add(name)
        middle = time.perf_counter()
        for name in names:
            ring.table_for(name)
        add.append((middle - start) * 1e6 / len(names))
        table.append((time.perf_counter() - middle) * 1e6 / len(names))
    return {
        "overlay.skipnet.rings.add_us": statistics.median(add),
        "overlay.skipnet.rings.table_for_us": statistics.median(table),
    }


def ledger(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.fuse.api import GroupLedger
    from repro.sim.kernel import Simulator

    rows = int(20_000 * scale)

    def run():
        book = GroupLedger(Simulator(seed=1))
        members = tuple(rng.sample(range(4000), 4))
        start = time.perf_counter()
        for index in range(rows // 4):
            fuse_id = f"fuse-node-{index:05d}"
            book.record_create(fuse_id, members[0], members)
            for member in members[1:]:
                book.notified(fuse_id, member, "member", "signaled")
        return time.perf_counter() - start, rows

    return {"fuse.api.note_us": _median_us(run)}


def codec(rng: random.Random, scale: float) -> Dict[str, float]:
    from repro.fuse.messages import GroupCreateRequest, HardNotification
    from repro.net.backends import codec as wire
    from repro.overlay.skipnet.messages import OverlayPing

    names = tuple(f"node-{rng.randrange(4000):05d}" for _ in range(8))
    messages = (
        OverlayPing(nonce=rng.randrange(1 << 30), payload={"fuse": {"hash": "%040x" % rng.getrandbits(160)}}),
        GroupCreateRequest(fuse_id="fuse-node-00001-1-abcd1234", root_name=names[0], member_names=names),
        HardNotification(fuse_id="fuse-node-00001-1-abcd1234", reason="link-timeout"),
    )
    rounds = int(1_500 * scale)
    for message in messages:
        message.sender = 3  # what decoding stamps from the envelope, so a round trip is exact
    frames = [wire.encode_message(3, 7, 42, m) for m in messages]
    for message, frame in zip(messages, frames):
        kind, src, dst, seq, decoded = wire.decode_frame(frame)
        same = type(decoded) is type(message) and wire.encode_message(3, 7, 42, decoded) == frame
        if (kind, src, dst, seq) != ("m", 3, 7, 42) or not same:
            raise AssertionError(f"codec round trip changed {type(message).__name__}")

    def encode():
        start = time.perf_counter()
        for _ in range(rounds):
            for message in messages:
                wire.encode_message(3, 7, 42, message)
        return time.perf_counter() - start, rounds * len(messages)

    def decode():
        start = time.perf_counter()
        for _ in range(rounds):
            for frame in frames:
                wire.decode_frame(frame)
        return time.perf_counter() - start, rounds * len(frames)

    return {
        "net.backends.codec.encode_us": _median_us(encode),
        "net.backends.codec.decode_us": _median_us(decode),
        "net.backends.codec.frame_bytes": statistics.mean(len(f) for f in frames),
    }


PROBES = (kernel_dispatch, event_queue, mercator_build, routing, network_send, rings, ledger, codec)


def run_probes(seed: int, scale: float = 1.0) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for probe in PROBES:
        out.update(probe(random.Random(f"{seed}:{probe.__name__}"), scale))
    return out
