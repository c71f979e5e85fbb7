"""Property-based tests (hypothesis) on core data structures and the
one-way agreement invariant."""

import copy
import inspect

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.apps.svtree.messages
import repro.fuse.messages
import repro.overlay.skipnet.messages
from repro.net.backends import codec
from repro.net.message import Message
from repro.overlay.id_space import clockwise_between, numeric_id_for
from repro.overlay.skipnet.rings import RingStructure
from repro.sim import CdfSeries, EventQueue, Simulator, percentile

# ---------------------------------------------------------------------------
# Simulation kernel properties
# ---------------------------------------------------------------------------


class TestEventOrderingProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=200))
    def test_events_dispatch_in_time_order(self, times):
        q = EventQueue()
        fired = []
        for t in times:
            q.push(t, lambda t=t: fired.append(t))
        while (entry := q.pop()) is not None:
            entry[2]()
        assert fired == sorted(times)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100),
        st.data(),
    )
    def test_cancellation_removes_exactly_the_cancelled(self, times, data):
        q = EventQueue()
        seqs = [q.push(t, lambda: None) for t in times]
        to_cancel = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(seqs) - 1))
        )
        for index in to_cancel:
            q.cancel(seqs[index])
        survivors = []
        while (entry := q.pop()) is not None:
            survivors.append(entry)
        assert len(survivors) == len(seqs) - len(to_cancel)

    @given(st.integers(min_value=0, max_value=2**32))
    def test_simulator_clock_never_goes_backwards(self, seed):
        sim = Simulator(seed=seed)
        rng = sim.rng.stream("x")
        observed = []
        for _ in range(30):
            sim.call_at(rng.uniform(0, 1000), lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


# ---------------------------------------------------------------------------
# Metrics properties
# ---------------------------------------------------------------------------


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1, max_size=300))
    def test_percentile_bounded_by_extremes(self, samples):
        for p in (0, 25, 50, 75, 100):
            value = percentile(samples, p)
            assert min(samples) <= value <= max(samples)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=200))
    def test_percentile_monotone_in_p(self, samples):
        values = [percentile(samples, p) for p in range(0, 101, 10)]
        assert values == sorted(values)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_cdf_roundtrip(self, samples):
        cdf = CdfSeries("x", samples)
        for fraction in (0.25, 0.5, 0.75, 1.0):
            value = cdf.value_at_fraction(fraction)
            assert cdf.fraction_at_or_below(value) >= fraction - 1e-9


# ---------------------------------------------------------------------------
# Message.__copy__ against the generic copyreg copy it replaces
# ---------------------------------------------------------------------------

MESSAGE_CLASSES = sorted(
    {
        cls
        for module in (
            repro.overlay.skipnet.messages,
            repro.fuse.messages,
            repro.apps.svtree.messages,
        )
        for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, Message) and cls is not Message
    },
    key=lambda cls: cls.__qualname__,
)


UNSET = object()


class TestMessageCopyProperties:
    def test_covers_the_wire_vocabulary(self):
        assert len(MESSAGE_CLASSES) >= 20

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_equals_the_copyreg_copy(self, cls, data):
        slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
        has_dict = cls.__dictoffset__ != 0
        attributes = slots + (["topic", "path"] if has_dict else [])
        message = cls.__new__(cls)
        # Every value is a fresh mutable container, so identity tells a
        # shared reference from a copied one; the other slots stay unset.
        for name in data.draw(st.lists(st.sampled_from(attributes), unique=True)):
            setattr(message, name, [name])

        ours = copy.copy(message)
        reference = copy._reconstruct(message, None, *message.__reduce_ex__(4))

        assert type(ours) is type(reference) is cls
        for name in slots:  # an unset ``sender`` reads None, any other raises
            value = getattr(message, name, UNSET)
            assert getattr(ours, name, UNSET) is getattr(reference, name, UNSET) is value
        if has_dict:
            assert ours.__dict__ is not message.__dict__
            assert list(ours.__dict__) == list(reference.__dict__)
            for name, value in message.__dict__.items():
                assert ours.__dict__[name] is reference.__dict__[name] is value


# ---------------------------------------------------------------------------
# Wire codec: hostile bytes raise CodecError and nothing else
# ---------------------------------------------------------------------------

_wire_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4) | st.integers(), inner, max_size=3),
    max_leaves=8,
)

_HEAD_SIZE = 29  # u32 length, u8 kind, i64 src, dst and seq


def _layout_of(frame: bytes):
    """Where a valid frame keeps its tag bytes (the header's kind byte
    too), its u16 counts and lengths, its type names (the length byte's
    offset) and each value's (start, end) span."""
    tags, counts, names, spans = [4], [], [], []

    def body(at):
        names.append(at)
        cls = codec.message_registry()[frame[at + 1:at + 1 + frame[at]].decode()]
        at += 1 + frame[at]
        for _ in range(len(cls._slot_names) - 1 + (cls.__dictoffset__ != 0)):
            at = value(at)
        return at

    def value(start):
        tags.append(start)
        tag, at = frame[start:start + 1], start + 1
        if tag in (b"s", b"I", b"l", b"t", b"d"):
            counts.append(at)
            count, at = int.from_bytes(frame[at:at + 2], "big"), at + 2
            if tag in (b"s", b"I"):
                at += count
            for _ in range(0 if tag in (b"s", b"I") else count * (2 if tag == b"d" else 1)):
                at = value(at)
        elif tag in (b"i", b"f"):
            at += 8
        elif tag == b"m":
            at = body(value(at))
        spans.append((start, at))
        return at

    if frame[4:5] == b"m":
        assert body(_HEAD_SIZE) == len(frame)
    return {"tag": tags, "count": counts, "name": names, "nest": spans}


def _decodes_or_rejects(data: bytes) -> None:
    """decode_frame either raises CodecError or returns a typed frame."""
    try:
        kind, src, dst, seq, message = codec.decode_frame(data)
    except codec.CodecError:
        return
    assert (kind == "a") == (message is None) and kind in ("a", "m")
    assert type(src) is type(dst) is type(seq) is int


class TestCodecRejectsHostileBytes:
    @given(st.binary(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes(self, data):
        _decodes_or_rejects(data)
        _decodes_or_rejects(len(data).to_bytes(4, "big") + data)

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda cls: cls.__name__)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mutated_valid_frames(self, cls, data):
        message = cls.__new__(cls)
        for name in cls._slot_names[1:]:  # ``sender`` rides the header
            setattr(message, name, data.draw(_wire_values))
        if data.draw(st.booleans()):
            frame = codec.encode_message(1, 2, 3, message)
        else:
            frame = codec.encode_ack(1, 2, 3)
        buf = bytearray(frame)
        if data.draw(st.booleans()):
            # Structural: flip a tag byte, a count or string length, or a
            # type-name byte, or nest a value around the depth limit.
            where = {op: at for op, at in _layout_of(frame).items() if at}
            op = data.draw(st.sampled_from(sorted(where)))
            at = data.draw(st.sampled_from(where[op]))
            if op == "tag":
                buf[at] = data.draw(st.sampled_from(b"NTFiIfsltdma\x00") | st.integers(0, 255))
            elif op == "count":
                buf[at:at + 2] = data.draw(st.integers(0, 0xFFFF)).to_bytes(2, "big")
            elif op == "name":
                buf[data.draw(st.integers(at, at + buf[at]))] = data.draw(st.integers(0, 255))
            else:
                depth = data.draw(st.integers(codec.MAX_DEPTH - 2, codec.MAX_DEPTH + 2))
                buf[at[0]:at[1]] = b"l\x00\x01" * depth + b"N"
        else:
            # Bytewise: overwrite, insert or delete a few bytes.
            for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
                at = data.draw(st.integers(min_value=4, max_value=len(buf)))
                end = data.draw(st.integers(min_value=at, max_value=min(len(buf), at + 4)))
                buf[at:end] = data.draw(st.binary(max_size=4))
        buf[:4] = (len(buf) - 4).to_bytes(4, "big")  # reach the parser, not the torn-frame check
        _decodes_or_rejects(bytes(buf))


# ---------------------------------------------------------------------------
# Overlay structure properties
# ---------------------------------------------------------------------------

names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=8),
    min_size=1,
    max_size=40,
    unique=True,
)


class TestRingProperties:
    @given(names)
    def test_tables_are_symmetric_at_level0(self, members):
        """If b is a's clockwise level-0 neighbor, a is b's ccw neighbor."""
        rings = RingStructure(base=8, numeric_digits=16, leaf_set_half=2)
        for name in members:
            rings.add(name)
        if len(members) < 2:
            return
        for name in members:
            table = rings.table_for(name)
            level0 = table.ring_neighbors[0]
            cw = level0[1]
            other = rings.table_for(cw)
            assert other.ring_neighbors[0][2] == name

    @given(names, st.data())
    def test_add_remove_roundtrip_preserves_tables(self, members, data):
        rings = RingStructure(base=8, numeric_digits=16, leaf_set_half=2)
        for name in members:
            rings.add(name)
        before = {m: rings.table_for(m).neighbor_names() for m in members}
        extra = data.draw(st.text(alphabet="xyz", min_size=9, max_size=12))
        if extra in rings:
            return
        rings.add(extra)
        rings.remove(extra)
        after = {m: rings.table_for(m).neighbor_names() for m in members}
        assert before == after

    @given(names)
    def test_neighbor_relation_covers_ring(self, members):
        """Following clockwise level-0 pointers visits every member."""
        rings = RingStructure(base=8, numeric_digits=16, leaf_set_half=2)
        for name in members:
            rings.add(name)
        if len(members) < 2:
            return
        start = members[0]
        seen = {start}
        current = start
        for _ in range(len(members)):
            current = rings.table_for(current).ring_neighbors[0][1]
            seen.add(current)
        assert seen == set(members)

    @given(st.text(min_size=1, max_size=30))
    def test_numeric_id_stable(self, name):
        assert numeric_id_for(name) == numeric_id_for(name)


class TestClockwiseProperties:
    @given(st.text(alphabet="abc", max_size=4), st.text(alphabet="abc", max_size=4),
           st.text(alphabet="abc", max_size=4))
    def test_interval_membership_is_antisymmetric(self, a, x, b):
        """x in (a, b] and x in (b, a] can only both hold when x == b == a
        boundary degenerates; at most one strict interval contains x."""
        if a == b or x in (a, b):
            return
        assert clockwise_between(a, x, b) != clockwise_between(b, x, a)


# ---------------------------------------------------------------------------
# FUSE one-way agreement under randomized fault schedules
# ---------------------------------------------------------------------------


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    data=st.data(),
)
def test_one_way_agreement_random_faults(seed, data):
    """For random groups and a random fault schedule: if any live member of
    a group is notified, every live member is notified exactly once, and
    no group state survives anywhere."""
    from repro import FuseWorld
    from repro.net import MercatorConfig

    world = FuseWorld(
        n_nodes=20, seed=seed, mercator=MercatorConfig(n_hosts=20, n_as=6)
    )
    world.bootstrap()

    n_groups = data.draw(st.integers(min_value=1, max_value=4))
    groups = []
    counts = {}
    rng_ids = world.node_ids
    for _ in range(n_groups):
        size = data.draw(st.integers(min_value=2, max_value=5))
        members = data.draw(
            st.lists(st.sampled_from(rng_ids), min_size=size, max_size=size, unique=True)
        )
        root, rest = members[0], members[1:]
        fid, status, _ = world.create_group_sync(root, rest)
        if status != "ok":
            continue
        groups.append((fid, members))
        for node in members:
            key = (fid, node)
            counts[key] = 0

            def handler(_f, key=key):
                counts[key] += 1

            world.fuse(node).register_failure_handler(fid, handler)

    n_faults = data.draw(st.integers(min_value=1, max_value=3))
    for _ in range(n_faults):
        kind = data.draw(st.sampled_from(["crash", "disconnect", "signal"]))
        node = data.draw(st.sampled_from(rng_ids))
        if kind == "crash":
            if world.host(node).alive:
                world.crash(node)
        elif kind == "disconnect":
            if world.host(node).alive:
                world.disconnect(node)
        elif groups:
            fid, members = groups[data.draw(st.integers(0, len(groups) - 1))]
            world.fuse(members[0]).signal_failure(fid)
        world.run_for_minutes(data.draw(st.floats(min_value=0.1, max_value=2.0)))

    world.run_for_minutes(14.0)

    for fid, members in groups:
        notified = [n for n in members if counts[(fid, n)] > 0]
        if not notified:
            continue  # group never affected: fine
        for node in members:
            if not world.host(node).alive:
                continue
            assert counts[(fid, node)] == 1, (
                f"group {fid}: node {node} fired {counts[(fid, node)]} times"
            )
        # No state survives after a notification.
        for node in world.node_ids:
            assert fid not in world.fuse(node).groups


# ---------------------------------------------------------------------------
# Lanes are invisible under random loss and random fault verbs
# ---------------------------------------------------------------------------

_FAULT_VERBS = ("crash", "restart", "disconnect", "reconnect", "block", "unblock", "gray", "partition")


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=1_000),
    loss=st.floats(min_value=0.0, max_value=0.05),
    verbs=st.lists(
        st.tuples(
            st.sampled_from(_FAULT_VERBS),
            st.integers(min_value=0, max_value=23),
            st.integers(min_value=0, max_value=23),
            st.floats(min_value=0.05, max_value=1.5),
        ),
        min_size=1, max_size=6,
    ),
)
def test_lanes_invisible_under_random_loss_and_faults(seed, loss, verbs):
    """Uniform loss in [0, 5 %] and a random sequence of fault verbs: the
    laned world dispatches the same events, counts the same counters and
    writes the same ledger as its lanes-off twin."""
    from repro import FuseWorld
    from tests.conftest import world_observables

    def run(lanes):
        world = FuseWorld(n_nodes=24, seed=seed, liveness_lanes=lanes)
        world.bootstrap()
        ids = world.node_ids
        for k in range(4):
            world.create_group_sync(ids[k], [ids[k + 5], ids[k + 11], ids[k + 17]])
        world.topology.set_uniform_loss(loss)
        world.run_for_minutes(1.5)
        faults = world.net.faults
        for verb, i, j, minutes in verbs:
            a, b = ids[i], ids[j]
            if verb == "crash" and world.host(a).alive:
                world.crash(a)
            elif verb == "restart" and not world.host(a).alive:
                world.restart(a)
            elif verb == "disconnect":
                world.disconnect(a)
            elif verb == "reconnect":
                world.net.reconnect_host(a)
            elif verb == "block" and a != b:
                faults.block_pair(a, b)
            elif verb == "unblock" and a != b:
                faults.unblock_pair(a, b)
            elif verb == "gray":
                faults.gray_fail(a)
            elif verb == "partition":  # split, hold, heal
                faults.partition([ids[:i + 1], ids[i + 1:]])
                world.run_for_minutes(minutes)
                faults.heal_partition()
            world.run_for_minutes(minutes)
        world.run_for_minutes(3.0)
        return world_observables(world)

    assert run(True) == run(False)
