"""Wire codec round-trips for the protocol's message vocabulary."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

import repro.apps.cdn  # noqa: F401  (slot-less message classes register on import)
import repro.apps.membership  # noqa: F401
import repro.apps.svtree.messages  # noqa: F401
import repro.fuse.topologies.direct_link  # noqa: F401
from repro.apps.membership import SwimProbe
from repro.net.backends import codec
from repro.net.backends.asynckernel import AsyncioKernel
from repro.net.backends.livenet import LiveNetwork
from repro.fuse.messages import (
    FuseLinkList,
    GroupCreateRequest,
    HardNotification,
    InstallChecking,
)
from repro.net.message import Message
from repro.overlay.skipnet.messages import (
    OverlayPing,
    RouteEnvelope,
)
from tests.test_properties import _wire_values

_HEAD = struct.Struct(">IBqqq")


def _frame(body: bytes, kind: bytes = b"m") -> bytes:
    """A header (src 1, dst 2, seq 3) with a true length field, then ``body``."""
    return _HEAD.pack(_HEAD.size - 4 + len(body), kind[0], 1, 2, 3) + body


def _name(type_name: str) -> bytes:
    return bytes([len(type_name)]) + type_name.encode()


def _str(text: str) -> bytes:
    raw = text.encode()
    return b"s" + struct.pack(">H", len(raw)) + raw


def _int(value: int) -> bytes:
    return b"i" + struct.pack(">q", value)


def roundtrip(message, src=3, dst=7, seq=42):
    frame = codec.encode_message(src, dst, seq, message)
    kind, rsrc, rdst, rseq, decoded = codec.decode_frame(frame)
    assert (kind, rsrc, rdst, rseq) == ("m", src, dst, seq)
    return decoded


class TestRoundTrip:
    def test_simple_fields_and_sender_stamp(self):
        msg = HardNotification(fuse_id="fuse-node-00001-1-abcd1234", reason="link-timeout")
        out = roundtrip(msg)
        assert type(out) is HardNotification
        assert out.fuse_id == msg.fuse_id and out.reason == msg.reason
        # The envelope's src stamps the sender, like the sim's stamp-on-copy.
        assert out.sender == 3
        assert msg.sender is None  # caller's object untouched

    def test_tuple_fields_survive(self):
        msg = GroupCreateRequest(
            fuse_id="fuse-x", root_name="node-00001", member_names=("node-00002", "node-00003")
        )
        out = roundtrip(msg)
        assert out.member_names == ("node-00002", "node-00003")
        assert isinstance(out.member_names, tuple)

    def test_int_keyed_dict_fields_survive(self):
        msg = FuseLinkList(groups={"fuse-a": 3, "fuse-b": 9})
        out = roundtrip(msg)
        assert out.groups == {"fuse-a": 3, "fuse-b": 9}

    def test_nested_message_route_envelope(self):
        inner = InstallChecking(
            fuse_id="fuse-y", seq=2, member_name="node-00004", root_name="node-00001"
        )
        env = RouteEnvelope(dest_name="node-00004", payload=inner, origin=1)
        out = roundtrip(env, src=1, dst=9)
        assert type(out) is RouteEnvelope
        assert out.dest_name == "node-00004"
        assert type(out.payload) is InstallChecking
        assert out.payload.fuse_id == "fuse-y" and out.payload.seq == 2
        assert out.sender == 1

    def test_liveness_ping_payload(self):
        ping = OverlayPing(nonce=17, payload={"fuse": {"hash": "ab12cd34"}})
        out = roundtrip(ping)
        assert out.nonce == 17
        assert out.payload == {"fuse": {"hash": "ab12cd34"}}
        assert out.is_liveness  # class attribute, not a wire field

    def test_ack_frame(self):
        frame = codec.encode_ack(7, 3, 42)
        kind, src, dst, seq, message = codec.decode_frame(frame)
        assert (kind, src, dst, seq, message) == ("a", 7, 3, 42, None)

    def test_wide_ints_floats_and_bools_survive(self):
        values = [2**63, -(2**63) - 1, 10**400, 2**63 - 1, -(2**63), 0.5, -0.0, math.inf, True, None]
        out = roundtrip(OverlayPing(nonce=-1, payload={1: values, "k": (False, 1.5)}))
        assert out.nonce == -1
        assert out.payload == {1: values, "k": (False, 1.5)}
        assert [type(v) for v in out.payload[1]] == [type(v) for v in values]

    def test_slot_less_class_fields_survive(self):
        probe = SwimProbe(nonce=5, gossip=(4, 9))
        probe.extra = {"depth": [1, 2]}
        out = roundtrip(probe)
        assert type(out) is SwimProbe and out.sender == 3
        assert out.__dict__ == {"nonce": 5, "gossip": (4, 9), "extra": {"depth": [1, 2]}}

    def test_frame_sizes(self):
        ping = OverlayPing(nonce=1 << 29, payload={"fuse": {"hash": "ab" * 20}})
        assert len(codec.encode_message(3, 7, 42, ping)) <= 120
        assert len(codec.encode_ack(7, 3, 42)) <= 32


#: Every protocol message class: slot classes and slot-less (``__dict__``) ones.
WIRE_CLASSES = sorted(
    (cls for cls in codec.message_registry().values() if cls.__module__.startswith("repro.")),
    key=lambda cls: cls.__qualname__,
)


def _stamped(message, sender):
    message.sender = sender
    return message


_nested_messages = st.builds(
    lambda fuse_id, reason, sender: _stamped(HardNotification(fuse_id, reason), sender),
    st.text(max_size=6),
    st.text(max_size=6),
    st.none() | st.integers(min_value=0, max_value=1 << 20),
)
_slot_values = st.recursive(
    _wire_values
    | st.integers(min_value=2**63)
    | st.integers(max_value=-(2**63) - 1)
    | st.floats()
    | _nested_messages,
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
    max_leaves=6,
)


def _same(a, b) -> bool:
    """Equal and of the same type all the way down (a tuple is no list, True
    no 1); NaN equals NaN; messages compare slot for slot and field for field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, Message):
        unset = object()
        slots = all(_same(getattr(a, n, unset), getattr(b, n, unset)) for n in type(a)._slot_names)
        return slots and _same(getattr(a, "__dict__", None), getattr(b, "__dict__", None))
    return a == b


class TestRoundTripProperty:
    def test_covers_slot_and_slot_less_classes(self):
        assert len(WIRE_CLASSES) >= 30
        assert any(cls.__dictoffset__ for cls in WIRE_CLASSES)
        assert any(not cls.__dictoffset__ for cls in WIRE_CLASSES)

    @pytest.mark.parametrize("cls", WIRE_CLASSES, ids=lambda cls: cls.__name__)
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_decode_inverts_encode(self, cls, data):
        message = cls.__new__(cls)
        for name in cls._slot_names[1:]:  # ``sender`` rides the header
            setattr(message, name, data.draw(_slot_values))
        if cls.__dictoffset__:
            for name in data.draw(st.lists(st.sampled_from(["topic", "path", "nonce"]), unique=True)):
                setattr(message, name, data.draw(_slot_values))
        frame = codec.encode_message(11, 12, 13, message)
        kind, src, dst, seq, decoded = codec.decode_frame(frame)
        assert (kind, src, dst, seq) == ("m", 11, 12, 13)
        assert type(decoded) is cls and decoded.sender == 11
        message.sender = 11  # what decoding stamps from the header
        assert _same(decoded, message)
        assert codec.encode_message(11, 12, 13, decoded) == frame


class TestMalformedFrames:
    def test_short_frame(self):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(b"\x00\x01")

    def test_torn_frame(self):
        frame = codec.encode_ack(1, 2, 3)
        with pytest.raises(codec.CodecError):
            codec.decode_frame(frame[:-2])

    def test_garbage_body(self):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(b"not a message body at all"))

    def test_unknown_message_type(self):
        frame = codec.encode_message(1, 2, 3, HardNotification(fuse_id="f", reason="r"))
        tampered = frame.replace(_name("HardNotification"), _name("NoSuchMessageType"))
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(tampered[_HEAD.size:]))

    @pytest.mark.parametrize(
        "frame",
        [
            _frame(_name("SwimProbe") + b"l\x00\x00"),
            _frame(_name("OverlayPing") + _int(1) + b"d\x00\x01" + b"f" + struct.pack(">d", 1.0) + b"N"),
            _frame(b"\x04\xff\xfe\xfd\xfc"),
            _frame(_name("SwimProbe") + b"d\x00\x01" + _str("__class__") + _str("HardNotification")),
            _frame(b"N", kind=b"a"),
        ],
        ids=["fields-not-a-dict", "non-int-int-key", "list-type-tag", "class-field", "list-src-ack"],
    )
    def test_hostile_envelope_is_a_codec_error(self, frame):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(frame)

    def test_bool_or_missing_envelope_fields_are_rejected(self):
        for frame in (
            _frame(b"", kind=b"k"),  # an unknown kind
            _frame(b"", kind=b"\x00"),
            struct.pack(">IBqq", 17, ord("a"), 1, 2),  # no seq
            _frame(b""),  # a data frame without a message
        ):
            with pytest.raises(codec.CodecError):
                codec.decode_frame(frame)

    @pytest.mark.parametrize(
        "body",
        [
            _name("OverlayPing") + b"N" + b"l\x00\x01" * 100_000 + b"N",
            _name("OverlayPing") + b"I\xff\xff" + b"\x01" * 5000 + b"N",
        ],
        ids=["deep-nesting", "huge-int"],
    )
    def test_parser_limits_are_codec_errors(self, body):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(body))

    @pytest.mark.parametrize(
        "body",
        [
            _name("HardNotification") + _str("f") + b"x",
            _name("HardNotification") + _str("f") + _str("r") + b"N",
            _name("HardNotification") + b"s\x00\x02\xc3\x28" + _str("r"),
            _name("OverlayPing") + _int(1) + b"l\xff\xff" + b"N" * 10,
            _name("OverlayPing") + _int(1) + b"I\x00\x01\x05",
            _name("OverlayPing") + _int(1) + b"d\x00\x02" + (_str("k") + b"N") * 2,
            _name("OverlayPing") + _int(1) + b"d\x00\x01" + b"N" + b"N",
            _name("object"),
        ],
        ids=[
            "unknown-tag", "trailing-bytes", "bad-utf8", "count-past-frame",
            "narrow-big-int", "repeated-key", "none-key", "not-a-message",
        ],
    )
    def test_binary_hostile_body_is_a_codec_error(self, body):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(body))

    def test_every_truncation_is_a_codec_error(self):
        inner = InstallChecking(fuse_id="f", seq=2, member_name="m", root_name="r")
        frame = codec.encode_message(1, 2, 3, RouteEnvelope(dest_name="n", payload=inner, origin=1))
        for cut in range(_HEAD.size, len(frame)):
            with pytest.raises(codec.CodecError):
                codec.decode_frame(_frame(frame[_HEAD.size:cut]))

    def test_encoder_refuses_what_it_cannot_write_back(self):
        for value in ({(1, 2): 3}, {True: 1}, {1.5: 1}, {1, 2}, "x" * 70_000, [0] * 70_000):
            with pytest.raises(codec.CodecError):
                codec.encode_message(1, 2, 3, OverlayPing(nonce=1, payload=value))
        deep = None
        for _ in range(codec.MAX_DEPTH + 1):
            deep = [deep]
        with pytest.raises(codec.CodecError):
            codec.encode_message(1, 2, 3, OverlayPing(nonce=1, payload=deep))

    def test_live_network_counts_each_reject(self):
        kernel = AsyncioKernel(seed=1, time_scale=1.0)
        try:
            net = LiveNetwork(kernel)
            assert "net.codec_rejects" not in kernel.metrics.counters()
            for data in (b"\x00", _frame(b"N", kind=b"a")):
                net._on_datagram(2, data)
            assert kernel.metrics.counters()["net.codec_rejects"].value == 2
        finally:
            kernel.close()

    def test_unencodable_value_raises(self):
        class Weird(Message):
            __slots__ = ("blob",)

            def __init__(self):
                self.blob = object()

        with pytest.raises(codec.CodecError):
            codec.encode_message(1, 2, 3, Weird())


def test_registry_covers_wire_messages():
    reg = codec.message_registry()
    for name in (
        "OverlayPing", "OverlayPingAck", "RouteEnvelope", "JoinProbe",
        "GroupCreateRequest", "InstallChecking", "SoftNotification",
        "HardNotification", "GroupRepairRequest", "FuseLinkList",
        "RpcRequest", "RpcReply",
    ):
        assert name in reg, name
