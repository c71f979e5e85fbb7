"""Wire codec round-trips for the protocol's message vocabulary."""

import json
import struct

import pytest

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


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


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


class TestMalformedFrames:
    def test_short_frame(self):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(b"\x00\x01")

    def test_torn_frame(self):
        frame = codec.encode_ack(1, 2, 3)
        with pytest.raises(codec.CodecError):
            codec.decode_frame(frame[:-2])

    def test_garbage_body(self):
        body = b"not json at all"
        with pytest.raises(codec.CodecError):
            codec.decode_frame(struct.pack(">I", len(body)) + body)

    def test_unknown_message_type(self):
        frame = codec.encode_message(1, 2, 3, HardNotification(fuse_id="f", reason="r"))
        tampered = frame.replace(b"HardNotification", b"NoSuchMessageType")
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(tampered[4:]))

    @pytest.mark.parametrize(
        "envelope",
        [
            {"k": "m", "s": 1, "d": 2, "q": 3, "m": {"__m__": "HardNotification", "f": []}},
            {"k": "m", "s": 1, "d": 2, "q": 3,
             "m": {"__m__": "OverlayPing", "f": {"payload": {"x": 1, "__ik__": ["x"]}}}},
            {"k": "m", "s": 1, "d": 2, "q": 3, "m": {"__m__": ["HardNotification"], "f": {}}},
            {"k": "m", "s": 1, "d": 2, "q": 3,
             "m": {"__m__": "HardNotification", "f": {"__class__": "HardNotification"}}},
            {"k": "a", "s": [1], "d": 2, "q": 3},
        ],
        ids=["fields-not-a-dict", "non-int-int-key", "list-type-tag", "class-field", "list-src-ack"],
    )
    def test_hostile_envelope_is_a_codec_error(self, envelope):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(json.dumps(envelope).encode()))

    def test_bool_or_missing_envelope_fields_are_rejected(self):
        for envelope in ({"k": "a", "s": 1, "d": 2, "q": True}, {"k": "a", "s": 1, "d": 2},
                         {"k": 1, "s": 1, "d": 2, "q": 3}, [1, 2, 3]):
            with pytest.raises(codec.CodecError):
                codec.decode_frame(_frame(json.dumps(envelope).encode()))

    @pytest.mark.parametrize(
        "body", [b"[" * 100_000 + b"]" * 100_000, b'{"k": "a", "s": ' + b"1" * 5000 + b"}"],
        ids=["deep-nesting", "huge-int"],
    )
    def test_parser_limits_are_codec_errors(self, body):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(body))

    def test_live_network_counts_each_reject(self):
        kernel = AsyncioKernel(seed=1, time_scale=1.0)
        try:
            net = LiveNetwork(kernel)
            assert "net.codec_rejects" not in kernel.metrics.counters()
            for data in (b"\x00", _frame(b'{"k": "a", "s": [1], "d": 2, "q": 3}')):
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
