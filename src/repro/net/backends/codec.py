"""Wire codec: length-prefixed JSON frames for the existing Message types.

The live backend ships the *same* message classes the simulator passes by
reference — :mod:`repro.overlay.skipnet.messages`,
:mod:`repro.fuse.messages`, the RPC wrappers in :mod:`repro.net.node` —
so nothing above the transport changes.  Encoding walks ``__slots__``
down the MRO (falling back to ``__dict__`` for slot-less subclasses);
decoding allocates with ``cls.__new__`` and restores fields, which also
gives the live path its copy-on-send isolation for free: the receiver
always gets a fresh object.

Frame layout (UDP datagram payload):

    4-byte big-endian length  |  JSON envelope (utf-8)

Envelope:

    {"k": "m", "s": src, "d": dst, "q": seq, "m": <tagged message>}   data
    {"k": "a", "s": src, "d": dst, "q": seq}                          ack

Tagged values keep JSON round-trips faithful for the two non-JSON shapes
the message set uses: nested messages (``RouteEnvelope.payload``) encode
as ``{"__m__": "TypeName", "f": {...}}`` and tuples (e.g.
``GroupCreateRequest.member_names``) as ``{"__t__": [...]}``.  Dict keys
are restricted to str/int (int keys round-trip via a key table); the FUSE
and overlay wire set satisfies this today and :func:`encode_message`
raises on anything it cannot represent faithfully.

JSON-not-msgpack: the container must not grow dependencies, and the FUSE
messages are tiny (hex hash digests, names, ints) — framing overhead, not
serialization speed, dominates on localhost.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, Optional, Tuple, Type

from repro.net.message import Message

_LEN = struct.Struct(">I")
MAX_FRAME_BYTES = 60_000  # stay under the localhost UDP datagram ceiling

_MSG_TAG = "__m__"
_TUPLE_TAG = "__t__"
_INTKEYS_TAG = "__ik__"


# ----------------------------------------------------------------------
# Message type registry
# ----------------------------------------------------------------------
_registry: Optional[Dict[str, Type[Message]]] = None


def _walk(cls: Type[Message]) -> Iterable[Type[Message]]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk(sub)


def message_registry() -> Dict[str, Type[Message]]:
    """Name → class map over every Message subclass in the protocol stack.

    Imports the wire-bearing modules first so their classes exist, then
    walks ``__subclasses__`` recursively — test-local message classes
    defined later are picked up on the next rebuild (pass-through send
    never consults the registry, only decode does).
    """
    global _registry
    import repro.fuse.messages  # noqa: F401  (registration side effect)
    import repro.net.node  # noqa: F401
    import repro.overlay.skipnet.messages  # noqa: F401

    _registry = {cls.__name__: cls for cls in _walk(Message)}
    return _registry


def _lookup(type_name: str) -> Type[Message]:
    reg = _registry if _registry is not None else message_registry()
    cls = reg.get(type_name)
    if cls is None:
        # A class defined after the last build (e.g. in a test module).
        cls = message_registry().get(type_name)
    if cls is None:
        raise CodecError(f"unknown message type on wire: {type_name!r}")
    return cls


class CodecError(ValueError):
    """Raised for values the wire format cannot represent faithfully."""


# ----------------------------------------------------------------------
# Tagged value encoding
# ----------------------------------------------------------------------
def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Message):
        return {_MSG_TAG: value.type_name, "f": _fields_of(value)}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return [_encode_value(v) for v in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        int_keys = []
        for k, v in value.items():
            if isinstance(k, str):
                out[k] = _encode_value(v)
            elif isinstance(k, int) and not isinstance(k, bool):
                out[str(k)] = _encode_value(v)
                int_keys.append(str(k))
            else:
                raise CodecError(f"unencodable dict key: {k!r}")
        if int_keys:
            out[_INTKEYS_TAG] = int_keys
        return out
    raise CodecError(f"unencodable value: {value!r} ({type(value).__name__})")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if _MSG_TAG in value:
            return _materialize(value[_MSG_TAG], value["f"])
        if _TUPLE_TAG in value:
            return tuple(_decode_value(v) for v in value[_TUPLE_TAG])
        int_keys = set(value.get(_INTKEYS_TAG, ()))
        return {
            (int(k) if k in int_keys else k): _decode_value(v)
            for k, v in value.items()
            if k != _INTKEYS_TAG
        }
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def _fields_of(message: Message) -> Dict[str, Any]:
    fields: Dict[str, Any] = {}
    for cls in type(message).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if slot in fields:
                continue
            value = getattr(message, slot, None)
            fields[slot] = _encode_value(value)
    inst_dict = getattr(message, "__dict__", None)
    if inst_dict:
        for name, value in inst_dict.items():
            fields.setdefault(name, _encode_value(value))
    return fields


def _materialize(type_name: str, fields: Dict[str, Any]) -> Message:
    cls = _lookup(type_name)
    message = cls.__new__(cls)
    for name, value in fields.items():
        setattr(message, name, _decode_value(value))
    return message


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def encode_message(src: int, dst: int, seq: int, message: Message) -> bytes:
    """Frame a data message (expects an ack for ``seq``)."""
    envelope = {
        "k": "m",
        "s": src,
        "d": dst,
        "q": seq,
        "m": {_MSG_TAG: message.type_name, "f": _fields_of(message)},
    }
    body = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(
            f"frame too large for datagram: {len(body)} bytes ({message.type_name})"
        )
    return _LEN.pack(len(body)) + body


def encode_ack(src: int, dst: int, seq: int) -> bytes:
    envelope = {"k": "a", "s": src, "d": dst, "q": seq}
    body = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
    return _LEN.pack(len(body)) + body


def decode_frame(data: bytes) -> Tuple[str, int, int, int, Optional[Message]]:
    """Parse one datagram → (kind, src, dst, seq, message-or-None).

    Raises :class:`CodecError`, and nothing else, on any frame that is
    not one :func:`encode_message` / :func:`encode_ack` could have
    written — the caller treats that as wire garbage and drops the
    datagram.
    """
    if len(data) < _LEN.size:
        raise CodecError(f"short frame: {len(data)} bytes")
    (length,) = _LEN.unpack_from(data)
    body = data[_LEN.size:]
    if len(body) != length:
        raise CodecError(f"torn frame: header says {length}, got {len(body)}")
    try:
        envelope = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # incl. JSON / UTF-8 / int-size errors
        raise CodecError(f"undecodable frame: {exc}") from None
    if not isinstance(envelope, dict):
        raise CodecError("malformed envelope: not an object")
    kind = envelope.get("k")
    src = envelope.get("s")
    dst = envelope.get("d")
    seq = envelope.get("q")
    # type() rather than isinstance(): bool is an int subclass.
    if type(kind) is not str or not (type(src) is type(dst) is type(seq) is int):
        raise CodecError("malformed envelope: k must be a str, s/d/q ints")
    message: Optional[Message] = None
    if kind == "m":
        payload = envelope.get("m")
        if not isinstance(payload, dict) or _MSG_TAG not in payload:
            raise CodecError("data frame without tagged message body")
        try:
            message = _materialize(payload[_MSG_TAG], payload.get("f", {}))
        except CodecError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise CodecError(f"malformed message body: {exc!r}") from None
        # The sender stamp rides the envelope, mirroring the simulated
        # network's stamp-on-copy (nested messages keep their own).
        message.sender = src
    elif kind != "a":
        raise CodecError(f"unknown frame kind: {kind!r}")
    return kind, src, dst, seq, message
