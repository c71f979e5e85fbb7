"""Wire codec: compact binary frames for the simulator's own Message classes.

A frame is one struct header (an ack is the header alone) and, for a data
frame, the type name and the slot values in ``cls._slot_names[1:]`` order,
each led by a one-byte tag (docs/BACKENDS.md, "Wire format").  Decoding reads
positionally into ``cls.__new__``, so a receiver always gets a fresh object.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterable, Optional, Tuple, Type

from repro.net.message import Message

_HEAD = struct.Struct(">IBqqq")  # length of what follows it, kind, src, dst, seq
_ACK_LENGTH = _HEAD.size - 4
# A tag byte and an i64, an f64, or the u16 byte length of a str / big int or item count.
_TAG_Q, _TAG_D, _TAG_H = (struct.Struct(">B" + code) for code in "qdH")
MAX_FRAME_BYTES = 60_000  # stay under the localhost UDP datagram ceiling
MAX_DEPTH = 32  # containers and nested messages, enforced on both sides of the wire
_BIG = 1 << 63

_NONE, _TRUE, _FALSE, _INT, _BIGINT, _FLOAT, _STR, _LIST, _TUPLE, _DICT, _MSG = b"NTFiIfsltdm"
_CONSTANTS = {_NONE: None, _TRUE: True, _FALSE: False}
_ACK = ord("a")  # a data frame's kind byte is _MSG

_registry: Optional[Dict[str, Type[Message]]] = None
#: class → (u8-length-prefixed name, wire slots, keeps a __dict__); name → (class, ...)
_layouts: Dict[type, Tuple[bytes, Tuple[str, ...], bool]] = {}
_by_name: Dict[bytes, Tuple[type, Tuple[str, ...], bool]] = {}


def _walk(cls: Type[Message]) -> Iterable[Type[Message]]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _walk(sub)


def message_registry() -> Dict[str, Type[Message]]:
    """Name → class map over every Message subclass in the protocol stack,
    after importing the wire-bearing modules; a class defined later (a
    test's) is picked up by the next rebuild, which decoding asks for."""
    global _registry
    import repro.fuse.messages  # noqa: F401  (registration side effect)
    import repro.net.node  # noqa: F401
    import repro.overlay.skipnet.messages  # noqa: F401

    _registry = {cls.__name__: cls for cls in _walk(Message)}
    _by_name.clear()
    return _registry


def _layout(cls: type) -> Tuple[bytes, Tuple[str, ...], bool]:
    name = cls.__name__.encode("ascii")
    _layouts[cls] = (bytes((len(name),)) + name, cls._slot_names[1:], cls.__dictoffset__ != 0)
    return _layouts[cls]


def _lookup(name: bytes) -> Tuple[type, Tuple[str, ...], bool]:
    type_name = name.decode("ascii")
    # A miss rebuilds once: the class may postdate the last build (a test's).
    cls = (_registry or message_registry()).get(type_name) or message_registry().get(type_name)
    if cls is None:
        raise CodecError(f"unknown message type on wire: {type_name!r}")
    entry = _by_name[name] = (cls,) + (_layouts.get(cls) or _layout(cls))[1:]
    return entry


class CodecError(ValueError):
    """Raised for values the wire format cannot represent faithfully."""


def _put_count(out: bytearray, tag: int, count: int) -> None:
    if count > 0xFFFF:
        raise CodecError(f"frame too large for datagram: {count} bytes or items in one value")
    out += _TAG_H.pack(tag, count)


def _put(out: bytearray, value: Any, depth: int) -> None:
    kind = type(value)
    if kind is str:
        raw = value.encode()
        _put_count(out, _STR, len(raw))
        out += raw
    elif kind is int:
        if -_BIG <= value < _BIG:
            out += _TAG_Q.pack(_INT, value)
        else:  # past 64 bits: signed big-endian bytes
            raw = value.to_bytes(value.bit_length() // 8 + 1, "big", signed=True)
            _put_count(out, _BIGINT, len(raw))
            out += raw
    elif value is None:
        out.append(_NONE)
    elif kind is dict or kind is list or kind is tuple or isinstance(value, Message):
        if depth >= MAX_DEPTH:
            raise CodecError(f"value nested deeper than {MAX_DEPTH}")
        depth += 1
        if kind is dict:
            _put_count(out, _DICT, len(value))
            for key, item in value.items():
                if type(key) is not str and type(key) is not int:
                    raise CodecError(f"unencodable dict key: {key!r}")
                _put(out, key, depth)
                _put(out, item, depth)
        elif kind is list or kind is tuple:
            _put_count(out, _LIST if kind is list else _TUPLE, len(value))
            for item in value:
                _put(out, item, depth)
        else:
            out.append(_MSG)
            _put(out, value.sender, depth)
            _put_body(out, value, depth)
    elif kind is bool:
        out.append(_TRUE if value else _FALSE)
    elif kind is float:
        out += _TAG_D.pack(_FLOAT, value)
    else:  # exact types only: a subclass (a str Enum, say) is refused, not coerced
        raise CodecError(f"unencodable value: {value!r} ({kind.__name__})")


def _put_body(out: bytearray, message: Message, depth: int) -> None:
    cls = type(message)
    name, slots, has_dict = _layouts.get(cls) or _layout(cls)
    out += name
    for slot in slots:
        _put(out, getattr(message, slot, None), depth)
    if has_dict:  # slot-less classes (svtree, SWIM, CDN) append their fields
        _put(out, message.__dict__, depth)


def encode_message(src: int, dst: int, seq: int, message: Message) -> bytes:
    """Frame a data message (expects an ack for ``seq``)."""
    out = bytearray(_HEAD.size)
    _put_body(out, message, 0)
    if len(out) > MAX_FRAME_BYTES:
        raise CodecError(f"frame too large for datagram: {len(out)} bytes ({message.type_name})")
    _HEAD.pack_into(out, 0, len(out) - 4, _MSG, src, dst, seq)
    return bytes(out)


def encode_ack(src: int, dst: int, seq: int) -> bytes:
    return _HEAD.pack(_ACK_LENGTH, _ACK, src, dst, seq)


def _get(data: bytes, at: int, depth: int) -> Tuple[Any, int]:
    """The value at ``at`` and the offset after it (a read past the end fails later)."""
    tag = data[at]
    if tag == _STR:
        end = at + 3 + (data[at + 1] << 8 | data[at + 2])
        return data[at + 3:end].decode(), end
    if tag == _INT:
        return _TAG_Q.unpack_from(data, at)[1], at + 9
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], at + 1
    if tag != _DICT and tag != _LIST and tag != _TUPLE and tag != _MSG:
        if tag == _FLOAT:
            return _TAG_D.unpack_from(data, at)[1], at + 9
        if tag != _BIGINT:
            raise CodecError(f"unknown value tag {tag:#04x}")
        end = at + 3 + (data[at + 1] << 8 | data[at + 2])
        value = int.from_bytes(data[at + 3:end], "big", signed=True)
        if -_BIG <= value < _BIG or end - at - 3 != value.bit_length() // 8 + 1:
            raise CodecError("big int not in the form the encoder writes")
        return value, end
    if depth >= MAX_DEPTH:
        raise CodecError(f"frame nested deeper than {MAX_DEPTH}")
    depth += 1
    if tag == _MSG:
        sender, at = _get(data, at + 1, depth)
        message, at = _get_body(data, at, depth)
        message.sender = sender
        return message, at
    count = data[at + 1] << 8 | data[at + 2]
    at += 3
    if count > len(data) - at:
        raise CodecError(f"count {count} runs past the frame")
    if tag == _DICT:
        out = {}
        for _ in range(count):
            key, at = _get(data, at, depth)
            if type(key) is not str and type(key) is not int:
                raise CodecError(f"dict key of type {type(key).__name__}")
            out[key], at = _get(data, at, depth)
        if len(out) != count:
            raise CodecError("repeated dict key")
        return out, at
    items = [None] * count
    for i in range(count):
        items[i], at = _get(data, at, depth)
    return (items if tag == _LIST else tuple(items)), at


def _get_body(data: bytes, at: int, depth: int) -> Tuple[Message, int]:
    end = at + 1 + data[at]
    name = data[at + 1:end]
    cls, slots, has_dict = _by_name.get(name) or _lookup(name)
    message = cls.__new__(cls)
    for slot in slots:
        value, end = _get(data, end, depth)
        setattr(message, slot, value)
    if has_dict:
        fields, end = _get(data, end, depth)
        for key, value in fields.items():  # not a dict, or a name not a str: a TypeError
            setattr(message, key, value)
    return message, end


def decode_frame(data: bytes) -> Tuple[str, int, int, int, Optional[Message]]:
    """Parse one datagram → (kind, src, dst, seq, message-or-None).  Any
    frame the encoders could not have written raises :class:`CodecError`
    and nothing else: the caller drops it as wire garbage."""
    if len(data) < _HEAD.size:
        raise CodecError(f"short frame: {len(data)} bytes")
    length, kind, src, dst, seq = _HEAD.unpack_from(data)
    if length != len(data) - 4:
        raise CodecError(f"torn frame: header says {length}, got {len(data) - 4}")
    if kind == _ACK and length == _ACK_LENGTH:
        return "a", src, dst, seq, None
    if kind != _MSG:
        raise CodecError(f"unknown frame kind {kind:#04x}, or an ack with a body")
    try:
        message, at = _get_body(data, _HEAD.size, 0)
    except (IndexError, struct.error, ValueError, AttributeError, TypeError) as exc:
        # ValueError covers bad UTF-8 and CodecError itself.
        raise CodecError(f"malformed message body: {exc}") from None
    if at != len(data):
        raise CodecError(f"{len(data) - at} trailing bytes after the message body")
    # The sender stamp rides the header, mirroring the simulated network's
    # stamp-on-copy (nested messages keep their own).
    message.sender = src
    return "m", src, dst, seq, message
