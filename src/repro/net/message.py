"""Message base type.

Protocol layers (overlay, FUSE, applications) define message classes by
subclassing :class:`Message`.  Dispatch at the receiving host is by class
name, so subclasses should have unique, descriptive names — they double
as the wire "type" field and as the label in traces and message counters.

Paper cross-reference: §6.2 — everything FUSE and the overlay exchange
rides the messaging layer modeled here; ``size_bytes`` feeds the
message-cost accounting of Fig 10 and §7.5.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.net.address import NodeId


class Message:
    """Base class for every simulated network message.

    The base class carries ``__slots__`` so that message subclasses which
    also declare ``__slots__`` (the high-rate overlay/FUSE wire messages)
    allocate no per-instance ``__dict__`` — at 16,000 nodes the liveness
    traffic creates hundreds of thousands of message objects per virtual
    minute, and the dict per message dominated allocation churn.
    Subclasses without ``__slots__`` still work; they simply keep a dict.

    Attributes:
        size_bytes: nominal wire size used by byte counters.  The paper's
            implementation used a verbose XML messaging layer; we default
            to a few hundred bytes and let specific messages override
            (e.g. the 20-byte piggybacked hash rides inside ping messages).
    """

    __slots__ = ("sender",)

    #: every slot of an instance, base classes first (what ``__copy__`` walks)
    _slot_names: Tuple[str, ...] = ("sender",)

    size_bytes: int = 256

    # Liveness-plane messages (overlay pings and their acks) set this True.
    # Gray failure (FaultInjector.gray_fail) keys on it: a gray node still
    # receives — and answers — liveness traffic, but every inbound message
    # of an application class is silently dropped at delivery.
    is_liveness: bool = False

    def __getattr__(self, name: str) -> "Optional[NodeId]":
        # ``sender`` is stamped by the network at send time; before that
        # the slot is unset.  Reading it then must yield None (callers
        # check ``message.sender is None``), not AttributeError.
        if name == "sender":
            return None
        raise AttributeError(name)

    # The network shallow-copies each message at send time so stamping the
    # sender (and any receiver-side mutation) cannot leak back into an
    # object the caller still holds.  Message classes that are constructed
    # fresh for exactly one send and never touched again by the sender may
    # set this False to skip that copy — the high-rate liveness traffic
    # (pings/acks) does.  Leave it True for anything a caller retains,
    # re-sends, or that receivers mutate (e.g. routed envelopes).
    copy_on_send: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._slot_names = tuple(
            name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ())
        )

    def __copy__(self) -> "Message":
        """``copy.copy`` without its ``__reduce_ex__`` / ``copyreg`` round
        trip, which the network would pay on every send: same class, same
        slot values (an unset slot stays unset, so ``sender`` still reads
        None), and a shallow copy of a subclass's ``__dict__``."""
        cls = type(self)
        clone = cls.__new__(cls)
        read = object.__getattribute__  # raises on an unset slot; getattr would not
        for name in cls._slot_names:
            try:
                setattr(clone, name, read(self, name))
            except AttributeError:
                pass
        if cls.__dictoffset__:
            clone.__dict__.update(self.__dict__)
        return clone

    @property
    def type_name(self) -> str:
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{self.type_name}(from={self.sender})"
