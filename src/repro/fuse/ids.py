"""FUSE group identifiers.

A FUSE ID is deliberately *not* bound to a node or process (§2):
applications pass it around and associate arbitrary distributed state
with it.  An ID is built from the creating node's name plus a per-creator
serial plus a short hash — unique within a deployment (node names are
unique, and each creator numbers its own groups), deterministic under a
fixed simulation seed, and human-readable in traces.

Creators (every :class:`~repro.fuse.core.FuseCore`) own their
serial counters, so IDs are a pure function of the world's seed — the
property the trial engine's serial-vs-parallel determinism guarantee
rests on.  Calling :func:`make_fuse_id` without a serial falls back to a
process-global counter (convenient for ad-hoc use and tests, but not
deterministic across processes).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Optional

FuseId = str

_counter = itertools.count(1)


def make_fuse_id(root_name: str, serial: Optional[int] = None, salt: int = 0) -> FuseId:
    """Create a FUSE ID for ``root_name``'s next group.

    Args:
        root_name: name of the creating node; namespaces the serial.
        serial: the creator's own group number.  Defaults to a
            process-global counter when omitted.
        salt: extra disambiguator mixed into the hash.
    """
    if serial is None:
        serial = next(_counter)
    digest = hashlib.sha1(f"{root_name}:{serial}:{salt}".encode()).hexdigest()[:8]
    return f"fuse-{root_name}-{serial}-{digest}"
