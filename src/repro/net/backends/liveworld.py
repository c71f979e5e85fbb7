"""LiveWorld: a complete FUSE deployment over real asyncio UDP sockets.

The live subclass of :class:`repro.world.World` — same protocol objects
(:class:`~repro.net.node.Host`, :class:`~repro.overlay.skipnet.node.OverlayNode`,
:class:`~repro.fuse.service.FuseService`, one shared
:class:`~repro.fuse.api.GroupLedger`), bound to an
:class:`~repro.net.backends.asynckernel.AsyncioKernel` and a
:class:`~repro.net.backends.livenet.LiveNetwork` instead of the simulator.
N peers run in one process, each with its own UDP endpoint on 127.0.0.1,
joined through the same SkipNet introducer logic; every message crosses a
real socket.

Naming, node ids (0..n-1), fuse-id serials, and the seeded RNG streams
all match the simulated world, so a scenario run on both backends with
the same seed produces comparable ledgers keyed by identical fuse ids —
that is what the parity harness in :mod:`repro.scenarios.parity` leans on.

``time_scale`` compresses wall time (0.02 ⇒ a 60 s virtual ping period
takes 1.2 s of wall clock), which is how the soak and CI runs keep
multi-virtual-minute scenarios inside seconds of real time.  The kernel
charges event-loop stalls to the clock, so ``bootstrap`` is the shared
:meth:`repro.world.World.bootstrap` schedule and straggler wait, after
the sockets open: no join waves.
"""

from __future__ import annotations

from typing import Optional

from repro.fuse.config import FuseConfig
from repro.net.backends.asynckernel import AsyncioKernel
from repro.net.backends.livenet import LiveNetwork
from repro.net.transport import TransportConfig
from repro.overlay.skipnet.config import OverlayConfig
from repro.world import World


def _raise_fd_limit(n_sockets: int) -> None:
    """Best-effort bump of RLIMIT_NOFILE for large peer counts."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    needed = n_sockets * 2 + 256
    try:
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < needed:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(needed, hard), hard))
    except (ValueError, OSError):  # pragma: no cover - clamped by the OS
        pass


class LiveWorld(World):
    """A fully wired FUSE deployment running over localhost UDP."""

    def __init__(
        self,
        n_nodes: int = 64,
        seed: int = 0,
        time_scale: float = 0.02,
        overlay_config: Optional[OverlayConfig] = None,
        fuse_config: Optional[FuseConfig] = None,
        transport: Optional[TransportConfig] = None,
    ) -> None:
        _raise_fd_limit(n_nodes)
        sim = AsyncioKernel(seed=seed, time_scale=time_scale)
        net = LiveNetwork(sim, config=transport)
        self.topology = net.loss_model  # the wire's loss/burst knobs
        super().__init__(sim, net, list(range(n_nodes)), overlay_config, fuse_config)

    def bootstrap(self, settle_ms: float = 5_000.0) -> None:
        """Open every UDP endpoint, then run :meth:`World.bootstrap`."""
        self.sim.run_coroutine(self.net.open_endpoints())
        super().bootstrap(settle_ms)

    def close(self) -> None:
        """Close every socket and the event loop (both idempotent)."""
        self.net.close()
        self.sim.close()
