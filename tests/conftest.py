"""Shared fixtures: small pre-built worlds so individual tests stay fast."""

from __future__ import annotations

import pytest

from repro import FuseWorld
from repro.net import MercatorConfig
from repro.sim import Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def small_world() -> FuseWorld:
    """A 30-node bootstrapped world; cheap enough to build per-test."""
    world = FuseWorld(n_nodes=30, seed=7, mercator=MercatorConfig(n_hosts=30, n_as=10))
    world.bootstrap()
    return world


@pytest.fixture
def tiny_world() -> FuseWorld:
    """A 12-node bootstrapped world for protocol-detail tests."""
    world = FuseWorld(n_nodes=12, seed=11, mercator=MercatorConfig(n_hosts=12, n_as=4))
    world.bootstrap()
    return world


def bootstrapped_world(n_nodes: int, seed: int, **kwargs) -> FuseWorld:
    """Helper for tests that need custom sizes/configs."""
    mercator = kwargs.pop("mercator", None)
    if mercator is None:
        mercator = MercatorConfig(n_hosts=n_nodes, n_as=max(4, n_nodes // 5))
    world = FuseWorld(n_nodes=n_nodes, seed=seed, mercator=mercator, **kwargs)
    world.bootstrap()
    return world


def world_observables(world: FuseWorld) -> dict:
    """Everything simulated that a pure performance layer (lanes on or
    off) must leave byte-identical: the event count, the clock, every
    counter, every ledger row."""
    ledger = world.ledger
    return {
        "events_dispatched": world.sim.events_dispatched,
        "now_ms": world.sim.now,
        "counters": {n: c.value for n, c in sorted(world.sim.metrics.counters().items())},
        "creates": [tuple(row) for row in ledger.creates],
        "notes": [
            (r.when, r.fuse_id, r.node, r.role, r.reason.value, r.raw, r.phase)
            for r in ledger.notes
        ],
        "duplicates": len(ledger.duplicates),
    }
