"""Lane byte-identity under every scenario track kind.

The liveness-lane plane is a pure performance layer; the contract is
that *no* fault vocabulary — including the adversarial additions
(Gilbert-Elliott bursts, gray failure, latency/bandwidth windows) — can
make lanes observable.  For every registered track kind this matrix runs
the same spec with lanes on and off, and requires the full measurement
dict (including the total events-dispatched count), the ledger's
notification rows, and its duplicate rows to be identical in both modes.

Divergence anywhere in the event stream shifts dispatch counts and
notification timestamps, so equality here is a tight proxy for
byte-identical traces without regenerating the golden fixture per kind.
"""

import pytest

from repro.scenarios import execute_with_context, scenario_from_dict
from repro.scenarios.spec import TRACK_KINDS

#: Minimal-but-active spec fields per track kind (groups backbone added
#: separately; every fault fires inside the "fault" phase).
KIND_FIELDS = {
    "groups": {"n_groups": 3, "group_size": 3},
    "svtree": {"n_topics": 2, "subscribers_per_topic": 3, "phase": "fault"},
    "poisson-churn": {"nodes": "all", "half_life_minutes": 2.0, "phase": "fault"},
    "crash-recover-wave": {"count": 2, "crash_phase": "fault", "recover_phase": "drain"},
    "disconnect-wave": {"count": 2, "phase": "fault"},
    "rolling-disconnect": {
        "count": 2,
        "phase": "fault",
        "interval_minutes": 0.5,
        "down_minutes": 1.0,
    },
    "partition": {"phase": "fault", "fractions": [0.5, 0.5]},
    "asymmetric-partition": {"phase": "fault", "fraction": 0.5},
    "intransitive-pairs": {
        "n_pairs": 1,
        "phase": "fault",
        "detect_minutes": 0.5,
        "within_groups": True,
    },
    "link-loss": {"phase": "fault", "end_loss": 0.016},
    "burst-loss": {"phase": "fault"},
    "latency-inflation": {"count": 2, "phase": "fault", "factor": 50.0},
    "bandwidth-contention": {"count": 2, "phase": "fault", "factor": 1000.0},
    "gray-failure": {"count": 1, "phase": "fault"},
}


def test_matrix_covers_every_registered_kind():
    assert set(KIND_FIELDS) == set(TRACK_KINDS)


def _spec_for(kind):
    tracks = []
    if kind != "groups":
        tracks.append({"kind": "groups", "n_groups": 3, "group_size": 3})
    tracks.append({"kind": kind, **KIND_FIELDS[kind]})
    return {
        "scenario": {"name": f"lane-matrix-{kind}", "n_nodes": 12, "seed": 9},
        "phase": [
            {"name": "warmup", "minutes": 1.0},
            {"name": "fault", "minutes": 2.0, "measure": True},
            {"name": "drain", "minutes": 6.0},
        ],
        "track": tracks,
    }


def _observables(kind, mode, monkeypatch):
    monkeypatch.setenv("REPRO_LIVENESS_LANES", mode)
    measurements, ctx = execute_with_context(scenario_from_dict(_spec_for(kind)))
    ledger = ctx.world.ledger
    return measurements, list(ledger.notes), list(ledger.duplicates)


@pytest.mark.parametrize("kind", sorted(TRACK_KINDS))
def test_lanes_invisible_under_track(kind, monkeypatch):
    want = _observables(kind, "on", monkeypatch)
    got = _observables(kind, "off", monkeypatch)
    assert got == want, f"lanes off diverged under track kind {kind!r}"
