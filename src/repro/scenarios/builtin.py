"""The built-in named scenario catalogue.

Each entry is a factory ``f(quick: bool = False) -> Scenario``: the
default shape runs in seconds-to-a-minute on one core, ``quick=True`` is
the CI smoke shape.  ``python -m repro.scenarios.run --list`` renders
this table; :data:`BUILTIN` is the registry the CLI and tests consume.

Two entries — ``paper-fig9`` and ``paper-fig10`` — are the scenario
forms of the corresponding experiment modules; the shared factories
(:func:`fig9_scenario`, :func:`fig10_scenario`) and their configs
(:class:`CrashConfig`, :class:`ChurnConfig`) are also what
:mod:`repro.experiments.crash_notification` and
:mod:`repro.experiments.churn` now delegate to, which is the proof that
the declarative layer subsumes the old hard-coded loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.scenarios.expect import Expectation
from repro.scenarios.timeline import Phase, Scenario
from repro.scenarios.tracks import (
    CrashRecoverWave,
    DisconnectWave,
    GroupWorkload,
    IntransitivePairs,
    LinkLossRamp,
    Partition,
    PoissonChurn,
    SvtreeTraffic,
)


#: The one-way agreement invariant (§3) as an [expect] block: every
#: observable member of every affected group notified, nothing notified
#: without a fault.  Built-ins declare these so the scenario conformance
#: matrix in CI doubles as a property check (docs/API.md).
AGREEMENT_EXPECT = (
    Expectation("delivered", "==", "expected"),
    Expectation("spurious_groups", "==", 0),
)


# ----------------------------------------------------------------------
# Scenario forms of the paper experiments (shared with repro.experiments)
# ----------------------------------------------------------------------
@dataclass
class CrashConfig:
    """Fig 9's parameters (:mod:`repro.experiments.crash_notification`)."""

    n_nodes: int = 100
    n_groups: int = 100
    group_size: int = 5
    n_disconnected: int = 4
    observe_minutes: float = 12.0
    seed: int = 4

    @classmethod
    def paper_scale(cls) -> "CrashConfig":
        return cls(n_nodes=400, n_groups=400, group_size=5, n_disconnected=10)


@dataclass
class ChurnConfig:
    """Fig 10's parameters (:mod:`repro.experiments.churn`)."""

    n_stable: int = 50
    n_churning: int = 50
    n_groups: int = 25
    group_size: int = 10
    window_minutes: float = 10.0
    half_life_minutes: float = 30.0
    seed: int = 6

    @classmethod
    def paper_scale(cls) -> "ChurnConfig":
        return cls(n_stable=200, n_churning=200, n_groups=100, window_minutes=10.0)


def fig9_scenario(config: CrashConfig) -> Scenario:
    """The Fig 9 experiment as a scenario (see §7.4 of the paper).

    Both tracks share the ``crash-workload`` RNG stream in the order the
    original hand-written trial drew from it, so the resulting worlds are
    *identical* to the pre-scenario implementation.
    """
    return Scenario(
        name="paper-fig9",
        description="Fig 9: disconnect one machine's nodes; measure the "
        "crash-notification latency CDF at surviving members (§7.4).",
        n_nodes=config.n_nodes,
        seed=config.seed,
        phases=(
            Phase("settle", 2.0),
            Phase("observe", config.observe_minutes),
        ),
        expect=AGREEMENT_EXPECT + (Expectation("notify_p95_ms", "<", 360_000.0),),
        tracks=(
            GroupWorkload(
                n_groups=config.n_groups,
                group_size=config.group_size,
                observe="members",
                stream="crash-workload",
            ),
            DisconnectWave(
                count=config.n_disconnected,
                phase="observe",
                stream="crash-workload",
            ),
        ),
    )


def fig10_scenario(config: ChurnConfig, variant: str) -> Scenario:
    """One Fig 10 measurement (§7.4 churn) as a scenario.

    ``variant`` is ``"stable"``, ``"churn"``, or ``"churn-fuse"``.
    Stream names and track order replicate the original trial's RNG draw
    sequence exactly.
    """
    if variant == "stable":
        return Scenario(
            name="paper-fig10-stable",
            description="Fig 10 baseline: stable overlay sized like the "
            "churn average, background message rate only.",
            n_nodes=config.n_stable + config.n_churning // 2,
            seed=config.seed,
            phases=(Phase("measure", config.window_minutes, measure=True),),
        )
    churn = PoissonChurn(
        nodes=f"last:{config.n_churning}",
        half_life_minutes=config.half_life_minutes,
        phase="measure",
        pre_kill_alternate=True,
        stream="churn-schedule",
    )
    tracks: Tuple = (churn,)
    if variant == "churn-fuse":
        tracks = (
            GroupWorkload(
                n_groups=config.n_groups,
                group_size=config.group_size,
                members=f"first:{config.n_stable}",
                observe="root",
                stream="churn-groups",
            ),
            churn,
        )
    elif variant != "churn":
        raise ValueError(f"unknown fig10 variant: {variant!r}")
    return Scenario(
        name=f"paper-fig10-{variant}",
        description="Fig 10: overlay churn at 30-minute half-life"
        + (" with FUSE groups on the stable nodes" if variant == "churn-fuse" else ""),
        n_nodes=config.n_stable + config.n_churning,
        seed=config.seed,
        phases=(
            Phase("settle", 3.0),
            Phase("measure", config.window_minutes, measure=True),
        ),
        expect=AGREEMENT_EXPECT,
        tracks=tracks,
    )


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------
def steady(quick: bool = False) -> Scenario:
    n = 24 if quick else 40
    return Scenario(
        name="steady",
        description="No faults: FUSE groups at steady state; baseline "
        "message rate and zero spurious notifications (§7.5 flavour).",
        n_nodes=n,
        seed=7,
        phases=(
            Phase("warmup", 2.0),
            Phase("measure", 3.0 if quick else 6.0, measure=True),
        ),
        expect=AGREEMENT_EXPECT + (Expectation("groups_failed", "==", 0),),
        tracks=(
            GroupWorkload(n_groups=6 if quick else 12, group_size=4),
        ),
    )


def flash_churn(quick: bool = False) -> Scenario:
    n = 28 if quick else 48
    wave = 8 if quick else 16
    return Scenario(
        name="flash-churn",
        description="A flash crowd: a third of the population sat out "
        "bootstrap (crashed) and rejoins simultaneously mid-measurement, "
        "stressing overlay join load under live FUSE groups.",
        n_nodes=n,
        seed=11,
        phases=(
            Phase("warmup", 2.0),
            Phase("flash", 3.0 if quick else 5.0, measure=True),
        ),
        # The join flash crowd can transiently suspect a stable node
        # (documented flash-crowd realism), so up to one spurious group is
        # tolerated here; delivery stays exact.
        expect=(
            Expectation("delivered", "==", "expected"),
            Expectation("spurious_groups", "<=", 1),
        ),
        tracks=(
            GroupWorkload(
                n_groups=8 if quick else 12,
                group_size=4,
                members=f"first:{n - wave}",
            ),
            CrashRecoverWave(
                count=wave,
                nodes=f"last:{wave}",
                recover_phase="flash",
                spacing_ms=100.0,
            ),
        ),
    )


def partition_heal(quick: bool = False) -> Scenario:
    n = 24 if quick else 40
    return Scenario(
        name="partition-heal",
        description="Partition-and-heal (§3.5): the host set splits "
        "60/40 mid-run and heals minutes later; groups spanning the cut "
        "must notify every member, groups inside one side must survive.",
        n_nodes=n,
        seed=13,
        phases=(
            Phase("warmup", 2.0),
            Phase("partition", 4.0 if quick else 6.0, measure=True),
            Phase("healed", 2.0 if quick else 3.0),
        ),
        expect=AGREEMENT_EXPECT,
        tracks=(
            GroupWorkload(n_groups=6 if quick else 10, group_size=4),
            Partition(
                phase="partition",
                fractions=(0.6, 0.4),
                heal_after_minutes=2.0 if quick else 3.0,
            ),
        ),
    )


def creeping_loss(quick: bool = False) -> Scenario:
    return Scenario(
        name="creeping-loss",
        description="Time-varying link loss: per-link drop probability "
        "ramps 0 -> 1.6% across the window (the Fig 11/12 loss model, "
        "animated); spurious notifications creep in with it.",
        n_nodes=20 if quick else 36,
        seed=17,
        phases=(
            Phase("warmup", 2.0),
            Phase("measure", 4.0 if quick else 8.0, measure=True),
        ),
        # Loss-induced spurious notifications are this scenario's point,
        # so they are deliberately not bounded here; delivery (vacuously
        # exact — no faults touch members) and creation still must hold.
        expect=(
            Expectation("delivered", "==", "expected"),
            Expectation("groups_failed", "==", 0),
        ),
        tracks=(
            GroupWorkload(n_groups=6 if quick else 10, group_size=4),
            LinkLossRamp(phase="measure", start_loss=0.0, end_loss=0.016, steps=4),
        ),
    )


def correlated_rack_failure(quick: bool = False) -> Scenario:
    n = 24 if quick else 48
    return Scenario(
        name="correlated-rack-failure",
        description="A contiguous block of hosts — one rack / physical "
        "machine of virtual nodes, the Fig 9 failure made correlated — "
        "disconnects at once; every group touching the rack must notify.",
        n_nodes=n,
        seed=19,
        phases=(
            Phase("warmup", 2.0),
            Phase("fail", 6.0 if quick else 8.0, measure=True),
        ),
        expect=AGREEMENT_EXPECT,
        tracks=(
            GroupWorkload(n_groups=8 if quick else 12, group_size=5),
            DisconnectWave(count=4 if quick else 6, phase="fail", contiguous=True),
        ),
    )


def intransitive_pairs(quick: bool = False) -> Scenario:
    return Scenario(
        name="intransitive-pairs",
        description="Intransitive connectivity failures (§2, §3.4): "
        "root-member pairs inside live groups are cut while both ends "
        "stay globally reachable; the application signals fail-on-send "
        "and FUSE notifies the whole group.",
        n_nodes=20 if quick else 36,
        seed=23,
        phases=(
            Phase("warmup", 2.0),
            Phase("fail", 4.0 if quick else 6.0),
        ),
        expect=AGREEMENT_EXPECT,
        tracks=(
            GroupWorkload(n_groups=8 if quick else 12, group_size=4),
            IntransitivePairs(
                n_pairs=2 if quick else 3,
                phase="fail",
                detect_minutes=1.0,
                within_groups=True,
            ),
        ),
    )


def svtree_steady(quick: bool = False) -> Scenario:
    return Scenario(
        name="svtree-steady",
        description="§4 application workload: SV-tree subscriptions plus "
        "periodic publishes riding on FUSE-guarded tree links.",
        n_nodes=24 if quick else 40,
        seed=29,
        phases=(
            Phase("warmup", 3.0),
            Phase("measure", 3.0 if quick else 6.0, measure=True),
        ),
        # SV-tree link groups are service-internal (not registered with
        # the workload accounting); no registered group may be notified.
        expect=(Expectation("spurious_groups", "==", 0),),
        tracks=(
            SvtreeTraffic(
                n_topics=1 if quick else 2,
                subscribers_per_topic=6 if quick else 8,
                phase="measure",
                publish_per_minute=4.0,
            ),
        ),
    )


def paper_fig9(quick: bool = False) -> Scenario:
    if quick:
        config = CrashConfig(n_nodes=40, n_groups=20, n_disconnected=3, observe_minutes=8.0)
    else:
        config = CrashConfig()
    return fig9_scenario(config)


def paper_fig10(quick: bool = False) -> Scenario:
    if quick:
        config = ChurnConfig(n_stable=24, n_churning=24, n_groups=10, window_minutes=5.0)
    else:
        config = ChurnConfig()
    return fig10_scenario(config, "churn-fuse")


BUILTIN: Dict[str, Callable[[bool], Scenario]] = {
    "steady": steady,
    "flash-churn": flash_churn,
    "partition-heal": partition_heal,
    "creeping-loss": creeping_loss,
    "correlated-rack-failure": correlated_rack_failure,
    "intransitive-pairs": intransitive_pairs,
    "svtree-steady": svtree_steady,
    "paper-fig9": paper_fig9,
    "paper-fig10": paper_fig10,
}


def catalogue() -> List[Tuple[str, str]]:
    """(name, description) rows for ``--list`` (built at default scale)."""
    return [(name, factory(False).description) for name, factory in sorted(BUILTIN.items())]
