"""Fig 11 — CDFs of per-route loss rates under per-link packet loss.

Paper setup: per-link loss of 0.4 %, 0.8 %, and 1.6 % over routes of
2-43 router hops (median 15) compounds into median end-to-end route loss
of 5.8 %, 11.4 % and 21.5 % respectively.  This experiment samples host
pairs, computes each route's compound loss, and reports the CDFs — a
direct check that our topology's hop-count distribution reproduces the
paper's loss-compounding regime, which Fig 12's false-positive behaviour
then depends on.

Engine decomposition: one trial per per-link loss rate.  Every trial of a
base seed rebuilds the *same* topology and pair sample (the topology is
seeded from the base seed, not the per-trial seed) so the three CDFs stay
comparable — exactly as if one topology had been measured three times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.engine import Measurements, ResultSet, TrialSpec, format_cdf
from repro.experiments.report import Claim, Figure, FigureResult
from repro.net import MercatorConfig, Network, build_mercator_topology
from repro.sim import CdfSeries, Simulator


@dataclass
class LossRatesConfig:
    n_hosts: int = 400
    n_pairs: int = 800
    per_link_loss: Sequence[float] = (0.004, 0.008, 0.016)
    seed: int = 7

    @classmethod
    def paper_scale(cls) -> "LossRatesConfig":
        return cls()  # this experiment is cheap enough to run full-scale


class LossRatesResult(FigureResult):
    headers = ("per-link loss", "route p25 %", "route median %", "route p75 %", "route p95 %")
    title = ("Fig 11 — per-route loss CDFs "
             "(paper medians: 5.8% / 11.4% / 21.5%; median route 15 hops)")
    claims = (
        Claim("0.4% per-link loss gives a median route loss of 5.8% +/- 2.5 points",
              lambda r: abs(r.route_loss[0.004].value_at_fraction(0.5) - 0.058) <= 0.025),
        Claim("0.8% per-link loss gives a median route loss of 11.4% +/- 4 points",
              lambda r: abs(r.route_loss[0.008].value_at_fraction(0.5) - 0.114) <= 0.04),
        Claim("1.6% per-link loss gives a median route loss of 21.5% +/- 7 points",
              lambda r: abs(r.route_loss[0.016].value_at_fraction(0.5) - 0.215) <= 0.07),
        Claim("the median route is 8-22 hops, the paper's regime",
              lambda r: 8 <= r.hop_counts.value_at_fraction(0.5) <= 22),
    )

    def __init__(self, rs: ResultSet, config: LossRatesConfig) -> None:
        self.route_loss = {
            per_link: subset.cdf("route_loss", f"loss-{per_link}")
            for per_link, subset in rs.group_by("per_link_loss").items()
        }
        # All trials of one seed share a pair sample; use the first grid
        # point's trials so hops are not multiple-counted per loss rate.
        self.hop_counts = CdfSeries("hops")
        first_axis = rs.axis("per_link_loss")
        if first_axis:
            self.hop_counts = rs.where(per_link_loss=first_axis[0]).cdf("hops", "hops")

    def rows(self) -> List[Tuple]:
        out = []
        for per_link in sorted(self.route_loss):
            cdf = self.route_loss[per_link]
            out.append(
                (
                    f"{per_link * 100:.1f}%",
                    100.0 * cdf.value_at_fraction(0.25),
                    100.0 * cdf.value_at_fraction(0.5),
                    100.0 * cdf.value_at_fraction(0.75),
                    100.0 * cdf.value_at_fraction(0.95),
                )
            )
        return out

    def format_table(self) -> str:
        table = super().format_table()
        table += "\nhops: median %.0f, min %.0f, max %.0f" % (
            self.hop_counts.value_at_fraction(0.5),
            self.hop_counts.value_at_fraction(0.001),
            self.hop_counts.value_at_fraction(1.0),
        )
        for per_link, cdf in sorted(self.route_loss.items()):
            table += "\n" + format_cdf(
                f"route-loss@{per_link * 100:.1f}%",
                [(100.0 * v, f) for v, f in cdf.points(40)],
            )
        return table


def _trial(spec: TrialSpec) -> Measurements:
    config: LossRatesConfig = spec.context
    per_link = spec["per_link_loss"]
    # Seed from base_seed so every loss rate measures the same topology
    # and pair sample (route-loss compounding is deterministic per route).
    sim = Simulator(seed=spec.base_seed)
    topo, hosts = build_mercator_topology(
        MercatorConfig.scaled_for_hosts(config.n_hosts), sim.rng.stream("topology")
    )
    net = Network(sim, topo)
    rng = sim.rng.stream("loss-pairs")
    topo.set_uniform_loss(per_link)
    route_loss: List[float] = []
    hops: List[float] = []
    for _ in range(config.n_pairs):
        a, b = rng.sample(hosts, 2)
        route = net.routes.route(a, b)
        hops.append(route.hop_count)
        route_loss.append(route.current_loss())
    return {"route_loss": route_loss, "hops": hops}


FIGURE = Figure(
    name="fig11",
    config=LossRatesConfig,
    paper_scale=LossRatesConfig.paper_scale,
    trial=_trial,
    result=LossRatesResult,
    grid=lambda config: {"per_link_loss": tuple(config.per_link_loss)},
)
run = FIGURE.run
