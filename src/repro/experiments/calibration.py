"""Fig 6 — RPC latency calibration.

The paper measured 2400 RPCs between random node pairs three ways: first
RPC on the cluster (pays TCP connection setup), second RPC on the cluster
(cached connection), and the simulator (no connection model).  The
second-RPC curve tracked the simulator closely and the first-RPC curve
sat roughly 2x higher; the median was ~130 ms with a T3 heavy tail.

Our equivalent three series over the same synthetic Mercator topology:
*first RPC* (connection setup + request/reply), *second RPC* (cached
connection), and *topology RTT* (the pure two-way path latency the
simulator curve represents).  The expected shape: second ≈ RTT and
first ≈ 2 × second.

Engine decomposition: one trial per base seed; each trial builds its own
world and measures ``n_pairs`` RPC pairs.  Extra seeds replicate the
whole measurement and their samples merge into the reported CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.engine import Measurements, ResultSet, TrialSpec, format_cdf
from repro.experiments.report import Claim, Figure, FigureResult
from repro.net import MercatorConfig, Network, build_mercator_topology
from repro.net.node import Host, RpcReply, RpcRequest
from repro.sim import Simulator


class _CalPing(RpcRequest):
    size_bytes = 128


class _CalPong(RpcReply):
    size_bytes = 128


@dataclass
class CalibrationConfig:
    n_hosts: int = 120
    n_pairs: int = 400
    seed: int = 1

    @classmethod
    def paper_scale(cls) -> "CalibrationConfig":
        return cls(n_hosts=400, n_pairs=2400)


class CalibrationResult(FigureResult):
    headers = ("percentile", "first RPC ms", "second RPC ms", "topology RTT ms")
    title = "Fig 6 — RPC latency calibration (paper: median ~130 ms, first ~2x second)"
    claims = (
        Claim("the second RPC tracks the topology RTT: median within 1.5x",
              lambda r: r.second.value_at_fraction(0.5) <= 1.5 * r.rtt.value_at_fraction(0.5)),
        Claim("the first RPC pays about one more round trip: median 1.5x-3.5x the second's",
              lambda r: 1.5 * r.second.value_at_fraction(0.5) <= r.first.value_at_fraction(0.5)
              <= 3.5 * r.second.value_at_fraction(0.5)),
        Claim("the median RTT is in the paper's regime: 60-400 ms",
              lambda r: 60.0 <= r.rtt.value_at_fraction(0.5) <= 400.0),
    )

    def __init__(self, rs: ResultSet, config: CalibrationConfig) -> None:
        self.first = rs.cdf("first_ms", "first-rpc")
        self.second = rs.cdf("second_ms", "second-rpc")
        self.rtt = rs.cdf("rtt_ms", "topology-rtt")

    def rows(self) -> List[tuple]:
        out = []
        for pct in (0.25, 0.50, 0.75, 0.90, 0.99):
            out.append(
                (
                    f"p{int(pct * 100)}",
                    self.first.value_at_fraction(pct),
                    self.second.value_at_fraction(pct),
                    self.rtt.value_at_fraction(pct),
                )
            )
        return out

    def format_table(self) -> str:
        table = super().format_table()
        cdfs = "\n".join(
            format_cdf(name, series.points(max_points=60))
            for name, series in [
                ("first-rpc", self.first),
                ("second-rpc", self.second),
                ("topology-rtt", self.rtt),
            ]
        )
        return table + "\n" + cdfs


def _trial(spec: TrialSpec) -> Measurements:
    config: CalibrationConfig = spec.context
    sim = Simulator(seed=spec.seed)
    topo, host_ids = build_mercator_topology(
        MercatorConfig.scaled_for_hosts(config.n_hosts), sim.rng.stream("topology")
    )
    net = Network(sim, topo)
    hosts = {h: Host(net, h) for h in host_ids}
    for host in hosts.values():
        host.register_handler(_CalPing, lambda m, h=host: h.respond(m, _CalPong()))

    first: List[float] = []
    second: List[float] = []
    rtt: List[float] = []
    rng = sim.rng.stream("calibration-pairs")

    for _ in range(config.n_pairs):
        a, b = rng.sample(host_ids, 2)
        rtt.append(net.routes.rtt(a, b))
        for series in (first, second):
            start = sim.now
            done = []
            hosts[a].rpc(
                b,
                _CalPing(),
                timeout_ms=60_000.0,
                on_reply=lambda _r, s=series, t0=start: (done.append(1), s.append(sim.now - t0)),
                on_failure=lambda why: done.append(why),
            )
            if not sim.run_until(lambda: bool(done), timeout_ms=math.inf):
                raise RuntimeError("calibration RPC never completed")
        # Forget the cached connection so the next pair's 'first' is cold.
        net._break_connection(a, b)

    return {"first_ms": first, "second_ms": second, "rtt_ms": rtt}


FIGURE = Figure(
    name="fig6",
    config=CalibrationConfig,
    paper_scale=CalibrationConfig.paper_scale,
    trial=_trial,
    result=CalibrationResult,
)
run = FIGURE.run
