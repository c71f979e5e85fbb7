"""TransportConfig validation (the Topology.add_link contract) and the
retry arithmetic the simulated and wire channels share through it."""

import math

import pytest

from repro.net.backends.asynckernel import AsyncioKernel
from repro.net.backends.base import (
    validate_fraction,
    validate_non_negative,
    validate_positive,
    validate_retry_count,
)
from repro.net.backends.livenet import LiveNetwork, _LivePending
from repro.net.message import Message
from repro.net.network import Network, _SendAttemptState
from repro.net.topology import Topology
from repro.net.transport import TransportConfig
from repro.sim import Simulator


NAN = float("nan")
INF = float("inf")


class TestValidationHelpers:
    def test_positive_rejects_nan_inf_nonpositive(self):
        for bad in (NAN, INF, -INF, 0.0, -1.0):
            with pytest.raises(ValueError):
                validate_positive(bad, "x")
        with pytest.raises(TypeError):
            validate_positive("fast", "x")
        assert validate_positive(2, "x") == 2.0

    def test_non_negative_allows_zero(self):
        assert validate_non_negative(0.0, "x") == 0.0
        for bad in (NAN, INF, -0.5):
            with pytest.raises(ValueError):
                validate_non_negative(bad, "x")

    def test_fraction_half_open(self):
        assert validate_fraction(0.0, "x") == 0.0
        assert validate_fraction(0.999, "x") == 0.999
        for bad in (1.0, -0.01, NAN):
            with pytest.raises(ValueError):
                validate_fraction(bad, "x")

    def test_retry_count_integral(self):
        assert validate_retry_count(0, "x") == 0
        assert validate_retry_count(4, "x") == 4
        with pytest.raises(ValueError):
            validate_retry_count(-1, "x")
        with pytest.raises(TypeError):
            validate_retry_count(2.5, "x")
        with pytest.raises(TypeError):
            validate_retry_count("many", "x")


class TestLiveTransportConfig:
    """Named for the wire config it once tested: the wire now takes
    TransportConfig, so these run against that."""

    def test_defaults_valid(self):
        cfg = TransportConfig()
        assert cfg.rto_initial_ms == 200.0
        assert cfg.max_retries == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rto_initial_ms": 0.0},
            {"rto_initial_ms": -5.0},
            {"rto_initial_ms": NAN},
            {"rto_initial_ms": INF},
            {"rto_backoff": 0.5},
            {"rto_backoff": NAN},
            {"max_retries": -1},
            {"jitter_fraction": 1.0},
            {"jitter_fraction": NAN},
            {"send_overhead_ms": -1.0},
            {"send_overhead_ms": NAN},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            TransportConfig(rto_initial_ms="fast")

    def test_zero_path_latency_allowed(self):
        assert TransportConfig(send_overhead_ms=0.0).send_overhead_ms == 0.0


class TestSharedRetryArithmetic:
    def test_schedule_matches_simulated_transport(self):
        sim_cfg = TransportConfig(rto_initial_ms=100, rto_backoff=2.0, max_retries=3)
        kernel = AsyncioKernel(seed=1, time_scale=0.01)
        try:
            live_cfg = LiveNetwork(kernel, config=sim_cfg).config
        finally:
            kernel.close()
        assert live_cfg is sim_cfg
        assert live_cfg.retry_schedule_ms() == [100, 300, 700]
        assert live_cfg.worst_case_delivery_extra_ms() == 700

    @pytest.mark.parametrize("backend", ["sim", "live"])
    @pytest.mark.parametrize(
        "config",
        [TransportConfig(), TransportConfig(rto_initial_ms=70.0, rto_backoff=1.7, max_retries=6)],
    )
    def test_lost_segments_follow_the_schedule(self, backend, config):
        """The delays a send backs off by add up to ``retry_schedule_ms``,
        and loss ``max_retries + 1`` breaks the connection — on the
        simulated transport and on the wire."""
        if backend == "sim":
            topo = Topology()
            router = topo.add_router()
            topo.attach_host(0, router)
            topo.attach_host(1, router)
            net = Network(Simulator(seed=1), topo, config=config)
            attempt = _SendAttemptState(net, 0, 1, Message(), None, False, None, 0)
            close = None
        else:
            kernel = AsyncioKernel(seed=1, time_scale=0.01)
            net = LiveNetwork(kernel, config=config)
            attempt = _LivePending(net, 0, 1, 0, b"", "Message", None, 0)
            close = kernel.close
        try:
            net._mark_connected(0, 1)
            elapsed, schedule = 0.0, []
            for _ in range(config.max_retries):
                delay = attempt._segment_lost()
                assert delay is not None
                elapsed += delay
                schedule.append(elapsed)
            assert schedule == config.retry_schedule_ms()
            assert net.has_connection(0, 1)
            breaks = net._ctr_breaks.value
            assert attempt._segment_lost() is None
            assert net._ctr_breaks.value == breaks + 1
            assert not net.has_connection(0, 1)
        finally:
            if close is not None:
                close()

    def test_live_rto_counts_from_the_wall_instant_of_the_send(self):
        """A send inside a dispatch that runs late arms its full RTO from
        the wall reading, not from the frozen (earlier) event time."""
        kernel = AsyncioKernel(seed=1, time_scale=1.0)
        clock = kernel.clock
        attempt = _LivePending(LiveNetwork(kernel), 0, 1, 0, b"", "Message", None, 0)
        try:
            clock._now = clock.wall_ms() - 40.0  # dispatching an event 40 ms late
            sent_at = clock.wall_ms()
            attempt.transmit()
            assert attempt.timer.when >= sent_at + attempt.rto_ms
        finally:
            clock._now = None
            attempt.retire()
            kernel.close()

    def test_zero_retries_empty_schedule(self):
        assert TransportConfig(max_retries=0).retry_schedule_ms() == []

    def test_simulated_config_gained_nan_checks(self):
        """The shared contract hardened TransportConfig too: NaN used to
        slip through its range checks (NaN compares false everywhere)."""
        for field in ("rto_initial_ms", "rto_backoff", "jitter_fraction", "send_overhead_ms"):
            with pytest.raises(ValueError):
                TransportConfig(**{field: NAN})
        assert not math.isnan(TransportConfig().rto_initial_ms)
