"""Property-based tests (hypothesis) for core data structures and invariants."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import jain_fairness
from repro.core import (
    AimdWindowController,
    RoundRobinScheduler,
    RttEstimator,
    WeightedRoundRobinScheduler,
    CM_ECN_CONGESTION,
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
)
from repro.core.constants import MAX_RTO_SECONDS, MIN_RTO_SECONDS
from repro.netsim import Link, Packet, Simulator
from repro.telemetry import FixedBinAccumulator

MTU = 1500

congestion_events = st.sampled_from(
    [CM_NO_CONGESTION, CM_TRANSIENT_CONGESTION, CM_PERSISTENT_CONGESTION, CM_ECN_CONGESTION]
)
ack_or_congestion = st.one_of(
    st.integers(min_value=1, max_value=100_000),  # an acknowledgement of N bytes
    congestion_events,
)


class TestAimdProperties:
    @given(st.lists(ack_or_congestion, max_size=200))
    @settings(deadline=None)
    def test_window_always_within_bounds(self, events):
        controller = AimdWindowController(MTU, max_window_bytes=10_000_000)
        for event in events:
            if isinstance(event, int):
                controller.on_ack(event)
            else:
                controller.on_congestion(event)
        assert MTU <= controller.cwnd <= 10_000_000
        assert controller.ssthresh >= 2 * MTU

    @given(st.lists(st.integers(min_value=1, max_value=100_000), min_size=1, max_size=100))
    @settings(deadline=None)
    def test_acks_never_shrink_the_window(self, acks):
        controller = AimdWindowController(MTU)
        previous = controller.cwnd
        for nbytes in acks:
            controller.on_ack(nbytes)
            assert controller.cwnd >= previous
            previous = controller.cwnd

    @given(st.integers(min_value=2, max_value=50))
    @settings(deadline=None)
    def test_congestion_always_reduces_a_grown_window(self, growth_rounds):
        controller = AimdWindowController(MTU)
        for _ in range(growth_rounds):
            controller.on_ack(int(controller.cwnd))
        before = controller.cwnd
        controller.on_congestion(CM_TRANSIENT_CONGESTION)
        assert controller.cwnd < before

    @given(st.floats(min_value=1e-4, max_value=10.0))
    @settings(deadline=None)
    def test_rate_estimate_consistent_with_window(self, srtt):
        controller = AimdWindowController(MTU)
        assert controller.rate_estimate(srtt) * srtt == pytest.approx(controller.cwnd)


class TestRttProperties:
    @given(st.lists(st.floats(min_value=1e-4, max_value=5.0), min_size=1, max_size=200))
    @settings(deadline=None)
    def test_srtt_stays_within_sample_range(self, samples):
        estimator = RttEstimator()
        for sample in samples:
            estimator.sample(sample)
        assert min(samples) <= estimator.smoothed_rtt() <= max(samples)

    @given(st.lists(st.floats(min_value=1e-4, max_value=100.0), min_size=1, max_size=50))
    @settings(deadline=None)
    def test_rto_always_clamped(self, samples):
        estimator = RttEstimator()
        for sample in samples:
            estimator.sample(sample)
        assert MIN_RTO_SECONDS <= estimator.rto() <= MAX_RTO_SECONDS


class TestSchedulerProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=200))
    @settings(deadline=None)
    def test_round_robin_conserves_requests(self, flow_ids):
        scheduler = RoundRobinScheduler()
        for flow_id in flow_ids:
            scheduler.enqueue(flow_id)
        served = []
        while scheduler.has_pending():
            served.append(scheduler.next_flow())
        assert sorted(served) == sorted(flow_ids)

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=120),
        st.integers(min_value=1, max_value=5),
    )
    @settings(deadline=None)
    def test_weighted_scheduler_conserves_requests(self, flow_ids, weight):
        scheduler = WeightedRoundRobinScheduler()
        scheduler.set_weight(1, weight)
        for flow_id in flow_ids:
            scheduler.enqueue(flow_id)
        served = []
        while scheduler.has_pending():
            served.append(scheduler.next_flow())
        assert sorted(served) == sorted(flow_ids)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
    @settings(deadline=None)
    def test_round_robin_no_starvation(self, n_first, n_second):
        scheduler = RoundRobinScheduler()
        for _ in range(n_first):
            scheduler.enqueue(1)
        for _ in range(n_second):
            scheduler.enqueue(2)
        first_grants = [scheduler.next_flow() for _ in range(min(4, n_first + n_second))]
        if n_first and n_second and len(first_grants) >= 2:
            assert set(first_grants[:2]) == {1, 2}


class TestLinkProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=1460), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=30),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_link_conserves_packets(self, sizes, queue_limit):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay=0.001, queue_limit=queue_limit, seed=1)
        received = []
        link.attach(received.append)
        accepted = 0
        for index, size in enumerate(sizes):
            packet = Packet(src="a", dst="b", sport=1, dport=2, protocol="udp", payload_bytes=size)
            if link.send(packet):
                accepted += 1
        sim.run()
        # Every accepted packet is delivered exactly once; drops are only the
        # refused ones.
        assert len(received) == accepted
        assert link.stats.dropped_packets == len(sizes) - accepted
        assert len({p.packet_id for p in received}) == len(received)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.integers(min_value=0, max_value=10_000)),
                    max_size=100))
    @settings(deadline=None)
    def test_fixed_bins_conserve_bytes(self, observations):
        bins = FixedBinAccumulator(bin_width=0.5)
        total = 0
        for time, nbytes in observations:
            bins.add(time, nbytes)
            total += nbytes
        assert sum(value for _t, value in bins.bin_series()) == total


class TestMetricsProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    @settings(deadline=None)
    def test_jain_index_bounded(self, shares):
        value = jain_fairness(shares)
        assert 0.0 <= value <= 1.0 + 1e-9
