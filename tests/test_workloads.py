"""Unit tests for the workload registry and its random processes."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    ARRIVAL_PROCESSES,
    bounded_pareto,
    describe_workloads,
    geometric,
    get_workload,
    known_workloads,
    make_interarrival,
    validate_workload_params,
)
from repro.scenario.spec import SpecError


def _drive(draw, horizon: float):
    """Advance a mutable clock through a gap sampler; arrival times <= horizon."""
    now = [0.0]
    times = []
    while True:
        gap = draw(now)
        if now[0] + gap > horizon:
            return times
        now[0] += gap
        times.append(now[0])


def _clocked(arrival: str, rate: float, seed: int, **kwargs):
    """A (sampler, clock-box) pair wired together for :func:`_drive`."""
    box = [0.0]
    sampler = make_interarrival(random.Random(seed), arrival, rate,
                                clock=lambda: box[0], **kwargs)

    def draw(now):
        box[0] = now[0]
        return sampler()

    return draw


class TestArrivalProcesses:
    def test_poisson_mean_matches_rate(self):
        rng = random.Random(7)
        draw = make_interarrival(rng, "poisson", rate=4.0)
        gaps = [draw() for _ in range(20_000)]
        assert abs(sum(gaps) / len(gaps) - 0.25) < 0.01

    def test_weibull_mean_matches_rate_for_any_shape(self):
        for shape in (0.7, 1.0, 2.5):
            rng = random.Random(11)
            draw = make_interarrival(rng, "weibull", rate=2.0, weibull_shape=shape)
            gaps = [draw() for _ in range(20_000)]
            assert abs(sum(gaps) / len(gaps) - 0.5) < 0.02, shape

    def test_weibull_low_shape_is_burstier(self):
        # Burstiness = dispersion of the gaps; shape<1 must have a heavier
        # tail than shape>1 at the same mean.
        def cv(shape):
            rng = random.Random(3)
            draw = make_interarrival(rng, "weibull", rate=1.0, weibull_shape=shape)
            gaps = [draw() for _ in range(20_000)]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return math.sqrt(var) / mean

        assert cv(0.6) > cv(2.0)

    def test_same_seed_same_trajectory(self):
        a = make_interarrival(random.Random(5), "poisson", 3.0)
        b = make_interarrival(random.Random(5), "poisson", 3.0)
        assert [a() for _ in range(50)] == [b() for _ in range(50)]

    def test_invalid_arguments_rejected(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="rate"):
            make_interarrival(rng, "poisson", 0.0)
        with pytest.raises(ValueError, match="shape"):
            make_interarrival(rng, "weibull", 1.0, weibull_shape=-1.0)
        with pytest.raises(ValueError, match="unknown arrival"):
            make_interarrival(rng, "uniform", 1.0)

    @given(shape=st.floats(min_value=0.5, max_value=4.0),
           rate=st.floats(min_value=0.5, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_weibull_mean_preservation_property(self, shape, rate):
        # The scale solved from Gamma(1 + 1/k) must keep the mean at 1/rate
        # for clustering (<1) and regularising (>1) shapes alike.
        rng = random.Random(29)
        draw = make_interarrival(rng, "weibull", rate, weibull_shape=shape)
        n = 3_000
        mean = sum(draw() for _ in range(n)) / n
        assert abs(mean * rate - 1.0) < 0.2

    def test_flash_crowd_concentrates_arrivals_near_peak(self):
        draw = _clocked("flash_crowd", 2.0, seed=23,
                        flash_peak=10.0, flash_at=5.0, flash_width=1.0)
        times = _drive(draw, horizon=10.0)
        near_peak = sum(1 for t in times if 4.0 <= t <= 6.0)
        early = sum(1 for t in times if t <= 2.0)
        # Rate is 10x baseline at the peak and ~baseline far from it.
        assert near_peak > 3 * max(early, 1)

    def test_diurnal_rate_oscillates_and_preserves_the_period_mean(self):
        draw = _clocked("diurnal", 40.0, seed=31,
                        diurnal_period=10.0, diurnal_depth=0.8)
        times = _drive(draw, horizon=10.0)  # exactly one full cycle
        peak = sum(1 for t in times if 1.5 <= t <= 3.5)    # around sin max (t=2.5)
        trough = sum(1 for t in times if 6.5 <= t <= 8.5)  # around sin min (t=7.5)
        assert peak > 3 * max(trough, 1)
        # The sinusoid integrates to zero over a whole period: the count must
        # come back to the baseline rate * horizon.
        assert abs(len(times) - 400) < 60

    def test_time_varying_processes_require_a_clock(self):
        rng = random.Random(0)
        for arrival in ("flash_crowd", "diurnal"):
            with pytest.raises(ValueError, match="clock"):
                make_interarrival(rng, arrival, 1.0)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(flash_peak=0.5), "flash_peak"),
        (dict(flash_width=0.0), "flash_width"),
    ])
    def test_flash_crowd_invalid_params(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            make_interarrival(random.Random(0), "flash_crowd", 1.0,
                              clock=lambda: 0.0, **kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(diurnal_depth=1.0), "diurnal_depth"),
        (dict(diurnal_depth=-0.1), "diurnal_depth"),
        (dict(diurnal_period=0.0), "diurnal_period"),
    ])
    def test_diurnal_invalid_params(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            make_interarrival(random.Random(0), "diurnal", 1.0,
                              clock=lambda: 0.0, **kwargs)

    def test_time_varying_trajectories_are_seed_deterministic(self):
        a = _drive(_clocked("flash_crowd", 3.0, seed=9), horizon=8.0)
        b = _drive(_clocked("flash_crowd", 3.0, seed=9), horizon=8.0)
        assert a == b and a

    def test_clock_is_inert_for_homogeneous_processes(self):
        # Passing a clock to poisson/weibull must not perturb the draw
        # sequence — this is what keeps pre-existing preset goldens stable
        # now that the generators always thread a clock through.
        plain = make_interarrival(random.Random(5), "poisson", 3.0)
        clocked = make_interarrival(random.Random(5), "poisson", 3.0,
                                    clock=lambda: 0.0)
        assert [plain() for _ in range(64)] == [clocked() for _ in range(64)]

    def test_registry_exposes_all_processes(self):
        assert ARRIVAL_PROCESSES == ("poisson", "weibull", "flash_crowd", "diurnal")


class TestSizeDistributions:
    def test_bounded_pareto_respects_bounds(self):
        rng = random.Random(13)
        draws = [bounded_pareto(rng, 1_000, 1.2, 50_000) for _ in range(5_000)]
        assert min(draws) >= 1_000
        assert max(draws) <= 50_000
        # Heavy tail: the cap must actually bind sometimes.
        assert any(d == 50_000 for d in draws)

    def test_bounded_pareto_argument_checks(self):
        rng = random.Random(0)
        with pytest.raises(ValueError, match="minimum"):
            bounded_pareto(rng, 0, 1.5, 100)
        with pytest.raises(ValueError, match="maximum"):
            bounded_pareto(rng, 100, 1.5, 50)
        with pytest.raises(ValueError, match="alpha"):
            bounded_pareto(rng, 100, 0.0, 500)

    def test_geometric_mean_and_floor(self):
        rng = random.Random(17)
        draws = [geometric(rng, 4.0) for _ in range(20_000)]
        assert min(draws) >= 1
        assert abs(sum(draws) / len(draws) - 4.0) < 0.1
        assert geometric(rng, 1.0) == 1
        with pytest.raises(ValueError, match="mean"):
            geometric(rng, 0.5)

    @given(minimum=st.integers(min_value=1, max_value=500),
           span=st.integers(min_value=0, max_value=5_000),
           alpha=st.floats(min_value=0.2, max_value=5.0),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_bounded_pareto_always_lands_in_bounds(self, minimum, span, alpha, seed):
        # paretovariate >= 1, so minimum * draw >= minimum and the int()
        # truncation can never dip below the floor; the cap clips the tail.
        # Includes the degenerate minimum == maximum case (span == 0).
        rng = random.Random(seed)
        maximum = minimum + span
        for _ in range(25):
            d = bounded_pareto(rng, minimum, alpha, maximum)
            assert minimum <= d <= maximum

    def test_bounded_pareto_truncation_floor_with_steep_tail(self):
        # A very steep tail keeps raw draws just above the minimum; int()
        # truncation must collapse them onto the floor, never below it.
        rng = random.Random(19)
        draws = [bounded_pareto(rng, 7, 50.0, 1_000) for _ in range(2_000)]
        assert min(draws) == 7
        assert sum(1 for d in draws if d == 7) > len(draws) // 2

    def test_geometric_tail_is_finite_as_u_approaches_one(self):
        class FixedU:
            def __init__(self, u):
                self.u = u

            def random(self):
                return self.u

        # random.random() returns values in [0, 1); the CDF inversion must
        # stay finite (and deep in the tail) at the largest representable u.
        largest_u = 1.0 - 2.0**-53
        deep = geometric(FixedU(largest_u), 4.0)
        assert isinstance(deep, int)
        assert deep > geometric(FixedU(0.5), 4.0) >= 1


class TestRegistry:
    def test_bundled_generators_registered(self):
        assert known_workloads() == ["tcp_flows", "udp_blast", "vat_onoff", "web_sessions"]

    def test_get_workload_unknown_kind_lists_registry(self):
        with pytest.raises(KeyError, match="tcp_flows"):
            get_workload("smoke_signals")

    def test_describe_workloads_summarises_params(self):
        rows = {name: (desc, params) for name, desc, params in describe_workloads()}
        assert "tcp_flows" in rows
        desc, params = rows["tcp_flows"]
        assert desc
        assert any(line.startswith("rate (float, default=1.0)") for line in params)
        assert any("one of poisson/weibull" in line for line in params)

    def test_validate_params_applies_defaults(self):
        normalized = validate_workload_params("tcp_flows", {"rate": 3.0})
        assert normalized["rate"] == 3.0
        assert normalized["arrival"] == "poisson"
        assert normalized["max_active"] == 16

    def test_validate_params_rejects_by_name(self):
        with pytest.raises(SpecError, match="'burst_rate'"):
            validate_workload_params("tcp_flows", {"burst_rate": 2.0})
        with pytest.raises(SpecError, match="arrival"):
            validate_workload_params("tcp_flows", {"arrival": "uniform"})
        with pytest.raises(SpecError, match="rate"):
            validate_workload_params("tcp_flows", {"rate": "fast"})

    def test_out_of_range_params_fail_eagerly(self):
        # Regression: a zero reap interval used to pass validation and then
        # hang the run (the reap tick rescheduled itself at +0.0 forever);
        # zero-mean draws crashed mid-run in expovariate.  All of these must
        # be path-qualified SpecErrors at validation time.
        for kind, bad in (
            ("tcp_flows", {"reap_interval": 0.0}),
            ("tcp_flows", {"rate": 0.0}),
            ("tcp_flows", {"rate": -2.0}),
            ("tcp_flows", {"min_bytes": 0}),
            ("tcp_flows", {"pareto_alpha": 0.0}),
            ("tcp_flows", {"max_active": 0}),
            ("web_sessions", {"think_mean": 0.0}),
            ("web_sessions", {"requests_mean": 0.5}),
            ("vat_onoff", {"mean_on": 0.0}),
            ("vat_onoff", {"buffer_frames": 0}),
        ):
            with pytest.raises(SpecError, match=f"params.{list(bad)[0]}"):
                validate_workload_params(kind, bad)

    def test_size_bounds_cross_check_reported_at_build(self):
        from repro.scenario import (
            HostSpec,
            LinkSpec,
            ScenarioSpec,
            StopSpec,
            WorkloadSpec,
            build,
        )

        spec = ScenarioSpec(
            name="inverted_sizes",
            hosts=[HostSpec(name="a", cm=True), HostSpec(name="b")],
            links=[LinkSpec(a="a", b="b", rate_bps=1e6, delay=0.01)],
            workloads=[WorkloadSpec(kind="tcp_flows", host="a", peer="b",
                                    params={"min_bytes": 9_000, "max_bytes": 100})],
            stop=StopSpec(until=1.0),
        )
        with pytest.raises(SpecError, match="max_bytes .* min_bytes"):
            build(spec, seed=1)

    def test_validate_params_returns_fresh_dicts(self):
        first = validate_workload_params("web_sessions", {"rate": 2.0})
        first["rate"] = 99.0  # mutating the returned dict must not leak into later calls
        second = validate_workload_params("web_sessions", {"rate": 2.0})
        assert second["rate"] == 2.0

    def test_reregistered_workload_defaults_apply(self):
        from repro.scenario.applications import Param
        from repro.workloads import WORKLOADS, Workload, register_workload

        class FakeLoad(Workload):
            name = "reregistered_fake_wl"
            PARAMS = {"n": Param(int, default=1)}

        register_workload(FakeLoad)
        try:
            assert validate_workload_params("reregistered_fake_wl", {}) == {"n": 1}

            class FakeLoad2(Workload):
                name = "reregistered_fake_wl"
                PARAMS = {"n": Param(int, default=99)}

            register_workload(FakeLoad2)
            assert validate_workload_params("reregistered_fake_wl", {}) == {"n": 99}
        finally:
            WORKLOADS.pop("reregistered_fake_wl", None)

    def test_register_requires_a_name(self):
        from repro.workloads import Workload, register_workload

        class Nameless(Workload):
            pass

        with pytest.raises(ValueError, match="registry name"):
            register_workload(Nameless)
