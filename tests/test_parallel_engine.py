"""Sharded parallel engine: determinism contract, partitioner, plumbing.

The headline invariant is byte-determinism: ``shards=N`` must reproduce the
single-process result *exactly* — same JSON bytes, same digest — for any N.
These tests pin that against the checked-in preset goldens, then cover the
pieces the contract stands on: the partitioner (hypothesis properties), the
engine's late-event lane, the per-node ingress sequencing, boundary-link
stats reconciliation, shard-invariant workload RNG streams, and the service
integration (progress = barrier time, no mailbox on sharded jobs).
"""

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.ingress import IngressSequencer
from repro.netsim.parallel import partition_graph, run_sharded
from repro.netsim.parallel.boundary import BoundaryLink
from repro.netsim.parallel.wire import decode_packet, encode_packet
from repro.netsim.packet import Packet, TCPHeader
from repro.scenario import get_preset
from repro.scenario.builder import workload_rng_seed
from repro.scenario.runner import run, spec_digest
from repro.scenario.spec import (
    AppSpec,
    EngineSpec,
    GraphLinkSpec,
    GraphNodeSpec,
    GraphSpec,
    ScenarioSpec,
    SpecError,
    StopSpec,
    WorkloadSpec,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


# ===================================================================== #
# Byte-determinism against the checked-in goldens                       #
# ===================================================================== #
class TestShardedByteIdentity:
    @pytest.mark.parametrize("preset,seed", [
        ("star_web_churn", 5),
        ("mesh_macroflow_sharing", 9),
    ])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_run_matches_the_golden_bytes(self, preset, seed, shards):
        spec = get_preset(preset)
        produced = run_sharded(spec, seed=seed, shards=shards).to_json()
        with open(os.path.join(GOLDEN_DIR, f"{preset}.seed{seed}.json"),
                  encoding="utf-8") as fh:
            assert produced == fh.read()

    @pytest.mark.parametrize("shards", [2, 3])
    def test_parking_lot_mix_matches_the_golden_bytes(self, shards):
        # An odd shard count: 12 nodes split 4/4/4 instead of in halves.
        produced = run_sharded(get_preset("parking_lot_mix"), seed=21,
                               shards=shards).to_json()
        with open(os.path.join(GOLDEN_DIR, "parking_lot_mix.seed21.json"),
                  encoding="utf-8") as fh:
            assert produced == fh.read()

    def test_engine_block_is_excluded_from_the_digest(self):
        plain = get_preset("mesh_macroflow_sharing")
        sharded = get_preset("mesh_macroflow_sharing")
        sharded.engine = EngineSpec(shards=4)
        sharded.validate()
        assert spec_digest(plain) == spec_digest(sharded)

    def test_run_dispatches_on_the_spec_engine_block(self):
        baseline = run(get_preset("star_web_churn")).to_json()
        spec = get_preset("star_web_churn")
        spec.engine = EngineSpec(shards=2)
        assert run(spec).to_json() == baseline

    def test_shards_argument_overrides_the_spec_engine_block(self):
        spec = get_preset("star_web_churn")
        spec.engine = EngineSpec(shards=4)
        # shards=1 forces the single-process path despite the spec.
        assert run(spec, shards=1).to_json() == run(get_preset("star_web_churn")).to_json()

    def test_realism_blocks_and_reroute_shard_byte_identically(self):
        from repro.scenario.spec import RerouteSpec

        # Gilbert–Elliott loss, RED, and a scheduled reroute all at once:
        # the per-direction model state and the global route recomputation
        # must reproduce the single-process bytes across the shard boundary.
        graph = GraphSpec(
            nodes=[GraphNodeSpec(name="src", cm=True),
                   GraphNodeSpec(name="ra", kind="router"),
                   GraphNodeSpec(name="rb", kind="router"),
                   GraphNodeSpec(name="dst")],
            links=[
                GraphLinkSpec(a="src", b="ra", rate_bps=4e6, delay=0.002,
                              loss={"kind": "gilbert_elliott",
                                    "p_good_bad": 0.01, "p_bad_good": 0.3}),
                GraphLinkSpec(a="ra", b="dst", rate_bps=4e6, delay=0.002,
                              queue_limit=32,
                              aqm={"kind": "red", "min_th": 4, "max_th": 12}),
                GraphLinkSpec(a="src", b="rb", rate_bps=4e6, delay=0.008),
                GraphLinkSpec(a="rb", b="dst", rate_bps=4e6, delay=0.008),
            ],
            reroutes=[RerouteSpec(time=1.3, a="src", b="ra", delay=0.03)],
        )
        spec = ScenarioSpec(
            name="realism_shards", graph=graph,
            workloads=[WorkloadSpec(kind="tcp_flows", host="src", peer="dst",
                                    label="churn",
                                    params={"rate": 3.0, "min_bytes": 5_000,
                                            "max_bytes": 40_000})],
            stop=StopSpec(until=3.0), metrics=("apps", "links"), seed=2)
        sharded = run_sharded(spec, seed=2, shards=2).to_json()
        assert sharded == run(spec, seed=2, shards=1).to_json()

    def test_sharding_a_non_graph_spec_is_a_spec_error(self):
        spec = get_preset("web_vat_mix")
        assert spec.graph is None
        with pytest.raises(SpecError, match="graph topology"):
            run(spec, shards=2)

    def test_sharding_a_telemetry_spec_is_a_spec_error(self):
        spec = get_preset("dumbbell_bulk")
        with pytest.raises(SpecError):
            run(spec, shards=2)

    def test_in_result_telemetry_on_a_sharded_graph_is_a_spec_error(self):
        from repro.scenario.spec import TelemetrySpec
        from repro.service.jobs import JobManager

        spec = get_preset("star_web_churn")
        spec.telemetry = TelemetrySpec()
        with pytest.raises(SpecError, match="in-result telemetry") as raised:
            run(spec, shards=2)
        assert raised.value.path == "engine.shards"
        manager = JobManager(slots=1)
        try:
            with pytest.raises(SpecError, match="in-result telemetry"):
                manager.submit(spec, shards=2)
            assert manager.jobs() == []
        finally:
            manager.shutdown()


# ===================================================================== #
# Partitioner properties                                                #
# ===================================================================== #
def _chain_spec(names, delays, shuffle=None):
    """A path graph host0 - host1 - ... with the given per-hop delays."""
    nodes = [GraphNodeSpec(name=name) for name in names]
    links = [
        GraphLinkSpec(a=names[i], b=names[i + 1], rate_bps=10e6, delay=delays[i])
        for i in range(len(names) - 1)
    ]
    if shuffle is not None:
        nodes = [nodes[i] for i in shuffle[0]]
        links = [links[i] for i in shuffle[1]]
    return ScenarioSpec(
        name="chain", graph=GraphSpec(nodes=nodes, links=links),
        stop=StopSpec(until=1.0), seed=1,
    )


@st.composite
def random_graphs(draw):
    """A connected random graph: a spanning chain plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=12))
    names = [f"n{i}" for i in range(n)]
    delay = st.floats(min_value=1e-4, max_value=0.05,
                      allow_nan=False, allow_infinity=False)
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    seen = set(edges)
    for a, b in extra:
        pair = (min(a, b), max(a, b))
        if a != b and pair not in seen:
            seen.add(pair)
            edges.append(pair)
    delays = [draw(delay) for _ in edges]
    nodes = [GraphNodeSpec(name=name) for name in names]
    links = [GraphLinkSpec(a=names[a], b=names[b], rate_bps=10e6, delay=d)
             for (a, b), d in zip(edges, delays)]
    spec = ScenarioSpec(name="rand", graph=GraphSpec(nodes=nodes, links=links),
                        stop=StopSpec(until=1.0), seed=1)
    shards = draw(st.integers(min_value=1, max_value=5))
    return spec, shards


class TestPartitionerProperties:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs())
    def test_every_node_lands_in_exactly_one_shard(self, case):
        spec, shards = case
        part = partition_graph(spec, shards)
        names = {node.name for node in spec.graph.nodes}
        assert set(part.shard_of) == names
        assert set(part.shard_of.values()) <= set(range(part.shards))
        # Every shard index in [0, shards) is actually inhabited.
        assert set(part.shard_of.values()) == set(range(part.shards))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs())
    def test_cut_pairs_are_exactly_the_inter_shard_links(self, case):
        spec, shards = case
        part = partition_graph(spec, shards)
        for link in spec.graph.links:
            crosses = part.shard_of[link.a] != part.shard_of[link.b]
            assert part.is_cut(link.a, link.b) == crosses
            assert part.is_cut(link.b, link.a) == crosses
        if part.shards > 1:
            cut_delays = [link.delay for link in spec.graph.links
                          if part.is_cut(link.a, link.b)]
            assert part.lookahead == min(cut_delays)
            assert part.lookahead > 0.0

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs(), st.randoms(use_true_random=False))
    def test_declaration_order_does_not_change_the_partition(self, case, rng):
        spec, shards = case
        part = partition_graph(spec, shards)
        nodes = list(spec.graph.nodes)
        links = list(spec.graph.links)
        rng.shuffle(nodes)
        rng.shuffle(links)
        shuffled = ScenarioSpec(
            name="rand", graph=GraphSpec(nodes=nodes, links=links),
            stop=StopSpec(until=1.0), seed=1)
        assert partition_graph(shuffled, shards).shard_of == part.shard_of

    def test_min_delay_links_are_cut_last(self):
        # Chain of 4 hosts; the middle hop is 10x slower to cross, so a
        # 2-way split must cut there and leave the fast edges internal.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        part = partition_graph(spec, 2)
        assert part.shards == 2
        assert part.cut_pairs == frozenset({("b", "c")})
        assert part.lookahead == 0.010

    def test_colocate_peer_apps_share_a_shard(self):
        # BulkApp installs a listener on the live peer object, so the
        # partitioner must keep the pair together even across the best cut.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        spec.apps = [AppSpec(app="bulk", host="b", peer="c",
                             params={"port": 5001, "transfer_bytes": 1000})]
        part = partition_graph(spec, 2)
        assert part.shard_of["b"] == part.shard_of["c"]

    def test_zero_delay_cut_is_rejected(self):
        spec = _chain_spec(["a", "b"], [0.0])
        with pytest.raises(SpecError, match="engine.shards"):
            partition_graph(spec, 2)

    def test_reroutes_lower_the_effective_lookahead(self):
        from repro.scenario.spec import RerouteSpec

        # The conservative window must stay safe over the link's whole
        # lifetime: a reroute that shrinks the cut link's delay mid-run
        # caps the lookahead from build time.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        spec.graph.reroutes = [RerouteSpec(time=1.0, a="c", b="b", delay=0.004)]
        part = partition_graph(spec, 2)
        assert part.cut_pairs == frozenset({("b", "c")})
        assert part.lookahead == 0.004

    def test_reroute_to_zero_delay_on_a_cut_link_is_rejected(self):
        from repro.scenario.spec import RerouteSpec

        # With spare capacity the clusterer absorbs a rerouted-to-zero link
        # into one shard (it sorts by effective delay), so force the cut:
        # two nodes, one link, delay rerouted to zero mid-run.
        spec = _chain_spec(["a", "b"], [0.004])
        spec.graph.reroutes = [RerouteSpec(time=1.0, a="a", b="b", delay=0.0)]
        with pytest.raises(SpecError, match="scheduled reroute"):
            partition_graph(spec, 2)

    def test_zero_delay_reroute_link_is_absorbed_when_capacity_allows(self):
        from repro.scenario.spec import RerouteSpec

        # The clusterer weights links by lifetime-minimum delay, so the
        # rerouted-to-zero middle hop sorts first and stays shard-internal.
        spec = _chain_spec(["a", "b", "c", "d"], [0.001, 0.010, 0.001])
        spec.graph.reroutes = [RerouteSpec(time=1.0, a="b", b="c", delay=0.0)]
        part = partition_graph(spec, 2)
        assert part.shard_of["b"] == part.shard_of["c"]
        assert ("b", "c") not in part.cut_pairs

    def test_requesting_more_shards_than_nodes_clamps(self):
        spec = _chain_spec(["a", "b"], [0.004])
        part = partition_graph(spec, 5)
        assert part.shards <= 2


# ===================================================================== #
# Engine late lane + ingress sequencing                                 #
# ===================================================================== #
class TestPushLate:
    def test_late_entry_runs_after_every_normal_event_at_its_time(self):
        sim = Simulator()
        order = []
        sim.push_late(1.0, 5, order.append, ("late",))
        sim.at(1.0, order.append, "first")
        sim.at(1.0, order.append, "second")
        sim.at(2.0, order.append, "next-instant")
        sim.run()
        assert order == ["first", "second", "late", "next-instant"]

    def test_same_time_late_entries_order_by_rank(self):
        sim = Simulator()
        order = []
        sim.push_late(1.0, 7, order.append, ("rank7",))
        sim.push_late(1.0, 2, order.append, ("rank2",))
        sim.run()
        assert order == ["rank2", "rank7"]

    def test_past_time_raises(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(Exception):
            sim.push_late(0.5, 0, lambda: None)

    def test_horizon_overshoot_keeps_the_late_entry_out_of_the_tail(self):
        # A late entry pushed back at the horizon must not poison the tail:
        # a subsequent same-time normal push would otherwise dispatch after
        # it, violating (time, seq) order.
        sim = Simulator()
        order = []
        sim.push_late(2.0, 1, order.append, ("late",))
        sim.run(until=1.0)  # pops the late entry, pushes it back
        sim.at(2.0, order.append, "normal")
        sim.run()
        assert order == ["normal", "late"]


class TestIngressSequencer:
    def test_same_instant_deliveries_drain_in_link_then_seq_order(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=got.append)
        port_hi = seq.port(9)
        port_lo = seq.port(3)
        # Arrival order disagrees with link order on purpose.
        sim.at(1.0, port_hi, "hi-0")
        sim.at(1.0, port_lo, "lo-0")
        sim.at(1.0, port_hi, "hi-1")
        sim.run()
        assert got == ["lo-0", "hi-0", "hi-1"]

    def test_distinct_instants_stay_separate(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=got.append)
        port = seq.port(0)
        sim.at(1.0, port, "t1")
        sim.at(2.0, port, "t2")
        sim.run()
        assert got == ["t1", "t2"]

    def test_injection_joins_the_same_instant_ordering(self):
        sim = Simulator()
        got = []
        seq = IngressSequencer(sim, rank=0, receiver=got.append)
        port = seq.port(6)
        seq.inject(1.0, 2, 0, "injected")  # lower link index than the port
        sim.at(1.0, port, "local")
        sim.run()
        assert got == ["injected", "local"]


# ===================================================================== #
# Wire format + boundary link                                           #
# ===================================================================== #
class TestWireAndBoundary:
    def test_tcp_packet_round_trips(self):
        header = TCPHeader()
        header.seq, header.ack, header.syn = 7, 3, True
        packet = Packet("10.0.0.1", "10.0.0.2", 5001, 80, protocol="tcp",
                        payload_bytes=1460, headers=header, ecn_capable=True,
                        flow_id=4, created_at=1.25)
        clone = decode_packet(encode_packet(packet))
        assert (clone.src, clone.dst, clone.sport, clone.dport) == (
            packet.src, packet.dst, packet.sport, packet.dport)
        assert (clone.headers.seq, clone.headers.ack, clone.headers.syn) == (7, 3, True)
        assert clone.ecn_capable and clone.flow_id == 4 and clone.created_at == 1.25
        assert clone._pool_state == 0  # unmanaged: receiver release is a no-op

    def test_boundary_link_emits_instead_of_delivering(self):
        sim = Simulator()
        outbox = []
        link = BoundaryLink(sim, outbox, 12, rate_bps=8e6, delay=0.01, name="x->y")
        packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, protocol="udp", payload_bytes=1000)
        sim.at(0.0, link.send, packet)
        sim.run()
        assert len(outbox) == 1
        deliver_ts, link_index, emit_seq, wire = outbox[0]
        assert link_index == 12 and emit_seq == 0
        assert deliver_ts == pytest.approx(packet.size * 8 / 8e6 + 0.01)
        assert decode_packet(wire).payload_bytes == 1000
        assert link.stats.delivered_packets == 1

    def test_finalize_backs_out_in_flight_emissions(self):
        sim = Simulator()
        outbox = []
        link = BoundaryLink(sim, outbox, 0, rate_bps=8e6, delay=5.0, name="x->y")
        packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, protocol="udp", payload_bytes=1000)
        sim.at(0.0, link.send, packet)
        sim.run()
        assert link.stats.delivered_packets == 1
        link.finalize(end_time=1.0)  # delivery at ~5s is beyond the horizon
        assert link.stats.delivered_packets == 0
        assert link.stats.delivered_bytes == 0


# ===================================================================== #
# Workload RNG shard invariance                                         #
# ===================================================================== #
class TestWorkloadRngInvariance:
    def test_seed_derivation_depends_only_on_global_identity(self):
        # The derivation takes (run_seed, seed_offset, global index) and
        # nothing else — there is no shard-local input it *could* vary by.
        assert workload_rng_seed(5, None, 0) == workload_rng_seed(5, None, 0)
        assert workload_rng_seed(5, None, 0) != workload_rng_seed(5, None, 1)
        assert workload_rng_seed(5, 3, 0) == workload_rng_seed(5, 3, 7)

    def test_workload_streams_are_identical_across_hosting_shards(self):
        # Run star_web_churn at every shard count; each client workload's
        # flow metrics (arrival times, sizes — all RNG-driven) must agree
        # no matter which shard hosted the generator.
        spec = get_preset("star_web_churn")
        baseline = json.loads(run(spec, seed=5).to_json())["workloads"]
        for shards in (2, 3, 4):
            sharded = json.loads(
                run_sharded(get_preset("star_web_churn"), seed=5,
                            shards=shards).to_json())["workloads"]
            assert sharded == baseline


# ===================================================================== #
# Coordinator progress + service integration                            #
# ===================================================================== #
def _graph_spec_with_engine(shards):
    spec = get_preset("star_web_churn")
    spec.engine = EngineSpec(shards=shards)
    return spec


class TestCoordinatorProgress:
    def test_progress_reports_monotone_barrier_times(self):
        spec = get_preset("star_web_churn")
        ticks = []
        run_sharded(spec, seed=5, shards=2,
                    progress_cb=lambda now, horizon: ticks.append((now, horizon)))
        times = [now for now, _ in ticks]
        assert times[0] == 0.0
        assert times == sorted(times)
        assert times[-1] <= spec.stop.until
        horizon = {h for _, h in ticks}
        assert horizon == {spec.stop.until}
        # Barrier granularity: consecutive ticks are at most one lookahead
        # window apart (the min shard sim-time can never be stale by more).
        lookahead = partition_graph(spec, 2).lookahead
        assert all(b - a <= lookahead + 1e-12 for a, b in zip(times, times[1:]))


class TestServiceSharding:
    def test_sharded_job_runs_to_done_with_identical_bytes(self):
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = manager.submit(get_preset("star_web_churn"), shards=2)
            assert job.shards == 2
            manager.wait(job.id, timeout=120.0)
            assert job.state == "done"
            assert job.result.to_json() == run(get_preset("star_web_churn")).to_json()
            status = job.status()
            assert status["shards"] == 2
            assert status["progress"]["fraction"] == pytest.approx(1.0)
        finally:
            manager.shutdown()

    def test_sharded_job_progress_is_the_min_shard_sim_time(self):
        # The worker publishes sim_time from the coordinator's barrier
        # callback; at DONE it equals the final barrier = stop time.
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = manager.submit(_graph_spec_with_engine(2))
            manager.wait(job.id, timeout=120.0)
            assert job.sim_time == pytest.approx(job.result.duration_s)
        finally:
            manager.shutdown()

    def test_mailbox_requests_are_rejected_on_sharded_jobs(self):
        from repro.service.jobs import JobManager, JobNotLive

        manager = JobManager(slots=1)
        try:
            job = manager.submit(get_preset("star_web_churn"), shards=2)
            with pytest.raises(JobNotLive, match="sharded"):
                job.request(lambda scenario: None)
            manager.wait(job.id, timeout=120.0)
        finally:
            manager.shutdown()

    def test_mailbox_rejection_maps_to_http_409(self):
        from repro.service.api import ServiceApi
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        api = ServiceApi(manager)
        try:
            body = json.dumps({"preset": "star_web_churn", "shards": 2}).encode()
            response = api.dispatch("POST", "/v1/jobs", body)
            assert response.status == 201
            job_id = response.json()["job"]["id"]
            assert response.json()["job"]["shards"] == 2
            hosts = api.dispatch("GET", f"/v1/jobs/{job_id}/hosts")
            assert hosts.status == 409
            assert "sharded" in hosts.json()["error"]
            manager.wait(job_id, timeout=120.0)
        finally:
            manager.shutdown()

    def test_submitting_shards_on_a_non_graph_spec_is_http_400(self):
        from repro.service.api import ServiceApi
        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        api = ServiceApi(manager)
        try:
            body = json.dumps({"preset": "web_vat_mix", "shards": 2}).encode()
            response = api.dispatch("POST", "/v1/jobs", body)
            assert response.status == 400
            assert "graph" in response.json()["error"]
        finally:
            manager.shutdown()

    def test_control_hook_on_sharded_run_is_a_spec_error(self):
        from repro.scenario.runner import run_streaming

        with pytest.raises(SpecError, match="control hooks"):
            run_streaming(get_preset("star_web_churn"), shards=2,
                          control_hook=lambda scenario: None)


# ===================================================================== #
# A shard worker that dies mid-run                                      #
# ===================================================================== #
_TEST_PID = os.getpid()


@pytest.fixture
def crash_app():
    """Register an app that kills its process at a set simulated time.

    Shard workers fork, so they inherit the registration.  The app refuses
    to kill the test process itself.
    """
    from repro.scenario.applications import (
        APPLICATIONS,
        Application,
        Param,
        register_application,
    )

    class CrashApp(Application):
        name = "crash_for_test"
        PARAMS = {"at": Param(float, default=0.5)}

        def start(self):
            self.sim.at(self.params["at"], self._crash)

        def _crash(self):
            if os.getpid() == _TEST_PID:
                raise RuntimeError("crash_for_test ran in the test process")
            os._exit(1)

    register_application(CrashApp)
    yield CrashApp.name
    APPLICATIONS.pop(CrashApp.name)


def _crash_spec(app_name):
    spec = _chain_spec(["a", "b", "c", "d"], [0.01, 0.05, 0.01])
    spec.apps = [AppSpec(app=app_name, host="c")]
    spec.stop = StopSpec(until=2.0)
    return spec


class TestDeadShardWorker:
    def test_run_sharded_raises_naming_the_dead_shard(self, crash_app):
        import multiprocessing
        import threading

        spec = _crash_spec(crash_app)
        dead = partition_graph(spec, 2).shard_of["c"]
        outcome = {}

        def target():
            try:
                run_sharded(spec, shards=2)
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive(), "run_sharded hung on a dead worker"
        assert isinstance(outcome.get("error"), RuntimeError)
        assert f"shard worker {dead} " in str(outcome["error"])
        assert multiprocessing.active_children() == []

    def test_cancelled_sharded_job_stops_its_workers_promptly(self):
        # Workers blocked in recv never see EOF (each holds its own pipe's
        # coordinator end), so teardown must kill them, not wait them out.
        import multiprocessing
        import time

        from repro.service.jobs import JobManager

        spec = get_preset("star_web_churn")
        spec.stop = StopSpec(until=600.0)
        manager = JobManager(slots=1)
        try:
            job = manager.submit(spec, shards=2)
            deadline = time.time() + 60.0
            while job.sim_time < 0.5 and time.time() < deadline:
                time.sleep(0.01)
            started = time.time()
            job.cancel()
            manager.wait(job.id, timeout=60.0)
            assert job.state == "cancelled"
            assert time.time() - started < 4.0
        finally:
            manager.shutdown()
        assert multiprocessing.active_children() == []

    def test_service_job_with_a_dead_worker_fails(self, crash_app):
        import multiprocessing

        from repro.service.jobs import JobManager

        manager = JobManager(slots=1)
        try:
            job = manager.submit(_crash_spec(crash_app), shards=2)
            manager.wait(job.id, timeout=60.0)
            assert job.state == "failed"
            assert "shard worker" in job.error
        finally:
            manager.shutdown()
        assert multiprocessing.active_children() == []


# ===================================================================== #
# Per-shard traces                                                      #
# ===================================================================== #
class TestShardedTraces:
    def test_merged_trace_is_time_ordered_jsonl(self, tmp_path):
        trace = tmp_path / "sharded.jsonl"
        run_sharded(get_preset("star_web_churn"), seed=5, shards=2,
                    trace_path=str(trace))
        lines = trace.read_text().splitlines()
        assert lines, "sharded trace must not be empty"
        times = [json.loads(line).get("t", 0.0) for line in lines]
        assert times == sorted(times)
        # No stray per-shard files left behind.
        assert not list(tmp_path.glob("*.shard*"))
