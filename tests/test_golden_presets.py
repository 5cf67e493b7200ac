"""Golden determinism for every bundled preset and every smoke experiment.

These files pin the *byte-exact* output of all bundled presets at their
default seeds: the hosts/links and dumbbell presets as well as the
graph+workload ones.  Any change to the spec tree, the topology compilers,
the routing tie-breaks, the workload RNG derivation or the arrival/size
distributions shows up here as a diff — which is exactly the point: those
are all load-bearing determinism contracts now.

The registry experiments are pinned the same way at ``--smoke`` size, as a
sha256 manifest (``figure8`` alone is over a megabyte of JSON).

The same-seed and jobs=N invariants mirror the experiment layer: repeat
runs are byte-identical, traces are byte-identical, and the ``scale``
experiment reduces to the same bytes no matter how its trials are sharded.
"""

import hashlib
import json
import os

import pytest

from repro.scenario import get_preset, run

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: (preset, seed) pairs with a checked-in golden result.
GOLDEN_PRESETS = (
    ("parking_lot_mix", 21),
    ("star_web_churn", 5),
    ("mesh_macroflow_sharing", 9),
    ("gilbert_wireless_bulk", 17),
    ("red_gateway_sharing", 19),
    ("flash_crowd_star", 23),
    ("cm_vs_udp_blast", 27),
    ("mobile_handoff_reroute", 31),
    ("web_vat_mix", 42),
    ("bulk_macroflow_sharing", 7),
    ("ecn_vs_loss", 13),
    ("libcm_poll_streaming", 11),
    ("libcm_select_streaming", 11),
    ("dumbbell_bulk", 3),
)

#: The realism presets additionally pin their bytes under the sharded engine.
SHARDED_GOLDEN_PRESETS = (
    ("gilbert_wireless_bulk", 17),
    ("red_gateway_sharing", 19),
    ("flash_crowd_star", 23),
    ("cm_vs_udp_blast", 27),
    ("mobile_handoff_reroute", 31),
)


#: sha256 of ``run_experiment(name, smoke=True).to_json()`` per registry experiment.
SMOKE_MANIFEST = os.path.join(GOLDEN_DIR, "experiments_smoke.sha256.json")


def golden_path(name: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.seed{seed}.json")


def load_smoke_manifest() -> dict:
    with open(SMOKE_MANIFEST, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestGoldenPresets:
    @pytest.mark.parametrize("name,seed", GOLDEN_PRESETS)
    def test_preset_matches_checked_in_golden_bytes(self, name, seed):
        spec = get_preset(name)
        assert spec.seed == seed, "golden filename encodes the preset's default seed"
        produced = run(spec, seed=seed).to_json()
        with open(golden_path(name, seed), "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert produced == golden

    @pytest.mark.parametrize("name,seed", GOLDEN_PRESETS)
    def test_same_seed_rerun_is_byte_identical(self, name, seed):
        spec = get_preset(name)
        assert run(spec, seed=seed).to_json() == run(spec, seed=seed).to_json()

    def test_goldens_are_not_vacuous(self):
        # The pinned results must actually contain churn: a regression that
        # silently stopped the workloads would otherwise still "match".
        with open(golden_path("parking_lot_mix", 21), "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        flows = sum(entry["metrics"]["flows_started"] for entry in payload["workloads"])
        assert flows > 10
        assert any(entry["link"] == "r1->r2" for entry in payload["links"])

    @pytest.mark.parametrize("name,seed", SHARDED_GOLDEN_PRESETS)
    def test_sharded_run_matches_checked_in_golden_bytes(self, name, seed):
        # PR 9's byte-determinism contract extends to the realism features:
        # GE loss, RED, time-varying arrivals, udp_blast and mid-run reroutes
        # must all produce the exact golden bytes under the parallel engine.
        from repro.netsim.parallel import run_sharded

        spec = get_preset(name)
        produced = run_sharded(spec, seed=seed, shards=2).to_json()
        with open(golden_path(name, seed), "r", encoding="utf-8") as fh:
            golden = fh.read()
        assert produced == golden

    def test_realism_goldens_are_not_vacuous(self):
        # Each realism preset must exhibit the mechanism it exists to pin.
        with open(golden_path("gilbert_wireless_bulk", 17), encoding="utf-8") as fh:
            ge = json.load(fh)
        assert any(e["dropped_random"] > 0 for e in ge["links"])
        with open(golden_path("red_gateway_sharing", 19), encoding="utf-8") as fh:
            red = json.load(fh)
        assert any(e["ecn_marked"] > 0 for e in red["links"])
        with open(golden_path("cm_vs_udp_blast", 27), encoding="utf-8") as fh:
            blast = json.load(fh)
        wl = blast["workloads"][0]["metrics"]
        assert wl["packets_sent"] > 1000 and wl["packets_delivered"] > 1000
        with open(golden_path("mobile_handoff_reroute", 31), encoding="utf-8") as fh:
            handoff = json.load(fh)
        assert handoff["spec_digest"]  # reroutes participate in the digest

    @pytest.mark.parametrize("name,seed", GOLDEN_PRESETS[:1])
    def test_trace_files_are_byte_identical_across_runs(self, tmp_path, name, seed):
        spec = get_preset(name)
        trace_a = tmp_path / "a.jsonl"
        trace_b = tmp_path / "b.jsonl"
        run(spec, seed=seed, trace_path=str(trace_a))
        run(spec, seed=seed, trace_path=str(trace_b))
        assert trace_a.read_bytes() == trace_b.read_bytes()
        assert trace_a.stat().st_size > 0


class TestGoldenSmokeExperiments:
    def test_manifest_covers_every_registry_experiment(self):
        from repro.experiments.registry import SPECS

        assert sorted(load_smoke_manifest()) == sorted(SPECS)

    def test_every_preset_has_a_golden(self):
        from repro.scenario import PRESETS

        assert sorted(name for name, _ in GOLDEN_PRESETS) == sorted(PRESETS)

    @pytest.mark.parametrize("name", sorted(load_smoke_manifest()))
    def test_smoke_artifact_matches_checked_in_digest(self, name):
        from repro.experiments.runner import run_experiment

        text = run_experiment(name, smoke=True, jobs=1, cache=None, verbose=False).to_json()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == load_smoke_manifest()[name]


class TestScaleExperimentSharding:
    def test_scale_smoke_jobs2_matches_jobs1_byte_for_byte(self):
        from repro.experiments import scale
        from repro.experiments.parallel import run_trials

        specs = scale.trials(host_counts=(2, 3), duration=4.0, seeds=(1, 2))
        serial = scale.reduce(run_trials(specs, jobs=1)).to_json()
        pooled = scale.reduce(run_trials(specs, jobs=2)).to_json()
        assert serial == pooled
        assert '"jain_fairness"' in serial
