"""Artifact graph: structure, functional profile artifacts, key stability.

The graph's contract: every spec expands into the same deterministic,
topologically-ordered job list on every process; executing jobs through
``compute_job`` is result-identical to the serial drivers; and the
fig16/fig19 functional pipelines become disk artifacts that a warm
rerun restores without recomputation.
"""

from __future__ import annotations

import json
from dataclasses import astuple

import pytest

from repro.sim.runner import SCHEMES, dnn_sweep
from repro.sim.scheduler import (
    ArtifactJob,
    ablation_table_spec,
    build_graph,
    compute_job,
    dnn_spec,
    extra_table_spec,
    gact_profile_spec,
    gop_profile_spec,
    graph_spec,
)


class TestGraphStructure:
    def test_sweep_spec_expands_to_trace_results_sweep(self):
        spec = dnn_spec("AlexNet", "Cloud")
        jobs = build_graph([spec])
        assert [j.kind for j in jobs] == (
            ["trace"] + ["result"] * len(SCHEMES) + ["sweep"]
        )
        trace, *results, sweep = jobs
        assert trace.deps == ()
        for result, scheme in zip(results, SCHEMES):
            assert result.scheme == scheme
            assert result.deps == (trace.key,)
        assert sweep.deps == tuple(r.key for r in results)
        assert sweep.key == spec.sweep_key()

    def test_profile_spec_is_one_dependency_free_node(self):
        jobs = build_graph([gact_profile_spec("chrY", "PacBio", 2)])
        assert len(jobs) == 1
        assert jobs[0].kind == "profile"
        assert jobs[0].deps == ()

    def test_dependencies_precede_dependents(self):
        jobs = build_graph([
            dnn_spec("AlexNet", "Cloud"),
            graph_spec("google-plus", "PR", iterations=2, scale_divisor=256),
            gop_profile_spec("IBPB", 8, 8),
        ])
        seen: set = set()
        for job in jobs:
            assert all(dep in seen for dep in job.deps), job.kind
            seen.add(job.key)

    def test_duplicate_specs_dedup_first_seen(self):
        spec = dnn_spec("AlexNet", "Cloud")
        assert len(build_graph([spec, spec, spec])) == len(SCHEMES) + 2

    def test_graph_is_deterministic_and_picklable(self):
        import pickle

        specs = [dnn_spec("AlexNet", "Cloud"), gop_profile_spec("IBPB", 8, 8)]
        first, again = build_graph(specs), build_graph(specs)
        assert first == again
        assert pickle.loads(pickle.dumps(first)) == first

    def test_job_ids_are_unique_and_filesystem_safe(self):
        jobs = build_graph([
            dnn_spec("AlexNet", "Cloud"),
            dnn_spec("AlexNet", "Edge"),
            gact_profile_spec("chrY", "PacBio", 2),
        ])
        ids = [job.job_id() for job in jobs]
        assert len(set(ids)) == len(ids)
        for job_id in ids:
            assert job_id.replace("-", "").isalnum()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            compute_job(ArtifactJob("mystery", ("x",), dnn_spec("AlexNet")))


class TestComputeJob:
    def test_graph_execution_matches_serial_sweep(self, disk_cache):
        """trace → results → sweep through compute_job ≡ dnn_sweep."""
        spec = dnn_spec("AlexNet", "Cloud")
        for job in build_graph([spec]):
            compute_job(job)
        assembled = disk_cache.peek(spec.sweep_key())
        assert assembled is not None
        disk_cache.set_cache_dir(None)
        disk_cache.clear()
        reference = dnn_sweep("AlexNet", "Cloud")
        assert assembled.workload == reference.workload
        assert set(assembled.results) == set(reference.results)
        for name in reference.results:
            assert (assembled.results[name].total_cycles
                    == reference.results[name].total_cycles)
            assert (astuple(assembled.results[name].traffic)
                    == astuple(reference.results[name].traffic))

    def test_sweep_assembly_self_heals_missing_results(self, fresh_cache):
        """Undecodable/missing result deps are rebuilt, like get_or_build."""
        spec = dnn_spec("AlexNet", "Cloud")
        jobs = build_graph([spec])
        compute_job(jobs[-1])  # no result artifacts exist yet
        assembled = fresh_cache.peek(spec.sweep_key())
        assert assembled is not None
        assert set(assembled.results) == set(SCHEMES)

    def test_stale_result_spill_is_rebuilt_not_fatal(self, disk_cache):
        """A codec-version bump must not wedge a shared cache dir: stale
        result spills pass the existence check but rebuild on decode."""
        spec = dnn_spec("AlexNet", "Cloud")
        jobs = build_graph([spec])
        for job in jobs:
            compute_job(job)
        reference = disk_cache.peek(spec.sweep_key())
        for spill in disk_cache.cache_dir.glob("result-*.json"):
            spill.write_text('{"version": -1}')  # stale codec
        for spill in disk_cache.cache_dir.glob("sweep-*.json"):
            spill.unlink()
        disk_cache.clear()  # fresh process over the litter-y shared dir
        compute_job(jobs[-1])
        rebuilt = disk_cache.peek(spec.sweep_key())
        assert rebuilt.workload == reference.workload
        for name in reference.results:
            assert (rebuilt.results[name].total_cycles
                    == reference.results[name].total_cycles)


class TestProfileArtifacts:
    def test_fig16_warm_rerun_restores_profiles(self, disk_cache):
        from repro.experiments.registry import run_experiment

        cold = run_experiment("fig16", quick=True).to_text()
        assert disk_cache.miss_kinds.get("profile", 0) == 2
        assert list(disk_cache.cache_dir.glob("profile-*.json"))
        disk_cache.clear()  # fresh process: memory tier gone, disk stays
        warm = run_experiment("fig16", quick=True).to_text()
        assert warm == cold
        assert disk_cache.miss_kinds.get("profile", 0) == 0
        assert disk_cache.disk_hits == 2

    def test_fig19_warm_rerun_skips_decoder_and_crypto(self, disk_cache,
                                                       monkeypatch):
        from repro.experiments.registry import run_experiment

        cold = run_experiment("fig19", quick=True).to_text()
        disk_cache.clear()
        # A warm rerun must not touch the functional pipeline at all.
        monkeypatch.setattr(
            "repro.video.profile.decode_profile",
            lambda *a, **k: pytest.fail("functional pipeline recomputed"),
        )
        warm = run_experiment("fig19", quick=True).to_text()
        assert warm == cold

    def test_profile_prefetch_serves_the_drivers(self, fresh_cache):
        from repro.experiments.fig16_gact import profile_specs
        from repro.experiments.registry import run_experiment

        for spec in profile_specs(quick=True):
            spec.fetch()
        assert fresh_cache.miss_kinds.get("profile", 0) == 2
        before = fresh_cache.misses
        run_experiment("fig16", quick=True)
        assert fresh_cache.misses == before  # pure cache hits


class TestProfileCodecs:
    def test_profile_round_trip_is_exact(self):
        from repro.experiments.storage import dumps_profile, loads_profile

        profile = gop_profile_spec("IBPB", 8, 8).build_profile()
        assert loads_profile(dumps_profile(profile)) == profile

    def test_result_round_trip_is_exact(self, fresh_cache):
        from repro.experiments.storage import dumps_result, loads_result

        sweep = dnn_sweep("AlexNet", "Cloud")
        for result in sweep.results.values():
            restored = loads_result(dumps_result(result))
            assert restored.total_cycles == result.total_cycles
            assert astuple(restored.traffic) == astuple(result.traffic)

    def test_version_mismatch_rejected(self):
        from repro.experiments.storage import loads_profile, loads_result

        with pytest.raises(ValueError):
            loads_profile('{"version": 999, "profile": {}}')
        with pytest.raises(ValueError):
            loads_result('{"version": 999, "result": {}}')


class TestTableArtifacts:
    """Ablations/extras as graph artifacts: full-suite coverage."""

    def test_registry_reaches_every_table(self):
        from repro.experiments.ablations import ABLATIONS
        from repro.experiments.extras import EXTRAS
        from repro.experiments.registry import FULL_SUITE, suite_graph

        keys = {job.key for job in suite_graph(FULL_SUITE, quick=True)}
        for name in ABLATIONS:
            assert ablation_table_spec(name, True).artifact_key() in keys
        for name in EXTRAS:
            assert extra_table_spec(name, True).artifact_key() in keys

    def test_extra_table_depends_on_its_sweeps_when_present(self):
        from repro.experiments.extras import table_dep_specs

        deps = table_dep_specs("batch", quick=True)
        assert deps  # the study assembles from suite sweeps
        jobs = build_graph(deps + [extra_table_spec("batch", True)])
        table = jobs[-1]
        assert table.kind == "profile"
        assert set(table.deps) == {s.sweep_key() for s in deps}

    def test_table_without_its_sweeps_is_dependency_free(self):
        """Soft deps: the graph never blocks on artifacts no job makes."""
        jobs = build_graph([extra_table_spec("batch", True)])
        assert len(jobs) == 1
        assert jobs[0].deps == ()

    def test_ablation_warm_rerun_skips_the_study(self, disk_cache,
                                                 monkeypatch):
        from repro.experiments.ablations import run_ablation

        cold = run_ablation("dram-grade", quick=True).to_text()
        assert disk_cache.miss_kinds.get("profile", 0) == 1
        disk_cache.clear()
        monkeypatch.setitem(
            __import__("repro.experiments.ablations",
                       fromlist=["ABLATIONS"]).ABLATIONS,
            "dram-grade",
            lambda quick: pytest.fail("ablation study recomputed"),
        )
        warm = run_ablation("dram-grade", quick=True).to_text()
        assert warm == cold
        assert disk_cache.miss_kinds.get("profile", 0) == 0

    def test_extra_warm_rerun_skips_study_and_sweeps(self, disk_cache):
        from repro.experiments.extras import run_extra

        cold = run_extra("batch", quick=True).to_text()
        disk_cache.clear()
        warm = run_extra("batch", quick=True).to_text()
        assert warm == cold
        assert sum(disk_cache.miss_kinds.values()) == 0

    def test_compute_job_matches_direct_study(self, fresh_cache):
        """A queue/pool-computed table decodes to the serial table."""
        from repro.experiments.ablations import ABLATIONS
        from repro.experiments.base import ExperimentResult

        spec = ablation_table_spec("crypto-efficiency", True)
        for job in build_graph([spec]):
            compute_job(job)
        doc = fresh_cache.peek(spec.artifact_key())
        restored = ExperimentResult.from_doc(doc)
        reference = ABLATIONS["crypto-efficiency"](quick=True)
        assert restored.to_text() == reference.to_text()

    def test_experiment_doc_round_trip_is_rendering_exact(self):
        from repro.experiments.base import ExperimentResult

        result = ExperimentResult("x", "Title", ["a", "b"])
        result.add_row(a="label", b=0.1 + 0.2)  # a float repr can't shorten
        result.summary["avg"] = 1 / 3
        result.paper["avg"] = 0.3
        result.notes = "note"
        doc = json.loads(json.dumps(result.to_doc()))
        restored = ExperimentResult.from_doc(doc)
        assert restored.to_text() == result.to_text()
        assert restored.rows[0]["b"] == result.rows[0]["b"]

    def test_numpy_scalars_are_unboxed(self):
        import numpy as np

        from repro.experiments.base import ExperimentResult

        result = ExperimentResult("x", "t", ["v"])
        result.add_row(v=np.float64(1.25))
        result.summary["n"] = np.int64(3)
        doc = result.to_doc()
        json.dumps(doc)  # must serialize
        assert doc["rows"][0]["v"] == 1.25
        assert type(doc["rows"][0]["v"]) is float
        assert type(doc["summary"]["n"]) is int

    def test_unknown_table_names_rejected(self):
        from repro.experiments.ablations import run_ablation
        from repro.experiments.extras import run_extra

        with pytest.raises(KeyError):
            run_ablation("nope")
        with pytest.raises(KeyError):
            run_extra("nope")


class TestStableCacheKeys:
    def test_equal_configs_share_keys(self):
        from repro.genome.darwin import DarwinConfig
        from repro.genome.dsoft import DsoftConfig
        from repro.video.decoder import DecoderConfig

        for cls in (DarwinConfig, DsoftConfig, DecoderConfig):
            assert cls().cache_key() == cls().cache_key()

    def test_field_changes_change_keys(self):
        from repro.genome.darwin import DarwinConfig
        from repro.genome.dsoft import DsoftConfig
        from repro.video.decoder import DecoderConfig

        assert (DarwinConfig(tiles_per_read_factor=2.0).cache_key()
                != DarwinConfig().cache_key())
        assert DsoftConfig(band=128).cache_key() != DsoftConfig().cache_key()
        assert DecoderConfig(width=1280).cache_key() != DecoderConfig().cache_key()

    def test_floats_are_hex_encoded_not_repr(self):
        """Float fields must appear as exact hex strings, never bare floats
        (artifact keys go through ``repr``; hex is format-proof)."""
        from repro.genome.darwin import DarwinConfig
        from repro.video.decoder import DecoderConfig

        def flatten(key):
            for item in key:
                if isinstance(item, tuple):
                    yield from flatten(item)
                else:
                    yield item

        for config in (DarwinConfig(), DecoderConfig()):
            values = list(flatten(config.cache_key()))
            assert not any(isinstance(v, float) for v in values)
            assert any(isinstance(v, str) and "0x" in v for v in values)

    def test_profile_keys_are_repr_stable(self):
        key = gact_profile_spec("chrY", "PacBio", 2).artifact_key()
        assert eval(repr(key)) == key  # primitives only round-trip repr
