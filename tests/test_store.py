"""Tests for the content-addressed artifact store (the *persist* layer).

The satellite contract: concurrent writers (two processes storing the same
hash) both succeed and readers never see a torn blob; eviction is
least-recently-*used* (reads refresh recency); a corrupted blob (payload
digest mismatch, truncation, junk) reads as a miss, is quarantined and gets
rewritten by the next put.
"""

import json
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import PipelineSpec, execute_spec
from repro.api.serialize import canonical_json
from repro.api.spec import FaultSimConfig, OptimizeConfig
from repro.store import (
    DiskStore,
    MemoryStore,
    StoreError,
    check_store_key,
    open_store,
)

KEY = "stage_optimize/" + "ab" * 16
ARTIFACT = {"kind": "pipeline_spec", "schema_version": 1, "circuit": "s1"}


def _artifact(n: int) -> dict:
    return {"kind": "blob", "schema_version": 1, "payload": "x" * n}


class TestStoreKeys:
    def test_valid_keys_pass_through(self):
        assert check_store_key(KEY) == KEY
        assert check_store_key("pipeline_report/" + "0" * 64)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "noslash",
            "UPPER/" + "ab" * 8,
            "ns/NOTHEX",
            "ns/abc",  # digest too short
            "ns/../escape",
            "ns/" + "ab" * 40,  # digest too long
            "ns/sub/" + "ab" * 16,
            123,
            None,
        ],
    )
    def test_invalid_keys_rejected(self, bad):
        with pytest.raises(StoreError, match="invalid store key"):
            check_store_key(bad)

    def test_get_and_put_validate_keys(self):
        store = MemoryStore()
        with pytest.raises(StoreError):
            store.get("bad key")
        with pytest.raises(StoreError):
            store.put("bad key", ARTIFACT)


@pytest.fixture(params=["memory", "disk"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    else:
        yield DiskStore(tmp_path / "store")


class TestStoreSemantics:
    """Behaviour both backends must share."""

    def test_roundtrip_and_counters(self, store):
        assert store.get(KEY) is None
        store.put(KEY, ARTIFACT)
        assert store.get(KEY) == ARTIFACT
        assert KEY in store
        assert store.keys() == [KEY]
        stats = store.stats()
        assert stats["puts"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_contains_does_not_count(self, store):
        store.put(KEY, ARTIFACT)
        store.contains(KEY)
        store.contains("ns/" + "00" * 16)
        stats = store.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_overwrite_is_idempotent(self, store):
        store.put(KEY, ARTIFACT)
        store.put(KEY, {**ARTIFACT, "circuit": "s2"})
        assert store.get(KEY)["circuit"] == "s2"
        assert len(store.keys()) == 1

    def test_delete(self, store):
        store.put(KEY, ARTIFACT)
        assert store.delete(KEY) is True
        assert store.delete(KEY) is False
        assert store.get(KEY) is None

    def test_load_decodes_typed_artifacts(self, store):
        spec = PipelineSpec(circuit="s1")
        store.put(KEY, spec.to_dict())
        loaded = store.load(KEY)
        assert isinstance(loaded, PipelineSpec)
        assert loaded.spec_hash() == spec.spec_hash()
        assert store.stats()["hits"] == 1

    def test_load_unknown_schema_is_a_miss(self, store):
        store.put(KEY, {"kind": "pipeline_spec", "schema_version": 99})
        assert store.load(KEY) is None
        stats = store.stats()
        assert stats["schema_rejected"] == 1
        assert stats["misses"] == 1

    def test_returned_artifacts_are_copies(self, store):
        store.put(KEY, ARTIFACT)
        store.get(KEY)["circuit"] = "mutated"
        assert store.get(KEY)["circuit"] == "s1"

    def test_put_rejects_non_mappings(self, store):
        with pytest.raises(TypeError, match="artifact dict"):
            store.put(KEY, [1, 2, 3])

    def test_eviction_is_least_recently_used(self, store):
        keys = [f"blob/{i:02d}{'00' * 15}" for i in range(4)]
        for key in keys:
            store.put(key, _artifact(8))
        store.get(keys[0])  # refresh: 0 becomes most recent
        evicted = store.gc(max_entries=2)
        assert evicted == 2
        # 1 and 2 (least recently used) are gone; 0 and 3 survive.
        assert store.contains(keys[0]) and store.contains(keys[3])
        assert not store.contains(keys[1]) and not store.contains(keys[2])
        assert store.stats()["evictions"] == 2

    def test_max_entries_enforced_on_write(self, tmp_path, store):
        bounded = (
            MemoryStore(max_entries=2)
            if isinstance(store, MemoryStore)
            else DiskStore(tmp_path / "bounded", max_entries=2)
        )
        keys = [f"blob/{i:02d}{'00' * 15}" for i in range(3)]
        for key in keys:
            bounded.put(key, _artifact(8))
        assert len(bounded.keys()) == 2
        assert not bounded.contains(keys[0])  # oldest evicted

    def test_max_bytes_evicts_oldest_first(self, tmp_path, store):
        bounded = (
            MemoryStore(max_bytes=1)
            if isinstance(store, MemoryStore)
            else DiskStore(tmp_path / "bounded", max_bytes=1)
        )
        keys = [f"blob/{i:02d}{'00' * 15}" for i in range(2)]
        for key in keys:
            bounded.put(key, _artifact(64))
        # A 1-byte budget can hold nothing; every write evicts down.
        assert len(bounded.keys()) <= 1

    def test_bounds_must_be_positive(self, tmp_path, store):
        cls = type(store)
        target = {} if isinstance(store, MemoryStore) else {"root": tmp_path / "x"}
        with pytest.raises(ValueError, match="max_entries"):
            cls(max_entries=0, **target)
        with pytest.raises(ValueError, match="max_bytes"):
            cls(max_bytes=0, **target)

    def test_info_reports_entries_and_bytes(self, store):
        store.put(KEY, ARTIFACT)
        info = store.info()
        assert info["entries"] == 1
        assert info["bytes"] > 0
        assert info["backend"] in ("memory", "disk")


class TestDiskStoreIntegrity:
    def test_layout_and_marker(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        store.put(KEY, ARTIFACT)
        namespace, digest = KEY.split("/")
        blob = tmp_path / "store" / "objects" / namespace / digest[:2] / f"{digest}.json"
        assert blob.is_file()
        marker = json.loads((tmp_path / "store" / "store.json").read_text())
        assert marker["kind"] == "store_marker"
        envelope = json.loads(blob.read_text())
        assert envelope["kind"] == "store_blob"
        assert envelope["key"] == KEY
        assert envelope["artifact"] == ARTIFACT

    def test_root_must_be_a_directory(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("hello")
        with pytest.raises(StoreError, match="not a directory"):
            DiskStore(target)

    def _blob_path(self, store, key=KEY):
        namespace, digest = key.split("/")
        return store.objects / namespace / digest[:2] / f"{digest}.json"

    @pytest.mark.parametrize(
        "corruption",
        ["truncate", "not_json", "payload_flip", "wrong_key", "wrong_kind"],
    )
    def test_corrupted_blob_is_a_miss_and_rewritten(self, tmp_path, corruption):
        """Satellite: hash mismatch (or any damage) -> miss, quarantine, rewrite."""
        store = DiskStore(tmp_path / "store")
        store.put(KEY, ARTIFACT)
        path = self._blob_path(store)
        envelope = json.loads(path.read_text())
        if corruption == "truncate":
            path.write_text(path.read_text()[:20])
        elif corruption == "not_json":
            path.write_bytes(b"\x00\xff garbage")
        elif corruption == "payload_flip":
            envelope["artifact"]["circuit"] = "tampered"
            path.write_text(json.dumps(envelope))
        elif corruption == "wrong_key":
            envelope["key"] = "other_ns/" + "cd" * 16
            path.write_text(json.dumps(envelope))
        elif corruption == "wrong_kind":
            envelope["kind"] = "not_a_blob"
            path.write_text(json.dumps(envelope))

        assert store.get(KEY) is None
        assert store.stats()["corrupt"] == 1
        assert not path.exists()  # quarantined

        store.put(KEY, ARTIFACT)  # caller recomputes and rewrites
        assert store.get(KEY) == ARTIFACT
        assert store.stats()["corrupt"] == 1

    def test_reads_refresh_mtime_for_lru(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        keys = [f"blob/{i:02d}{'00' * 15}" for i in range(2)]
        for key in keys:
            store.put(key, _artifact(8))
        old = self._blob_path(store, keys[0])
        os.utime(old, (1, 1))  # force key 0 stale
        store.get(keys[0])  # ... then touch it via a read
        store.gc(max_entries=1)
        assert store.contains(keys[0])
        assert not store.contains(keys[1])

    def test_concurrent_writers_same_hash(self, tmp_path):
        """Satellite: two processes storing the same hash both succeed and
        the surviving blob is intact."""
        root = tmp_path / "store"
        DiskStore(root)  # create the root in the parent
        ref = {"backend": "disk", "root": str(root)}
        with ProcessPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(_store_one, [(ref, KEY, i) for i in range(8)])
            )
        assert all(results)
        store = DiskStore(root)
        artifact = store.get(KEY)
        assert artifact is not None and artifact["kind"] == "blob"
        assert store.stats()["corrupt"] == 0
        # Whichever writer won, the payload digest still verifies.
        assert artifact["payload"] in {f"writer-{i}" for i in range(8)}

    def test_no_temp_files_left_behind(self, tmp_path):
        store = DiskStore(tmp_path / "store")
        for i in range(4):
            store.put(KEY, _artifact(i + 1))
        leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []


def _store_one(args):
    ref, key, i = args
    store = open_store(ref)
    store.put(key, {"kind": "blob", "schema_version": 1, "payload": f"writer-{i}"})
    return store.get(key) is not None


class TestOpenStore:
    def test_none_passes_through(self):
        assert open_store(None) is None

    def test_store_object_passes_through(self):
        store = MemoryStore()
        assert open_store(store) is store
        with pytest.raises(StoreError, match="re-bound"):
            open_store(store, max_entries=5)

    def test_path_opens_disk_store(self, tmp_path):
        store = open_store(tmp_path / "store", max_entries=7)
        assert isinstance(store, DiskStore)
        assert store.max_entries == 7

    def test_worker_ref_round_trip(self, tmp_path):
        parent = DiskStore(tmp_path / "store", max_entries=9, max_bytes=4096)
        parent.put(KEY, ARTIFACT)
        child = open_store(parent.worker_ref())
        assert isinstance(child, DiskStore)
        assert child.max_entries == 9 and child.max_bytes == 4096
        assert child.get(KEY) == ARTIFACT

    def test_memory_store_has_no_worker_ref(self):
        assert MemoryStore().worker_ref() is None

    def test_memory_ref(self):
        store = open_store({"backend": "memory", "max_entries": 3})
        assert isinstance(store, MemoryStore)
        assert store.max_entries == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(StoreError, match="unknown store backend"):
            open_store({"backend": "tape"})
        with pytest.raises(StoreError, match="cannot open"):
            open_store(42)


class TestExecutorStoreIntegration:
    """The execute layer's consult-then-persist contract, per backend."""

    SPEC = dict(
        circuit="s1",
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=128),
    )

    def test_cold_run_persists_then_warm_run_hits(self, store):
        from repro.api.executor import executor_stats
        from repro.lowered import compile_count

        spec = PipelineSpec(**self.SPEC)
        cold = execute_spec(spec, store=store)
        keys = set(store.keys())
        assert f"pipeline_report/{spec.spec_hash()}" in keys
        assert any(k.startswith("stage_optimize/") for k in keys)
        assert any(k.startswith("stage_fault_sim/") for k in keys)

        before = executor_stats()
        lowerings = compile_count()
        warm = execute_spec(spec, store=store)
        after = executor_stats()
        assert after["executions"] == before["executions"]  # zero executions
        assert after["stage_runs"] == before["stage_runs"]  # zero stages
        assert compile_count() == lowerings  # zero lowerings
        assert warm.canonical_dict() == cold.canonical_dict()

    def test_stage_artifacts_reused_across_seeds(self, store):
        """Two specs differing only in seed share the optimize artifact."""
        from repro.api.executor import executor_stats

        execute_spec(PipelineSpec(seed=1, **self.SPEC), store=store)
        before = executor_stats()
        execute_spec(PipelineSpec(seed=2, **self.SPEC), store=store)
        after = executor_stats()
        assert after["stage_hits"] == before["stage_hits"] + 1  # optimize reused
        optimize_keys = [k for k in store.keys() if k.startswith("stage_optimize/")]
        assert len(optimize_keys) == 1

    def test_corrupt_stage_blob_recomputed(self, tmp_path):
        root = tmp_path / "store"
        store = DiskStore(root)
        spec = PipelineSpec(**self.SPEC)
        cold = execute_spec(spec, store=store)
        # Corrupt every stored blob; the rerun must silently recompute and
        # produce the identical canonical artifact.
        for path in root.rglob("*.json"):
            if path.name != "store.json":
                path.write_text(path.read_text().replace("s1", "zz", 1))
        rerun = execute_spec(spec, store=store)
        assert rerun.canonical_dict() == cold.canonical_dict()
        assert store.stats()["corrupt"] > 0


    @pytest.mark.parametrize(
        "field, value", [("n_gates", "abc"), ("input_names", 5), ("self_test_fault", "x")]
    )
    def test_wrongly_typed_report_is_a_miss_and_rewritten(self, field, value):
        """A stored report whose decoder raises a plain ValueError/TypeError
        is schema-rejected (a miss), recomputed and overwritten — it must
        not wedge its spec."""
        store = MemoryStore()
        spec = PipelineSpec(**self.SPEC)
        cold = execute_spec(spec, store=store)
        key = f"pipeline_report/{spec.spec_hash()}"
        store.put(key, {**store.get(key), field: value})

        assert store.load(key) is None
        assert store.stats()["schema_rejected"] == 1
        rerun = execute_spec(spec, store=store)
        assert rerun.canonical_dict() == cold.canonical_dict()
        assert store.load(key).canonical_dict() == cold.canonical_dict()

    def test_blobs_with_a_fault_list_per_leg_are_rejected_and_rewritten(self, tmp_path):
        """Blobs of the earlier wire form, where each fault-simulation leg
        was a ``coverage_experiment`` carrying its own fault list, read as
        schema-rejected misses under the unchanged keys: the run recomputes
        and overwrites both, and the next run hits."""
        from repro.api.executor import executor_stats
        from repro.api.plan import build_plan
        from repro.faultsim import FaultSimResult
        from repro.pipeline import PipelineReport

        from .helpers import legacy_report_dict

        spec = PipelineSpec(**self.SPEC)
        keys = build_plan(spec).store_keys()
        report_key, leg_key = keys["report"], keys["fault_sim.conventional"]
        old_report = legacy_report_dict(execute_spec(spec).to_dict())
        old_leg = old_report["conventional_experiment"]
        assert old_leg["kind"] == "coverage_experiment" and "faults" in old_leg["result"]

        store = DiskStore(tmp_path / "store")
        store.put(report_key, old_report)
        store.put(leg_key, old_leg)
        before = executor_stats()
        cold = execute_spec(spec, store=store)
        after = executor_stats()
        assert store.stats()["schema_rejected"] == 2
        assert after["executions"] == before["executions"] + 1
        assert after["stage_hits"] == before["stage_hits"]
        assert isinstance(store.load(leg_key), FaultSimResult)
        assert isinstance(store.load(report_key), PipelineReport)

        hits = store.stats()["hits"]
        warm = execute_spec(spec, store=store)
        assert executor_stats()["executions"] == after["executions"]
        assert store.stats()["hits"] == hits + 1
        assert store.stats()["schema_rejected"] == 2
        assert warm.canonical_dict() == cold.canonical_dict()


class TestStageReuse:
    def test_stored_optimize_artifact_feeds_the_weight_sets(self, monkeypatch):
        """An optimize hit is the single-set base of the multi-weight
        stage: the seed-2 run optimizes only the k clusters, not the base
        again."""
        from repro.api.spec import MultiWeightConfig
        from repro.core import WeightOptimizer

        def spec(seed):
            return PipelineSpec(
                circuit="c880",
                seed=seed,
                optimize=OptimizeConfig(max_sweeps=2),
                fault_sim=FaultSimConfig(n_patterns=256),
                multi_weight=MultiWeightConfig(k=2),
            )

        store = MemoryStore()
        execute_spec(spec(1), store=store)
        calls = []
        optimize = WeightOptimizer.optimize

        def counting(self, *args, **kwargs):
            calls.append(len(self.faults))
            return optimize(self, *args, **kwargs)

        monkeypatch.setattr(WeightOptimizer, "optimize", counting)
        report = execute_spec(spec(2), store=store)
        assert len(calls) == report.multi_weight.weight_sets.k == 2


class TestStorePath:
    def test_execute_spec_opens_a_store_path(self, tmp_path):
        root = tmp_path / "store"
        spec = PipelineSpec(circuit="s1", fault_sim=FaultSimConfig(n_patterns=64))
        report = execute_spec(spec, store=root)
        stored = DiskStore(root).load(f"pipeline_report/{spec.spec_hash()}")
        assert stored is not None
        assert stored.canonical_dict() == report.canonical_dict()

    def test_canonical_json_is_order_insensitive(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b == '{"a":[1,2],"b":1}'
