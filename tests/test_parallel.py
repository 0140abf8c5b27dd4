"""WorkPool executor contract and ArtifactCache key/storage semantics."""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    ArtifactCache,
    CacheError,
    PoisonTaskError,
    WorkPool,
    cache_key,
    canonicalize,
)
from repro.pipeline.autoclassifier import ClassifierKind


def _square(x):
    return x * x


def _stagger(item):
    # Later items finish first; ordering must still follow input order.
    index, delay = item
    time.sleep(delay)
    return index


def _exit_once(task):
    """Hard-exit the worker the first time; succeed on the retry.

    The marker file carries the crashed-already state across worker
    processes — module-level so the process backend can pickle it.
    """
    index, marker = task
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(137)
    return index * 10


def _always_exit(task):
    os._exit(137)


def _raise_value_error(x):
    raise ValueError(f"task {x}")


class TestWorkPool:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            WorkPool(0)
        with pytest.raises(ValueError):
            WorkPool(2, poison_attempts=0)

    def test_serial_when_jobs_one(self):
        pool = WorkPool(1)
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert pool.last_backend == "serial"

    def test_empty_input(self):
        assert WorkPool(4).map(_square, []) == []

    def test_process_backend_preserves_input_order(self):
        pool = WorkPool(4)
        items = [(0, 0.05), (1, 0.03), (2, 0.01), (3, 0.0)]
        assert pool.map(_stagger, items) == [0, 1, 2, 3]
        assert pool.last_backend == "process"

    def test_process_backend_matches_serial(self):
        serial = WorkPool(1).map(_square, list(range(8)))
        parallel = WorkPool(4).map(_square, list(range(8)))
        assert serial == parallel

    def test_process_backend_falls_back_on_unpicklable_task(self):
        # A lambda cannot cross a process boundary; tasks are pure by
        # contract, so the pool must degrade to the serial reference loop
        # instead of surfacing a PicklingError.
        offset = 10
        pool = WorkPool(3)
        assert pool.map(lambda x: x + offset, [1, 2, 3]) == [11, 12, 13]
        assert pool.last_backend == "serial-fallback"

    def test_exception_propagates(self):
        def boom(x):
            raise RuntimeError(f"task {x}")

        with pytest.raises(RuntimeError, match="task"):
            WorkPool(2).map(boom, [1, 2, 3])

    def test_starmap(self):
        pool = WorkPool(2)
        assert pool.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]

    def test_single_item_skips_pool(self):
        pool = WorkPool(4)
        assert pool.map(_square, [5]) == [25]
        assert pool.last_backend == "serial"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-crash containment tests assume the fork start method",
)
class TestWorkerCrashContainment:
    """A worker that dies hard must not abort the map (or the parent)."""

    def test_process_task_exception_fails_fast(self):
        with pytest.raises(ValueError, match="task"):
            WorkPool(2).map(_raise_value_error, [1, 2, 3])

    def test_worker_hard_exit_recovers_unfinished_tasks(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        pool = WorkPool(2)
        tasks = [(0, ""), (1, marker), (2, ""), (3, "")]
        assert pool.map(_exit_once, tasks) == [0, 10, 20, 30]
        assert pool.last_backend == "process-contained"
        recovered = [c for c in pool.containment if c["outcome"] == "recovered"]
        assert recovered and all(c["attempts"] >= 1 for c in recovered)

    def test_result_order_preserved_after_containment(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        pool = WorkPool(3)
        tasks = [(i, marker if i == 4 else "") for i in range(8)]
        assert pool.map(_exit_once, tasks) == [i * 10 for i in range(8)]

    def test_poison_task_quarantined_not_rerun_in_parent(self):
        # Would os._exit the pytest process if containment ever ran the
        # task in-parent — finishing this test at all is half the assert.
        pool = WorkPool(2, poison_attempts=2)
        with pytest.raises(PoisonTaskError) as excinfo:
            pool.map(_always_exit, [1, 2, 3])
        assert excinfo.value.attempts == 2
        assert any(
            c["outcome"] == "quarantined" for c in pool.containment
        )

    def test_containment_resets_between_maps(self, tmp_path):
        marker = str(tmp_path / "crashed-once")
        pool = WorkPool(2)
        pool.map(_exit_once, [(0, marker), (1, "")])
        assert pool.containment
        pool.map(_square, [1, 2, 3, 4])
        assert pool.containment == []


class TestCanonicalize:
    def test_enum_and_numpy_scalars(self):
        assert canonicalize(ClassifierKind.SVM) == "ClassifierKind.SVM"
        assert canonicalize(np.float64(0.5)) == 0.5
        assert canonicalize(np.int64(3)) == 3

    def test_mapping_key_order_irrelevant(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_sets_are_order_free(self):
        assert canonicalize({"x", "y"}) == canonicalize({"y", "x"})

    def test_negative_zero_merges_with_zero(self):
        assert cache_key("ns", {"x": -0.0}) == cache_key("ns", {"x": 0.0})

    def test_rejects_arrays(self):
        with pytest.raises(CacheError):
            canonicalize(np.zeros(3))

    def test_rejects_callables(self):
        with pytest.raises(CacheError):
            canonicalize({"fn": _square})


class TestCacheKey:
    def test_namespace_separates_svm_from_tree(self):
        # The false-sharing hazard: identical hyperparameters must never
        # let a Tree artifact satisfy an SVM lookup or vice versa.
        params = {"seed": 2020, "max_depth": 12}
        assert cache_key("svm", params) != cache_key("tree", params)

    def test_invalid_namespace(self):
        with pytest.raises(CacheError):
            cache_key("", {})
        with pytest.raises(CacheError):
            cache_key("a/b", {})

    def test_nested_params_stable(self):
        a = cache_key("ns", {"svm": {"epochs": 40, "reg": 1e-3}, "seed": 0})
        b = cache_key("ns", {"seed": 0, "svm": {"reg": 1e-3, "epochs": 40}})
        assert a == b


_PARAM_VALUES = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.booleans(),
    st.sampled_from(list(ClassifierKind)),
)
_PARAMS = st.dictionaries(
    st.text(min_size=1, max_size=8), _PARAM_VALUES, min_size=1, max_size=6
)


class TestCacheKeyProperties:
    @given(params=_PARAMS)
    @settings(max_examples=60, deadline=None)
    def test_identical_configs_hit_the_same_key(self, params):
        items = list(params.items())
        shuffled = dict(reversed(items))
        assert cache_key("ns", params) == cache_key("ns", shuffled)

    @given(params=_PARAMS, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_value_change_changes_the_key(self, params, data):
        field = data.draw(st.sampled_from(sorted(params)))
        new_value = data.draw(_PARAM_VALUES)
        if canonicalize(new_value) == canonicalize(params[field]):
            return  # not actually a change
        mutated = dict(params)
        mutated[field] = new_value
        assert cache_key("ns", params) != cache_key("ns", mutated)

    @given(params=_PARAMS, extra=st.text(min_size=1, max_size=8), value=_PARAM_VALUES)
    @settings(max_examples=60, deadline=None)
    def test_adding_a_field_changes_the_key(self, params, extra, value):
        if extra in params:
            return
        widened = dict(params)
        widened[extra] = value
        assert cache_key("ns", params) != cache_key("ns", widened)

    @given(seed=st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=30, deadline=None)
    def test_seed_always_part_of_key(self, seed):
        base = {"seed": 0, "epochs": 40}
        probe = {"seed": seed, "epochs": 40}
        assert (cache_key("svm", base) == cache_key("svm", probe)) == (seed == 0)


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        params = {"seed": 1}
        assert cache.get("svm", params) is None
        cache.put("svm", params, {"acc": 0.96})
        assert cache.get("svm", params) == {"acc": 0.96}
        stats = cache.stats()
        assert {k: stats[k] for k in ("hits", "misses", "quarantined",
                                      "stored")} == {
            "hits": 1, "misses": 1, "quarantined": 0, "stored": 1,
        }

    def test_numpy_payload_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = {"W": np.arange(6.0).reshape(2, 3)}
        cache.put("nmf", {"seed": 2}, value)
        loaded = cache.get("nmf", {"seed": 2})
        assert np.array_equal(loaded["W"], value["W"])

    def test_param_change_misses(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("svm", {"seed": 1, "epochs": 40}, "a")
        assert cache.get("svm", {"seed": 2, "epochs": 40}) is None
        assert cache.get("svm", {"seed": 1, "epochs": 41}) is None

    def test_get_or_compute(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return 42

        value, hit = cache.get_or_compute("ns", {"k": 1}, compute)
        assert (value, hit) == (42, False)
        value, hit = cache.get_or_compute("ns", {"k": 1}, compute)
        assert (value, hit) == (42, True)
        assert len(calls) == 1

    def test_metadata_sidecar_written(self, tmp_path):
        import json

        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, "artifact")
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["namespace"] == "svm"
        assert meta["params"] == {"seed": 1}
        assert meta["payload"] == path.name

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, "artifact")
        path.write_bytes(b"not a pickle")
        assert cache.get("svm", {"seed": 1}) is None


class TestArtifactCacheIntegrity:
    """Digest sidecars, quarantine, and the cached-``None`` fix."""

    def test_cached_none_is_a_hit_not_a_miss(self, tmp_path):
        # get_or_compute used to conflate a cached None with a miss and
        # recompute forever.
        cache = ArtifactCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return None

        value, hit = cache.get_or_compute("ns", {"k": 1}, compute)
        assert (value, hit) == (None, False)
        value, hit = cache.get_or_compute("ns", {"k": 1}, compute)
        assert (value, hit) == (None, True)
        assert len(calls) == 1

    def test_lookup_distinguishes_none_from_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.lookup("ns", {"k": 1}) == (None, False)
        cache.put("ns", {"k": 1}, None)
        assert cache.lookup("ns", {"k": 1}) == (None, True)

    def test_sidecar_records_payload_digest(self, tmp_path):
        import hashlib
        import json

        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, {"acc": 0.96})
        meta = json.loads(path.with_suffix(".json").read_text())
        assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert meta["bytes"] == path.stat().st_size
        assert cache.digest_of("svm", {"seed": 1}) == meta["sha256"]

    def test_bit_flip_is_quarantined_never_returned(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, "artifact")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # still likely a valid pickle stream
        path.write_bytes(bytes(data))

        value, found = cache.lookup("svm", {"seed": 1})
        assert (value, found) == (None, False)
        assert cache.stats()["quarantined"] == 1
        assert not path.exists()
        quarantined = list(cache.quarantine_root.rglob("*.pkl"))
        assert len(quarantined) == 1
        reason = quarantined[0].with_suffix(".reason").read_text()
        assert "digest mismatch" in reason

    def test_missing_sidecar_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, "artifact")
        path.with_suffix(".json").unlink()
        assert cache.lookup("svm", {"seed": 1}) == (None, False)
        assert cache.stats()["quarantined"] == 1

    def test_quarantined_entries_leave_inventory(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, "artifact")
        cache.put("svm", {"seed": 2}, "fine")
        path.write_bytes(b"torn")
        cache.lookup("svm", {"seed": 1})
        assert len(cache.entries()) == 1
        assert cache.stats()["stored"] == 1

    def test_recompute_after_quarantine_restores_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put("svm", {"seed": 1}, "v1")
        path.write_bytes(b"torn")
        value, hit = cache.get_or_compute("svm", {"seed": 1}, lambda: "v2")
        assert (value, hit) == ("v2", False)
        assert cache.get("svm", {"seed": 1}) == "v2"
        assert cache.stats()["quarantined"] == 1

    def test_torn_payload_prefix_is_quarantined(self, tmp_path):
        from repro.recovery.harness import tear_file

        cache = ArtifactCache(tmp_path)
        path = cache.put("nmf", {"seed": 3}, {"W": np.arange(100.0)})
        tear_file(path, path.stat().st_size // 2)
        assert cache.lookup("nmf", {"seed": 3}) == (None, False)
        assert cache.stats()["quarantined"] == 1
