"""Concurrent access to one sharded cache directory, the bounded memory
layer, and the shared ``REPRO_*`` boolean-knob parser."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time

import pytest

from repro.cache import ArtifactCache
from repro.cache.memo import RESULT_CACHE_ENV, results_enabled
from repro.cache.store import (
    CACHE_ENV, CACHE_MEM_ENV, disk_enabled_from_env, memory_cap_from_env,
)
from repro.obs import env_flag, env_int, get_registry, parse_flag
from tests.conftest import cache_counts

OWN_PER_WORKER = 20


def _key(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _hammer(root, worker_id, shared_keys, queue):
    """One worker process: private puts/gets, contended puts on shared
    keys, and shard temp-sweeps interleaved with the writes."""
    cache = ArtifactCache(root=root, disk=True)
    try:
        for i in range(OWN_PER_WORKER):
            key = _key(f"own-{worker_id}-{i}")
            cache.put(key, {"owner": worker_id, "i": i})
            assert cache.get(key) == {"owner": worker_id, "i": i}
        for j, key in enumerate(shared_keys):
            # Every worker writes identical bytes: whichever atomic
            # replace wins, readers must only ever see this value.
            cache.put(key, {"shared": j})
            fresh = ArtifactCache(root=root, disk=True)  # skip memory layer
            assert fresh.get(key) == {"shared": j}
            for shard in fresh.shards()[:2]:
                fresh.sweep_tmp(max_age_s=3600.0, shard=shard)
        queue.put(("ok", worker_id))
    except BaseException as exc:  # report, don't hang the parent
        queue.put(("err", f"worker {worker_id}: "
                          f"{type(exc).__name__}: {exc}"))


class TestConcurrentStore:
    def test_parallel_put_get_sweep_share_one_directory(self, tmp_path):
        shared = [_key(f"shared-{j}") for j in range(8)]
        queue = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_hammer, args=(str(tmp_path), w, shared, queue))
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        outcomes = [queue.get(timeout=120) for _ in workers]
        for proc in workers:
            proc.join(timeout=120)
        assert all(status == "ok" for status, _ in outcomes), outcomes

        # A fresh reader over the same directory sees every entry intact.
        reader = ArtifactCache(root=str(tmp_path), disk=True)
        snap = get_registry().snapshot()
        for w in range(len(workers)):
            for i in range(OWN_PER_WORKER):
                assert reader.get(_key(f"own-{w}-{i}")) == \
                    {"owner": w, "i": i}
        for j, key in enumerate(shared):
            assert reader.get(key) == {"shared": j}
        assert cache_counts(snap)["misses"] == 0
        # sha256 keys spread across many two-hex-digit shard dirs, and no
        # worker leaked an in-flight temp file.
        assert len(reader.shards()) > 1
        assert reader.sweep_tmp(max_age_s=0.0) == 0

    def test_shard_scoped_sweep_leaves_other_shards_alone(self, tmp_path):
        cache = ArtifactCache(root=str(tmp_path), disk=True)
        cache.put("aa" + "0" * 62, 1)
        cache.put("bb" + "0" * 62, 2)
        old = time.time() - 7200
        orphans = {}
        for shard in ("aa", "bb"):
            path = os.path.join(cache.root, shard, "dead.pkl.tmp")
            with open(path, "wb") as handle:
                handle.write(b"x")
            os.utime(path, (old, old))
            orphans[shard] = path
        assert cache.sweep_tmp(max_age_s=3600.0, shard="aa") == 1
        assert not os.path.exists(orphans["aa"])
        assert os.path.exists(orphans["bb"])      # out of scope
        assert cache.sweep_tmp(max_age_s=3600.0, shard="bb") == 1
        assert cache.get("aa" + "0" * 62) == 1    # entries untouched
        assert cache.get("bb" + "0" * 62) == 2
        assert cache.shards() == ["aa", "bb"]


class TestMemoryCap:
    def test_lru_evicts_cold_end_with_exact_stats(self, tmp_path):
        snap = get_registry().snapshot()
        cache = ArtifactCache(root=str(tmp_path), disk=False, memory_cap=2)
        cache.put("aa" + "0" * 62, "A")
        cache.put("bb" + "0" * 62, "B")
        assert cache.get("aa" + "0" * 62) == "A"  # refresh A's recency
        cache.put("cc" + "0" * 62, "C")           # evicts B (coldest)
        assert cache_counts(snap)["evictions"] == 1
        assert cache.get("aa" + "0" * 62) == "A"
        assert cache.get("cc" + "0" * 62) == "C"
        # With the disk layer off the evicted entry is an honest miss.
        assert cache.get("bb" + "0" * 62) is None
        assert cache_counts(snap)["hits"] == 3
        assert cache_counts(snap)["memory_hits"] == 3
        assert cache_counts(snap)["misses"] == 1
        assert cache_counts(snap)["puts"] == 3

    def test_evicted_entry_served_from_disk(self, tmp_path):
        snap = get_registry().snapshot()
        cache = ArtifactCache(root=str(tmp_path), disk=True, memory_cap=1)
        cache.put("aa" + "0" * 62, "A")
        cache.put("bb" + "0" * 62, "B")           # evicts A from memory
        assert cache_counts(snap)["evictions"] == 1
        assert cache.get("aa" + "0" * 62) == "A"  # disk still serves it
        assert cache_counts(snap)["disk_hits"] == 1
        assert cache.get("aa" + "0" * 62) == "A"  # and it is resident again
        assert cache_counts(snap)["memory_hits"] == 1
        # Re-remembering A pushed B out (cap is 1) — B comes back from
        # disk too: the cap only ever shifts the memory/disk hit split.
        assert cache.get("bb" + "0" * 62) == "B"
        assert cache_counts(snap)["disk_hits"] == 2
        # B's return pushed A out again.
        assert cache_counts(snap)["evictions"] == 3
        assert cache_counts(snap)["misses"] == 0

    def test_zero_cap_is_unbounded(self, tmp_path):
        snap = get_registry().snapshot()
        cache = ArtifactCache(root=str(tmp_path), disk=False, memory_cap=0)
        for i in range(100):
            cache.put(_key(f"k{i}"), i)
        assert cache_counts(snap)["evictions"] == 0
        assert all(cache.get(_key(f"k{i}")) == i for i in range(100))


class TestEnvKnobParsing:
    """One truthy/falsy grammar for every boolean ``REPRO_*`` knob."""

    @pytest.mark.parametrize("token", ["1", "on", "true", "yes",
                                       "ON", "True", " yes "])
    def test_truthy_tokens(self, token):
        assert parse_flag(token, default=False) is True
        assert parse_flag(token, default=True) is True

    @pytest.mark.parametrize("token", ["0", "off", "false", "no",
                                       "OFF", "False", " no "])
    def test_falsy_tokens(self, token):
        assert parse_flag(token, default=False) is False
        assert parse_flag(token, default=True) is False

    @pytest.mark.parametrize("token", [None, "", "   ", "maybe", "2"])
    def test_unset_empty_unrecognized_yield_default(self, token):
        assert parse_flag(token, default=False) is False
        assert parse_flag(token, default=True) is True

    def test_disk_cache_default_on(self, monkeypatch):
        # Pins the opt-out policy: REPRO_CACHE is on unless explicitly
        # disabled; garbage does not disable it.
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert disk_enabled_from_env() is True
        monkeypatch.setenv(CACHE_ENV, "maybe")
        assert disk_enabled_from_env() is True
        monkeypatch.setenv(CACHE_ENV, "off")
        assert disk_enabled_from_env() is False
        monkeypatch.setenv(CACHE_ENV, "1")
        assert disk_enabled_from_env() is True

    def test_result_cache_default_off(self, monkeypatch):
        # Pins the opt-in policy: REPRO_RESULT_CACHE needs an explicit
        # truthy token; garbage does not enable it.
        monkeypatch.delenv(RESULT_CACHE_ENV, raising=False)
        assert results_enabled() is False
        monkeypatch.setenv(RESULT_CACHE_ENV, "maybe")
        assert results_enabled() is False
        monkeypatch.setenv(RESULT_CACHE_ENV, "yes")
        assert results_enabled() is True
        monkeypatch.setenv(RESULT_CACHE_ENV, "0")
        assert results_enabled() is False

    def test_memory_cap_knob(self, monkeypatch):
        monkeypatch.delenv(CACHE_MEM_ENV, raising=False)
        assert memory_cap_from_env() == 0      # unbounded by default
        monkeypatch.setenv(CACHE_MEM_ENV, "128")
        assert memory_cap_from_env() == 128
        monkeypatch.setenv(CACHE_MEM_ENV, "-5")
        assert memory_cap_from_env() == 0      # clamped from below
        monkeypatch.setenv(CACHE_MEM_ENV, "lots")
        assert memory_cap_from_env() == 0      # garbage -> default

    def test_env_flag_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "on")
        assert env_flag("REPRO_TEST_KNOB", default=False) is True
        monkeypatch.setenv("REPRO_TEST_KNOB", "no")
        assert env_flag("REPRO_TEST_KNOB", default=True) is False
        monkeypatch.delenv("REPRO_TEST_KNOB")
        assert env_flag("REPRO_TEST_KNOB", default=True) is True

    def test_env_int_clamps_and_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "7")
        assert env_int("REPRO_TEST_INT", default=3, minimum=1) == 7
        monkeypatch.setenv("REPRO_TEST_INT", "0")
        assert env_int("REPRO_TEST_INT", default=3, minimum=1) == 1
        monkeypatch.setenv("REPRO_TEST_INT", "junk")
        assert env_int("REPRO_TEST_INT", default=3, minimum=1) == 3
