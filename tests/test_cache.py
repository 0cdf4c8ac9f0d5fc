"""Persistent content-addressed artifact cache: hits, misses,
invalidation, staleness, and disk persistence.  Counts are read from the
metrics registry's ``cache.*`` counters."""

import os
import pickle

import pytest

from repro import cache as cache_pkg
from repro.cache import ArtifactCache, cache_key, code_fingerprint, configure
from repro.cache.memo import RESULT_CACHE_ENV
from repro.cache.store import CACHE_VERSION
from repro.compilers import CheerpCompiler, EmscriptenCompiler, LlvmX86Compiler
from repro.env import DESKTOP, chrome_desktop, firefox_desktop
from repro.harness import PageRunner
from repro.obs import get_registry
from tests.conftest import TINY_C, cache_counts

OTHER_C = TINY_C.replace("s += y[i];", "s += 2.0 * y[i];")


@pytest.fixture()
def isolated_cache(tmp_path):
    """Point the process-global cache at a fresh directory; restore the
    default (env-derived) cache afterwards."""
    cache = configure(root=str(tmp_path), disk=True)
    yield cache
    configure()


@pytest.fixture()
def counts():
    """``counts()``: the ``cache.*`` increments since the test began."""
    snap = get_registry().snapshot()
    return lambda: cache_counts(snap)


def _pkl_files(cache):
    root = cache.root
    return [os.path.join(dirpath, name)
            for dirpath, _dirs, names in os.walk(root)
            for name in names if name.endswith(".pkl")]


class TestHitMiss:
    def test_second_compile_hits_memory(self, isolated_cache, counts):
        compiler = CheerpCompiler()
        first = compiler.compile_wasm(TINY_C, name="tiny")
        second = compiler.compile_wasm(TINY_C, name="tiny")
        assert second is first
        assert counts()["misses"] == 1
        assert counts()["hits"] == 1
        assert counts()["memory_hits"] == 1

    def test_fresh_process_hits_disk(self, tmp_path):
        compiler = CheerpCompiler()
        configure(root=str(tmp_path), disk=True)
        first = compiler.compile_wasm(TINY_C, name="tiny")
        # A new ArtifactCache over the same directory models a fresh
        # process: its memory layer is empty, so the hit comes from disk.
        configure(root=str(tmp_path), disk=True)
        snap = get_registry().snapshot()
        second = compiler.compile_wasm(TINY_C, name="tiny")
        configure()
        assert cache_counts(snap)["disk_hits"] == 1
        assert second is not first
        assert second.binary == first.binary
        assert second.opt_level == first.opt_level

    def test_all_artifact_kinds_cached(self, isolated_cache, counts):
        CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        CheerpCompiler().compile_js(TINY_C, name="tiny")
        EmscriptenCompiler().compile_wasm(TINY_C, name="tiny")
        LlvmX86Compiler().compile(TINY_C, name="tiny")
        assert counts()["puts"] == 4
        assert isolated_cache.entry_count() == 4


class TestInvalidation:
    def test_source_change_misses(self, isolated_cache, counts):
        compiler = CheerpCompiler()
        compiler.compile_wasm(TINY_C, name="tiny")
        compiler.compile_wasm(OTHER_C, name="tiny")
        assert counts()["misses"] == 2

    def test_comment_only_change_hits(self, isolated_cache, counts):
        # The key hashes the *preprocessed* source, so an edit the
        # preprocessor strips away entirely does not invalidate.
        compiler = CheerpCompiler()
        compiler.compile_wasm(TINY_C, name="tiny")
        commented = TINY_C.replace("init();\n  kernel();",
                                   "init();\n  kernel();/*cosmetic*/")
        assert commented != TINY_C
        compiler.compile_wasm(commented, name="tiny")
        assert counts()["hits"] == 1

    def test_defines_change_misses(self, isolated_cache, counts):
        compiler = CheerpCompiler()
        compiler.compile_wasm(TINY_C, {"STEPS": 4}, name="tiny")
        compiler.compile_wasm(TINY_C, {"STEPS": 8}, name="tiny")
        assert counts()["misses"] == 2

    def test_opt_level_change_misses(self, isolated_cache, counts):
        compiler = CheerpCompiler()
        compiler.compile_wasm(TINY_C, opt_level="O2", name="tiny")
        compiler.compile_wasm(TINY_C, opt_level="Oz", name="tiny")
        assert counts()["misses"] == 2

    def test_toolchain_config_change_misses(self, isolated_cache, counts):
        CheerpCompiler(linear_heap_size=1 << 20).compile_wasm(
            TINY_C, name="tiny")
        CheerpCompiler(linear_heap_size=2 << 20).compile_wasm(
            TINY_C, name="tiny")
        assert counts()["misses"] == 2

    def test_toolchain_identity_separates(self, isolated_cache, counts):
        CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        EmscriptenCompiler().compile_wasm(TINY_C, name="tiny")
        assert counts()["misses"] == 2


class TestStaleness:
    def test_corrupt_entry_recompiled_and_counted(self, tmp_path):
        compiler = CheerpCompiler()
        configure(root=str(tmp_path), disk=True)
        first = compiler.compile_wasm(TINY_C, name="tiny")
        cache = configure(root=str(tmp_path), disk=True)
        (path,) = _pkl_files(cache)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        snap = get_registry().snapshot()
        second = compiler.compile_wasm(TINY_C, name="tiny")
        configure()
        assert cache_counts(snap)["stale"] == 1
        assert cache_counts(snap)["misses"] == 1
        assert second.binary == first.binary
        # The corrupt entry was evicted and rewritten by the recompile.
        with open(path, "rb") as handle:
            assert pickle.load(handle).binary == first.binary

    def test_clear_empties_store(self, isolated_cache, counts):
        CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        assert isolated_cache.entry_count() == 1
        isolated_cache.clear()
        assert isolated_cache.entry_count() == 0
        CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        assert counts()["misses"] == 2


class TestConfiguration:
    def test_env_dir_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = configure()
        try:
            assert cache.root == str(tmp_path / "elsewhere" /
                                     CACHE_VERSION)
            CheerpCompiler().compile_wasm(TINY_C, name="tiny")
            assert cache.entry_count() == 1
        finally:
            monkeypatch.delenv("REPRO_CACHE_DIR")
            configure()

    def test_disk_disable_env(self, tmp_path, monkeypatch, counts):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "0")
        cache = configure()
        try:
            compiler = CheerpCompiler()
            first = compiler.compile_wasm(TINY_C, name="tiny")
            assert compiler.compile_wasm(TINY_C, name="tiny") is first
            assert cache.entry_count() == 0      # nothing written to disk
            assert counts()["hits"] == 1         # memory layer still on
        finally:
            monkeypatch.delenv("REPRO_CACHE_DIR")
            monkeypatch.delenv("REPRO_CACHE")
            configure()

    def test_key_is_order_insensitive_in_defines(self):
        kwargs = dict(kind="wasm", preprocessed="int main(){}",
                      opt_level="O2", toolchain="cheerp",
                      config_fingerprint=(), pipeline_fingerprint=("dce",),
                      name="m")
        assert cache_key(defines={"A": 1, "B": 2}, **kwargs) == \
            cache_key(defines={"B": 2, "A": 1}, **kwargs)

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16


class TestResultMemoization:
    """Measurements are deterministic, so REPRO_RESULT_CACHE=1 memoizes
    them under the same store; the layer is opt-in and off by default."""

    @pytest.fixture(autouse=True)
    def _reference_tier(self, monkeypatch):
        # The reference ladders store no translation units, so the put
        # counts below are compiles and measurements only.
        monkeypatch.setenv("REPRO_FAST_INTERP", "0")

    def test_off_by_default(self, isolated_cache, counts, monkeypatch):
        monkeypatch.delenv(RESULT_CACHE_ENV, raising=False)
        artifact = CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
        first = runner.run_wasm(artifact)
        second = runner.run_wasm(artifact)
        assert second is not first           # measured live, twice
        assert second.times_ms == first.times_ms   # ... deterministically
        assert counts()["puts"] == 1          # only the compile

    def test_memoizes_when_enabled(self, isolated_cache, counts,
                                   monkeypatch):
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        artifact = CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        runner = PageRunner(chrome_desktop(), DESKTOP, repetitions=1)
        first = runner.run_wasm(artifact)
        second = runner.run_wasm(artifact)
        assert second is first               # memory-layer hit
        assert counts()["puts"] == 2          # compile + measurement

    def test_profile_separates_measurements(self, isolated_cache, counts,
                                            monkeypatch):
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        artifact = CheerpCompiler().compile_wasm(TINY_C, name="tiny")
        chrome = PageRunner(chrome_desktop(), DESKTOP,
                            repetitions=1).run_wasm(artifact)
        firefox = PageRunner(firefox_desktop(), DESKTOP,
                             repetitions=1).run_wasm(artifact)
        assert firefox is not chrome
        assert counts()["puts"] == 3          # compile + two profiles

class TestFailureSafety:
    """A failed or killed cell must never poison the result cache."""

    def test_failed_compute_memoizes_nothing(self, isolated_cache, counts,
                                             monkeypatch):
        from repro.cache.memo import cached_result
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        calls = []

        def compute():
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return 42

        with pytest.raises(RuntimeError):
            cached_result("test", ("k",), compute)
        assert counts()["puts"] == 0
        # The retry recomputes and only then memoizes.
        assert cached_result("test", ("k",), compute) == 42
        assert len(calls) == 2
        assert cached_result("test", ("k",), compute) == 42
        assert len(calls) == 2

    def test_foreign_entry_recomputed_over(self, isolated_cache,
                                           monkeypatch):
        from repro.cache.memo import cached_result, result_key
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        # A key collision / corruption leaves something that is not a
        # ("result", value) pair: it must be replaced, not returned.
        isolated_cache.put(result_key("test", ("k",)), {"junk": True})
        assert cached_result("test", ("k",), lambda: 7) == 7
        assert cached_result("test", ("k",), lambda: 99) == 7

    def test_corrupt_replay_blob_recomputed_over(self, isolated_cache,
                                                 monkeypatch):
        from repro.cache.memo import cached_result, result_key
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        # A three-field entry whose replay_metrics blob cannot be applied
        # (truncated write / schema drift) used to raise mid-sweep; it
        # must be treated as stale: recomputed and overwritten.
        key = result_key("test", ("k",), replay_metrics=True)
        isolated_cache.put(key, ("result", 7, "not-a-metrics-diff"))
        calls = []

        def compute():
            calls.append(None)
            return 42

        assert cached_result("test", ("k",), compute,
                             replay_metrics=True) == 42
        assert calls  # recomputed, not served from the corrupt entry
        # The overwrite healed the entry: warm hits replay cleanly now.
        assert cached_result("test", ("k",), compute,
                             replay_metrics=True) == 42
        assert len(calls) == 1

    def test_partial_apply_rolls_back_before_recompute(self, isolated_cache,
                                                       monkeypatch):
        # Regression: `registry.apply` folds payload entries in order and
        # raises mid-iteration on a truncated/corrupt tail — the entries
        # it already folded used to stay behind, so the recompute that
        # followed double-counted them.  The replay must be transactional.
        from fractions import Fraction

        from repro.cache.memo import cached_result, result_key
        from repro.obs import DET, get_registry, reset_registry
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        reset_registry()
        try:
            zero = Fraction(0)
            # Truncated blob: the first counter applies cleanly, the
            # second raises (unknown stability tag) — exactly what a
            # half-written diff looks like after schema drift.
            corrupt = {"counters": {"memo.test.cells": (DET, 100, zero),
                                    "memo.test.tail": ("bogus", 1, zero)},
                       "hists": {}}
            key = result_key("test", ("k",), replay_metrics=True)
            isolated_cache.put(key, ("result", 7, corrupt))

            def compute():
                get_registry().counter_add("memo.test.cells", 1, DET)
                return 42

            assert cached_result("test", ("k",), compute,
                                 replay_metrics=True) == 42
            # Only the recompute's increment survives: the 100 the corrupt
            # blob managed to fold in before raising was rolled back.
            assert get_registry().export()["memo.test.cells"] == 1
            assert "memo.test.tail" not in get_registry().export()
        finally:
            reset_registry()

    def test_replay_flag_mismatch_never_drops_metrics(self, isolated_cache,
                                                      monkeypatch):
        # Regression: an entry stored by a replay_metrics=False caller is
        # a 2-tuple with no metrics blob; serving it to a
        # replay_metrics=True caller silently dropped the DET counters
        # the warm run should have exported.  The flag is folded into the
        # key so the two caller populations never share entries.
        from repro.cache.memo import cached_result, result_key
        from repro.obs import DET, get_registry, reset_registry
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        assert result_key("test", ("k",)) != \
            result_key("test", ("k",), replay_metrics=True)
        reset_registry()
        try:
            calls = []

            def compute():
                calls.append(None)
                get_registry().counter_add("memo.test.runs", 1, DET)
                return 42

            assert cached_result("test", ("k",), compute) == 42
            assert len(calls) == 1
            # The replay caller computes its own (metrics-carrying) entry
            # instead of being served the blobless one...
            assert cached_result("test", ("k",), compute,
                                 replay_metrics=True) == 42
            assert len(calls) == 2
            # ... and its warm hits replay the counter instead of losing it.
            before = get_registry().export()["memo.test.runs"]
            assert cached_result("test", ("k",), compute,
                                 replay_metrics=True) == 42
            assert len(calls) == 2
            assert get_registry().export()["memo.test.runs"] == before + 1
        finally:
            reset_registry()

    def test_stale_shape_entry_recomputed_over(self, isolated_cache,
                                               monkeypatch):
        # Belt and braces for old caches: a 2-tuple planted at the replay
        # key (e.g. written by a pre-flag-in-key build) is length-mismatched
        # and must be treated as stale, not served metrics-free.
        from repro.cache.memo import cached_result, result_key
        monkeypatch.setenv(RESULT_CACHE_ENV, "1")
        key = result_key("test", ("k",), replay_metrics=True)
        isolated_cache.put(key, ("result", 7))
        calls = []

        def compute():
            calls.append(None)
            return 42

        assert cached_result("test", ("k",), compute,
                             replay_metrics=True) == 42
        assert calls  # recomputed over the shape-mismatched entry

    def test_sweep_tmp_removes_only_stale_orphans(self, isolated_cache):
        import time
        root = isolated_cache.root
        os.makedirs(root, exist_ok=True)
        stale = os.path.join(root, "dead-worker.pkl.tmp")
        fresh = os.path.join(root, "in-flight.pkl.tmp")
        keeper = os.path.join(root, "entry.pkl")
        for path in (stale, fresh, keeper):
            with open(path, "wb") as handle:
                handle.write(b"x")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        assert isolated_cache.sweep_tmp(max_age_s=3600.0) == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh) and os.path.exists(keeper)
