"""Disk-backed, content-addressed artifact store.

Layout (versioned, safe to delete at any time)::

    <root>/                 REPRO_CACHE_DIR or ~/.cache/repro
      v1/                   bumped when the on-disk schema changes
        ab/abcdef....pkl    pickled artifact, sharded by key prefix

Writes are atomic (temp file + ``os.replace``), so concurrent workers of
the parallel scheduler can share one cache directory without locking: the
worst case is two workers compiling the same artifact and one replace
winning — both writes carry identical bytes.

A process-local memory layer sits in front of the disk so repeated lookups
inside one run never re-unpickle (this replaces the ad-hoc per-context
dict caches the experiments used to carry).
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from collections import OrderedDict

from repro.obs import (
    SCHED, emit, env_flag, env_int, events_enabled, get_registry,
)

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the disk layer (``0``/``off``/``false``);
#: the memory layer stays on — compiles are deterministic, so an in-process
#: cache is always sound.
CACHE_ENV = "REPRO_CACHE"

#: Environment variable capping the in-process memory layer at N entries
#: (LRU eviction).  Unset or ``0``: unbounded — right for one-shot sweeps,
#: where the working set is the run itself.  Long-lived processes (the
#: sweep service) set a cap so resident memory stays flat; an evicted
#: entry is still served from disk, so only the ``memory_hits`` /
#: ``disk_hits`` split shifts, never correctness.
CACHE_MEM_ENV = "REPRO_CACHE_MEM"

#: On-disk schema version; bump when the artifact dataclasses change shape.
CACHE_VERSION = "v1"


def default_cache_root():
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")


def disk_enabled_from_env():
    return env_flag(CACHE_ENV, default=True)


def memory_cap_from_env():
    """Entry cap for the memory layer from ``REPRO_CACHE_MEM`` (0 =
    unbounded)."""
    return env_int(CACHE_MEM_ENV, default=0, minimum=0)


class ArtifactCache:
    """Two-layer (memory over disk) store for compiled artifacts,
    memoized results and codegen translation units.

    The memory layer is an LRU bounded by ``memory_cap`` entries
    (``REPRO_CACHE_MEM``; 0 = unbounded).  Eviction only drops the
    in-process copy — the disk layer still serves the entry, so the
    hit/miss counters stay exact: an access after eviction is an honest
    ``disk_hit`` (or an honest miss with the disk layer off), never a
    phantom.

    Every get, put and eviction is counted once, in the metrics
    registry's ``cache.*`` counters (``SCHED``): ``hits`` (split into
    ``memory_hits`` / ``disk_hits``), ``misses`` (of which ``stale``
    were caused by an unusable on-disk entry — truncated file, schema
    drift — that was removed), ``puts`` and ``evictions``.  A sweep
    folds its workers' counts into the parent's registry."""

    def __init__(self, root=None, disk=None, memory_cap=None):
        if disk is None:
            disk = disk_enabled_from_env()
        if memory_cap is None:
            memory_cap = memory_cap_from_env()
        self.disk = disk
        self.memory_cap = max(0, int(memory_cap))
        self.root = os.path.join(root or default_cache_root(),
                                 CACHE_VERSION)
        self._memory = OrderedDict()

    # -- lookup ---------------------------------------------------------------

    def shard_of(self, key):
        """The shard (two-hex-digit prefix directory) a key lives in."""
        return key[:2]

    def _path(self, key):
        return os.path.join(self.root, self.shard_of(key), key + ".pkl")

    def _remember(self, key, artifact):
        """Insert into the memory LRU (most-recently-used position),
        evicting from the cold end past the cap."""
        self._memory[key] = artifact
        self._memory.move_to_end(key)
        if self.memory_cap:
            while len(self._memory) > self.memory_cap:
                self._memory.popitem(last=False)
                get_registry().counter_add("cache.evictions", 1, SCHED)

    def _hit(self, reg, key, layer):
        reg.counter_add("cache.hits", 1, SCHED)
        reg.counter_add(f"cache.{layer}_hits", 1, SCHED)
        if events_enabled():
            emit("cache", key=key, outcome=f"{layer}_hit")

    def get(self, key, memory=True):
        """Return the cached artifact or ``None`` (a miss).  With
        ``memory=False`` the memory layer is neither read nor filled."""
        reg = get_registry()
        artifact = self._memory.get(key) if memory else None
        if artifact is not None:
            self._memory.move_to_end(key)
            self._hit(reg, key, "memory")
            return artifact
        if self.disk:
            artifact = self._disk_get(key)
            if artifact is not None:
                if memory:
                    self._remember(key, artifact)
                self._hit(reg, key, "disk")
                return artifact
        reg.counter_add("cache.misses", 1, SCHED)
        if events_enabled():
            emit("cache", key=key, outcome="miss")
        return None

    def _disk_get(self, key):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, schema drift, unreadable pickle: the entry
            # is stale — evict it and let the caller recompile.
            get_registry().counter_add("cache.stale", 1, SCHED)
            try:
                os.remove(path)
            except OSError:
                pass
            return None

    def forget(self):
        """Drop the memory layer only (a fresh process over the same
        disk store)."""
        self._memory.clear()

    # -- store ----------------------------------------------------------------

    def put(self, key, artifact, memory=True):
        """Store ``artifact`` in both layers (``memory=False``: on disk
        only)."""
        if memory:
            self._remember(key, artifact)
        get_registry().counter_add("cache.puts", 1, SCHED)
        if not self.disk:
            return
        path = self._path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(artifact, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # The cache is best-effort: a full or read-only disk must not
            # fail the compile that produced the artifact.
            pass

    # -- maintenance ----------------------------------------------------------

    def shards(self):
        """Sorted list of shard names (two-hex-digit key-prefix
        directories) that exist on disk."""
        try:
            entries = os.listdir(self.root)
        except OSError:
            return []
        return sorted(name for name in entries
                      if len(name) == 2
                      and os.path.isdir(os.path.join(self.root, name)))

    def sweep_tmp(self, max_age_s=3600.0, shard=None):
        """Remove orphaned ``*.tmp`` spill files.

        A worker killed mid-``put`` (the scheduler's cell-timeout path)
        can leak the temp file it was writing; the entry itself is never
        corrupted (``os.replace`` is atomic) but the orphan wastes disk.
        Only files older than ``max_age_s`` are removed so a concurrent
        writer's in-flight temp file is left alone.

        ``shard`` restricts the sweep to one key-prefix directory —
        long-lived servers walk the shards round-robin (one per
        maintenance tick) so no single sweep has to scan, or hold up
        writers on, the whole store.  Returns the number of files
        removed."""
        root = self.root if shard is None else os.path.join(self.root,
                                                            shard)
        if not os.path.isdir(root):
            return 0
        import time
        cutoff = time.time() - max_age_s
        removed = 0
        for dirpath, _subdirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    if os.path.getmtime(path) <= cutoff:
                        os.remove(path)
                        removed += 1
                except OSError:
                    pass
        return removed

    def clear(self):
        """Drop both layers; the versioned directory is removed wholesale
        (it only ever holds cache entries, so this is always safe)."""
        self.forget()
        shutil.rmtree(self.root, ignore_errors=True)

    def entry_count(self):
        if not os.path.isdir(self.root):
            return 0
        return sum(len([f for f in files if f.endswith(".pkl")])
                   for _dir, _sub, files in os.walk(self.root))


_GLOBAL = None


def get_cache():
    """The process-global cache used by the toolchain facades."""
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = ArtifactCache()
    return _GLOBAL


def configure(root=None, disk=None, memory_cap=None):
    """Replace the process-global cache (tests, or picking up changed
    ``REPRO_CACHE_DIR``/``REPRO_CACHE``/``REPRO_CACHE_MEM`` environment
    variables)."""
    global _GLOBAL
    _GLOBAL = ArtifactCache(root=root, disk=disk, memory_cap=memory_cap)
    return _GLOBAL
