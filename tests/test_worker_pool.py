"""The scheduler's long-lived worker pool: one pool per process, reused
by every parallel sweep, replaced when its pin (worker count and
``REPRO_*`` environment) changes or a worker dies, and stopped by
:func:`shutdown_pool` and the service."""

import asyncio
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cache import RESULT_CACHE_ENV, configure, get_cache
from repro.harness import parallel
from repro.harness.parallel import FaultPlan, run_sweep, shutdown_pool
from repro.obs import SCHED, get_registry, reset_registry
from repro.service import SweepServer, request_lines
from repro.service.cells import run_cell_task
from repro.service.requests import canonicalize_request


def _square_pid(x):
    return x * x, os.getpid()


def _succ_pid(x):
    return x + 1, os.getpid()


def _nap_pid(seconds):
    time.sleep(seconds)
    return os.getpid()


def _put(key):
    cache = get_cache()
    cache.put(key, {"key": key})
    return cache.root


def _memory_cap(_item):
    return get_cache().memory_cap


def _run_program(k):
    """Compile and run one tiny C program (codegen tier by default)."""
    from repro.compilers import CheerpCompiler
    from repro.engine.hostlib import wasm_host_imports
    from repro.wasm import WasmVM
    source = (f"int main() {{ int s = 0; "
              f"for (int i = 0; i < {k + 3}; i++) s = s + i * {k + 1}; "
              f'printf("%d", s); return 0; }}')
    module = CheerpCompiler().compile_wasm(source, name=f"cap{k}").module
    WasmVM().instantiate(module, wasm_host_imports([], None)).invoke("main")
    return os.getpid()


def _resident(_item):
    """The worker's memory-layer entries, and how many are codegen
    translation units."""
    memory = get_cache()._memory
    units = sum(1 for entry in memory.values()
                if isinstance(entry, tuple) and entry[:1] == ("codegen",))
    return len(memory), units, os.getpid()


def _sched(name):
    return get_registry().export([SCHED]).get(name, 0)


@pytest.fixture()
def fresh(store_restored, fresh_store, tmp_path, monkeypatch):
    """A private store (``fresh_store``, rooted at the yielded
    directory) with no pool forked before it, result memo off, a fresh
    registry."""
    monkeypatch.setenv(RESULT_CACHE_ENV, "0")
    shutdown_pool()
    reset_registry()
    yield tmp_path
    shutdown_pool()
    reset_registry()


class TestReuse:
    def test_sweeps_with_different_fns_share_workers(self, fresh):
        first = run_sweep(_square_pid, [1, 2, 3, 4], jobs=2)
        spawned = _sched("sched.pool.spawned")
        second = run_sweep(_succ_pid, [1, 2, 3, 4], jobs=2)
        assert [v for v, _pid in first.values] == [1, 4, 9, 16]
        assert [v for v, _pid in second.values] == [2, 3, 4, 5]
        assert spawned == 2
        assert _sched("sched.pool.spawned") == spawned
        assert {pid for _v, pid in second.values} <= \
            {pid for _v, pid in first.values}
        assert os.getpid() not in {pid for _v, pid in first.values}

    def test_one_cell_sweep_runs_in_a_worker(self, fresh):
        """The requested worker count alone picks the path: one cell at
        ``jobs=2`` runs in a pool worker, at ``jobs=1`` in-process."""
        (value, pid), = run_sweep(_square_pid, [3], jobs=2).values
        assert value == 9
        assert pid != os.getpid()
        assert _sched("sched.pool.spawned") == 1
        (value, pid), = run_sweep(_square_pid, [3], jobs=1).values
        assert value == 9
        assert pid == os.getpid()

    def test_workers_fork_only_when_a_sweep_needs_them(self, fresh):
        """A small sweep forks only the workers it uses; a larger one at
        the same requested count adds the rest and reuses the first."""
        first = run_sweep(_square_pid, [1, 2], jobs=4)
        assert _sched("sched.pool.spawned") == 2
        assert len(multiprocessing.active_children()) == 2
        second = run_sweep(_square_pid, list(range(8)), jobs=4)
        assert [v for v, _pid in second.values] == \
            [i * i for i in range(8)]
        assert _sched("sched.pool.spawned") == 4
        assert len(multiprocessing.active_children()) == 4
        assert {pid for _v, pid in first.values} < \
            {pid for _v, pid in second.values}

    def test_worker_memory_layer_is_capped(self, fresh, monkeypatch):
        """A long-lived worker bounds its artifact cache's memory layer
        with a constant unless ``REPRO_CACHE_MEM`` sets a cap."""
        assert get_cache().memory_cap == 0
        assert run_sweep(_memory_cap, [0, 1], jobs=2).values == \
            [parallel.WORKER_CACHE_MEM] * 2
        assert get_cache().memory_cap == 0
        monkeypatch.setenv("REPRO_CACHE_MEM", "7")
        configure(root=str(fresh), disk=True)
        assert run_sweep(_memory_cap, [0, 1], jobs=2).values == [7, 7]

    def test_worker_units_skip_its_memory_layer(self, fresh, monkeypatch):
        """With the disk layer on, a worker's translation units go to
        disk only, so its capped memory layer holds compiled artifacts
        and no unit takes an artifact's place."""
        monkeypatch.delenv("REPRO_FAST_INTERP", raising=False)
        monkeypatch.setenv("REPRO_CACHE_MEM", "4")
        configure(root=str(fresh), disk=True)
        ran = set(run_sweep(_run_program, list(range(6)), jobs=2).values)
        probes = run_sweep(_resident, [0, 1], jobs=2).values
        assert all(size <= 4 for size, _units, _pid in probes)
        assert any(pid in ran for _size, _units, pid in probes)
        assert all(size > 0 and units == 0 for size, units, pid in probes
                   if pid in ran)

    def test_changed_jobs_respawns(self, fresh):
        run_sweep(_square_pid, [1, 2, 3], jobs=2)
        run_sweep(_square_pid, [1, 2, 3], jobs=3)
        assert _sched("sched.pool.spawned") == 5
        assert len(multiprocessing.active_children()) == 3

    def test_changed_cache_dir_respawns_and_writes_land_there(
            self, fresh, monkeypatch):
        old = fresh
        new = fresh / "other"
        first = run_sweep(_put, ["a" * 16, "b" * 16], jobs=2)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(new))
        configure(root=str(new), disk=True)
        second = run_sweep(_put, ["c" * 16, "d" * 16], jobs=2)
        assert first.ok and second.ok
        assert _sched("sched.pool.spawned") == 4
        assert {os.path.dirname(root) for root in first.values} == \
            {str(old)}
        assert {os.path.dirname(root) for root in second.values} == \
            {str(new)}
        assert get_cache().entry_count() == 2
        assert configure(root=str(old), disk=True).entry_count() == 2

    def test_worker_killed_between_sweeps_is_replaced(self, fresh):
        first = run_sweep(_square_pid, [1, 2], jobs=2)
        victim = first.values[0][1]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while any(w.process.pid == victim and w.process.is_alive()
                  for w in parallel._POOL.workers):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        second = run_sweep(_square_pid, [1, 2], jobs=2)
        assert second.ok
        assert [v for v, _pid in second.values] == [1, 4]
        assert victim not in {pid for _v, pid in second.values}
        assert _sched("sched.pool.spawned") == 3
        assert _sched("sched.lost") == 0

    def test_shutdown_leaves_no_children(self, fresh):
        run_sweep(_square_pid, [1, 2], jobs=2)
        assert len(multiprocessing.active_children()) == 2
        shutdown_pool()
        assert multiprocessing.active_children() == []
        assert parallel._POOL is None
        shutdown_pool()                     # idempotent

    def test_concurrent_sweeps_take_turns_on_the_pool(self, fresh):
        """Sweeps from several threads share one pool of more workers
        than cores: each gets exactly its own cells back."""
        results = {}

        def sweep(offset):
            items = [offset + i for i in range(6)]
            results[offset] = run_sweep(_square_pid, items, jobs=3).values

        threads = [threading.Thread(target=sweep, args=(100 * n,))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for offset, values in results.items():
            assert [v for v, _pid in values] == \
                [(offset + i) ** 2 for i in range(6)]
        assert len(results) == 4
        assert _sched("sched.pool.spawned") == 3

    def test_sweep_ending_early_kills_its_busy_worker(self, fresh):
        """The scheduler's backoff sleep raises while the other worker is
        still running a cell: that worker is killed, so its reply can
        never reach the next sweep, which gets a fresh one."""
        def interrupt(_seconds):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(_nap_pid, [0.0, 2.0], jobs=2, retries=1,
                      labels=["flaky", "slow"], sleep=interrupt,
                      fault_plan=FaultPlan({"flaky": "flake:1"}))
        assert len(multiprocessing.active_children()) == 1
        second = run_sweep(_square_pid, [3, 4], jobs=2)
        assert [v for v, _pid in second.values] == [9, 16]
        assert _sched("sched.pool.spawned") == 3


#: Two cells of one program: each worker runs one of them.
CELLS = canonicalize_request(
    {"benchmarks": ["atax"], "targets": ["wasm", "js"],
     "opt_levels": ["O2"], "sizes": ["S"], "repetitions": 1}).cells


def test_second_sweep_rederives_nothing(fresh, monkeypatch):
    """A worker keeps what it derived: re-running the same cells at
    ``REPRO_JOBS=2`` loads no translation unit and forks no worker."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    items = [spec.as_tuple() for spec in CELLS]
    labels = [spec.label() for spec in CELLS]

    def counts():
        exported = get_registry().export([SCHED])
        return {name: value for name, value in exported.items()
                if name.startswith("interp.") and name.endswith(
                    ("codegen_cache_hits", "codegen_cache_misses"))}

    first = run_sweep(run_cell_task, items, labels=labels)
    after_first = counts()
    spawned = _sched("sched.pool.spawned")
    second = run_sweep(run_cell_task, items, labels=labels)
    assert first.ok and second.ok
    assert first.values == second.values
    assert sum(after_first.values()) > 0
    assert counts() == after_first
    assert spawned == 2
    assert _sched("sched.pool.spawned") == spawned


def test_first_cold_request_stream_ends_while_pool_lives(fresh):
    """A worker forked while a request is open must not keep the client
    connection alive: the first cold response reaches EOF, and the pool
    outlives it until the service stops."""
    payload = {"benchmarks": ["atax"], "targets": ["wasm", "js"],
               "opt_levels": ["O2"], "sizes": ["S"], "repetitions": 1}

    async def drive():
        server = SweepServer(host="127.0.0.1", port=0, jobs=2)
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            lines = await loop.run_in_executor(None, lambda: list(
                request_lines(server.host, server.port, payload,
                              timeout=60.0)))
            alive = [p for p in multiprocessing.active_children()
                     if p.is_alive()]
            return lines, len(alive)
        finally:
            await server.stop()

    lines, alive = asyncio.run(drive())
    events = [json.loads(line)["event"] for line in lines]
    assert events[-1] == "done"
    assert events.count("result") == 2
    assert alive == 2
    assert multiprocessing.active_children() == []
