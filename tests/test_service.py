"""Benchmark-as-a-service end-to-end: request canonicalization, in-flight
dedupe, admission control, HTTP streaming, and the byte-equality contract
between streamed result lines and the direct ``run_all.py --cells`` path."""

import asyncio
import contextlib
import gc
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cache import MISS, RESULT_CACHE_ENV, configure, result_key
from repro.harness.parallel import submit_call
from repro.obs import (
    EVENTS_ENV, SCHED, TRACE_ENV, TraceContext, add_listener, get_registry,
    remove_listener, reset_registry, tracing,
)
from repro.service import (
    SERVICE_PORT_ENV,
    AdmissionError,
    CellSpec,
    RequestError,
    SweepServer,
    SweepService,
    canonicalize_request,
    direct_lines,
    get_json,
    get_text,
    post_shutdown,
    request_lines,
    result_line,
    run_cell,
)
from repro.service.requests import MEMO_KIND

ROOT = Path(__file__).resolve().parent.parent

#: One tiny cell — the cheapest real sweep the service can run.
TINY_PAYLOAD = {"benchmarks": ["atax"], "targets": ["wasm"],
                "opt_levels": ["O2"], "sizes": ["S"], "repetitions": 1}


@pytest.fixture()
def service_env(tmp_path, monkeypatch):
    """Isolated cache directory + memoization on + a fresh registry."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv(RESULT_CACHE_ENV, "1")
    monkeypatch.setenv("REPRO_JOBS", "1")
    cache = configure(root=str(tmp_path / "cache"), disk=True)
    reset_registry()
    yield cache
    reset_registry()
    configure()


@contextlib.contextmanager
def held_pool_thread(service):
    """Block the pool thread for the duration: warm probes and in-process
    sweeps queue behind the hold, so cells admitted meanwhile stay
    unsettled until the block exits."""
    gate = threading.Event()
    submit_call(gate.wait, jobs=service.jobs)
    try:
        yield
    finally:
        gate.set()


class TestCanonicalization:
    def test_spellings_canonicalize_identically(self):
        # Scalar vs list, explicit defaults vs implied, shuffled order:
        # same cells, same keys — the basis of cross-client dedupe.
        a = canonicalize_request({"benchmarks": "atax", "targets": "wasm",
                                  "opt_levels": "O2"})
        b = canonicalize_request({"benchmarks": ["atax"],
                                  "targets": ["wasm"],
                                  "toolchains": ["cheerp"],
                                  "opt_levels": ["O2"], "sizes": ["M"],
                                  "profiles": ["chrome-desktop"],
                                  "repetitions": 2})
        assert a.cells == b.cells
        assert [s.cell_key() for s in a.cells] == \
            [s.cell_key() for s in b.cells]

    def test_cells_are_sorted_and_deduplicated(self):
        request = canonicalize_request(
            {"benchmarks": ["gemm", "atax", "atax"],
             "opt_levels": ["O3", "O0"]})
        assert list(request.cells) == sorted(set(request.cells))
        names = [spec.benchmark for spec in request.cells]
        assert names == sorted(names)
        assert len({spec.as_tuple() for spec in request.cells}) == \
            len(request.cells)

    def test_suite_expansion_and_default(self):
        quick = canonicalize_request({})
        assert quick.cells            # default suite: quick
        explicit = canonicalize_request({"suite": "quick"})
        assert explicit.cells == quick.cells
        poly = canonicalize_request({"suite": "polybench",
                                     "opt_levels": ["O2"]})
        allb = canonicalize_request({"suite": "all", "opt_levels": ["O2"]})
        assert len(allb.cells) > len(poly.cells)

    def test_invalid_target_toolchain_pairs_skipped(self):
        # cheerp can't produce x86; the x86 cells keep llvm-x86 only.
        request = canonicalize_request(
            {"benchmarks": ["atax"], "targets": ["wasm", "x86"],
             "toolchains": ["cheerp", "llvm-x86"]})
        pairs = {(s.target, s.toolchain) for s in request.cells}
        assert pairs == {("wasm", "cheerp"), ("x86", "llvm-x86")}

    @pytest.mark.parametrize("payload", [
        {"benchmarks": ["no-such-benchmark"]},
        {"suite": "nope"},
        {"targets": ["riscv"]},
        {"toolchains": ["gcc"]},
        {"opt_levels": ["O9"]},
        {"benchmarks": ["atax"], "sizes": ["XXL"]},
        {"profiles": ["netscape-desktop"]},
        {"repetitions": 0},
        {"repetitions": 11},
        {"repetitions": True},
        {"repetitions": "2"},
        {"benchmarks": []},
        {"targets": ["x86"], "toolchains": ["cheerp"]},  # empty product
        "not an object",
    ])
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(RequestError):
            canonicalize_request(payload)

    def test_request_cell_cap(self):
        with pytest.raises(RequestError, match="cap"):
            canonicalize_request({"suite": "all",
                                  "targets": ["wasm", "js"],
                                  "toolchains": ["cheerp", "emscripten"],
                                  "opt_levels": ["O0", "O1", "O2", "O3",
                                                 "O4", "Os", "Oz", "Ofast"],
                                  "profiles": ["chrome-desktop",
                                               "firefox-desktop",
                                               "edge-desktop",
                                               "chrome-mobile",
                                               "firefox-mobile",
                                               "edge-mobile"]})

    def test_cell_tuple_roundtrip(self):
        spec = CellSpec("atax", "wasm", "cheerp", "O2", "S",
                        "chrome-desktop", 1)
        assert CellSpec.from_tuple(spec.as_tuple()) == spec
        assert spec.label() == "atax|wasm|cheerp|O2|S|chrome-desktop|1"

    def test_cell_key_is_derived_once_per_spec(self):
        spec = CellSpec("atax", "wasm", "cheerp", "O2", "S",
                        "chrome-desktop", 1)
        assert spec.cell_key() == result_key(
            MEMO_KIND, spec.key_parts(), replay_metrics=True)
        assert spec.cell_key() is spec.cell_key()      # stored, not rehashed
        # The stored key stays out of repr, equality and ordering.
        assert "_key" not in repr(spec)
        assert spec == CellSpec.from_tuple(spec.as_tuple())


class TestAdmissionControl:
    def _drive(self, coro):
        return asyncio.run(coro)

    def test_over_capacity_rejected(self, service_env):
        async def scenario():
            service = SweepService(jobs=1, max_cells=1)
            await service.start()
            try:
                with pytest.raises(AdmissionError, match="over capacity"):
                    service.admit({"benchmarks": ["atax", "gemm"],
                                   "sizes": ["S"], "repetitions": 1})
            finally:
                await service.stop()

        self._drive(scenario())
        assert get_registry().export([SCHED])["service.rejected"] == 1

    def test_client_budget_enforced_and_released(self, service_env):
        async def scenario():
            service = SweepService(jobs=1, client_budget=1)
            await service.start()
            try:
                with held_pool_thread(service):   # hold cells pending
                    job = service.admit(dict(TINY_PAYLOAD, client="alice"))
                    with pytest.raises(AdmissionError, match="budget"):
                        service.admit(dict(TINY_PAYLOAD, client="alice"))
                    # Another client has its own budget...
                    other = service.admit(dict(TINY_PAYLOAD, client="bob"))
                    other.close()
                    # ... and closing the job releases alice's.
                    job.close()
                    service.admit(dict(TINY_PAYLOAD, client="alice")).close()
            finally:
                await service.stop()

        self._drive(scenario())

    def test_stop_settles_stranded_futures(self, service_env, caplog):
        """``stop`` settles a held cell as ``ServiceStopped`` and cancels
        the request's probe/sweep task, so the cell is never swept once
        its hold is released, and no task is left pending for the
        garbage collector to find."""
        async def scenario():
            service = SweepService(jobs=1)
            await service.start()
            with held_pool_thread(service):   # hold the cell pending
                job = service.admit(TINY_PAYLOAD)
                await asyncio.sleep(0)     # its probe queues behind the hold
            await service.stop()
            job.close()
            return job

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            job = self._drive(scenario())
            gc.collect()
        status, info = job.futures[0].result()
        assert status == "failed"
        assert info["error"] == "ServiceStopped"
        assert "sched.cells" not in get_registry().export([SCHED])
        assert "Task was destroyed but it is pending" not in caplog.text

    def test_sweep_that_raises_settles_its_cells(self, service_env,
                                                 monkeypatch):
        """A sweep that raises (rather than reporting a cell failure)
        still settles every cell it was given, as lost."""
        from repro.service import jobs

        def broken(*_args, **_kwargs):
            raise RuntimeError("scheduler broke")

        monkeypatch.setattr(jobs, "run_sweep", broken)

        async def scenario():
            service = SweepService(jobs=1)
            await service.start()
            try:
                job = service.admit(TINY_PAYLOAD)
                outcomes = await asyncio.gather(*job.futures)
                job.close()
                return outcomes, service.stats()
            finally:
                await service.stop()

        ((status, info),), stats = self._drive(scenario())
        assert status == "failed"
        assert (info["error"], info["kind"]) == ("RuntimeError", "lost")
        assert stats["outstanding_cells"] == stats["inflight_cells"] == 0

    def test_only_admitted_requests_count(self, service_env):
        """A rejected request leaves ``service.requests`` and the
        requested-cell count alone, so the requested cells break down
        exactly into deduped + warm + swept."""
        async def scenario():
            service = SweepService(jobs=1, max_cells=1)
            await service.start()
            try:
                with pytest.raises(AdmissionError, match="over capacity"):
                    service.admit({"benchmarks": ["atax", "gemm"],
                                   "sizes": ["S"], "repetitions": 1})
                job = service.admit(TINY_PAYLOAD)
                assert service.last_cells == job.request.cells
                await asyncio.gather(*job.futures)
                job.close()
            finally:
                await service.stop()

        self._drive(scenario())
        counters = get_registry().export([SCHED])
        assert counters["service.requests"] == 1
        assert counters["service.rejected"] == 1
        assert counters["service.cells.requested"] == 1
        assert counters["service.cells.requested"] == sum(
            counters.get(f"service.cells.{part}", 0)
            for part in ("deduped", "warm", "swept"))


class TestDedupe:
    """Two identical concurrent requests → one sweep execution."""

    def test_concurrent_identical_requests_share_one_execution(
            self, service_env):
        async def scenario():
            service = SweepService(jobs=1)
            await service.start()
            try:
                # Admitted back-to-back on one loop turn: the second
                # request can only ever see the first's in-flight futures.
                job1 = service.admit(TINY_PAYLOAD)
                job2 = service.admit(TINY_PAYLOAD)
                assert job1.deduped == 0 and len(job1.new_keys) == 1
                assert job2.deduped == 1 and not job2.new_keys
                assert job2.futures[0] is job1.futures[0]
                (status1, value1), = await asyncio.gather(*job1.futures)
                (status2, value2), = await asyncio.gather(*job2.futures)
                job1.close()
                job2.close()
                return (status1, value1), (status2, value2)
            finally:
                await service.stop()

        (status1, value1), (status2, value2) = asyncio.run(scenario())
        assert status1 == status2 == "ok"
        assert value1 == value2
        counters = get_registry().export([SCHED])
        # The scheduler ran the cell exactly once; the dedupe is visible.
        assert counters["sched.cells"] == 1
        assert counters["service.cells.requested"] == 2
        assert counters["service.cells.deduped"] == 1
        assert counters["service.sweeps"] == 1

    def test_warm_cell_served_without_scheduling(self, service_env):
        spec = canonicalize_request(TINY_PAYLOAD).cells[0]
        run_cell(spec)                      # populate the result cache
        reset_registry()

        async def scenario():
            service = SweepService(jobs=1)
            await service.start()
            try:
                job = service.admit(TINY_PAYLOAD)
                (status, value), = await asyncio.gather(*job.futures)
                job.close()
                return status, value
            finally:
                await service.stop()

        status, value = asyncio.run(scenario())
        assert status == "warm"
        assert value == run_cell(spec)      # identical memoized payload
        counters = get_registry().export([SCHED])
        assert counters["service.cells.warm"] == 1
        assert counters.get("sched.cells", 0) == 0   # never scheduled
        assert counters["cache.hits"] >= 1


class TestOneQueue:
    """At ``jobs=2`` every request's cells share the pool's one queue:
    concurrent sweeps fill the idle workers, and a warm probe never
    waits behind a running sweep."""

    @staticmethod
    def _cell_events():
        records = []
        token = add_listener(lambda record: records.append(record)
                             if record.get("event") == "cell" else None)
        return records, token

    def test_concurrent_one_cell_requests_run_side_by_side(
            self, service_env):
        records, token = self._cell_events()

        async def scenario():
            service = SweepService(jobs=2)
            await service.start()
            try:
                jobs = [service.admit(dict(TINY_PAYLOAD, targets=[target]))
                        for target in ("wasm", "js")]
                outcomes = await asyncio.gather(
                    *(future for job in jobs for future in job.futures))
                pool_threads = [thread for thread in threading.enumerate()
                                if thread.name == "repro-pool"]
                for job in jobs:
                    job.close()
                return outcomes, len(pool_threads)
            finally:
                await service.stop()

        try:
            outcomes, pool_threads = asyncio.run(scenario())
        finally:
            remove_listener(token)
        assert [status for status, _value in outcomes] == ["ok", "ok"]
        assert get_registry().export([SCHED])["sched.pool.spawned"] == 2
        workers = {record["worker"] for record in records}
        assert len(records) == 2 and len(workers) == 2
        assert os.getpid() not in workers
        assert pool_threads == 1            # the server's one extra thread

    def test_warm_request_settles_while_a_sweep_runs(self, service_env,
                                                     monkeypatch):
        warm = canonicalize_request(TINY_PAYLOAD).cells[0]
        run_cell(warm)                      # populate the result cache
        cold_payload = dict(TINY_PAYLOAD, targets=["js"])
        cold = canonicalize_request(cold_payload).cells[0]
        # The cold cell's first attempt hangs until the cell timeout
        # kills its worker; the retry then computes it.
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"{cold.label()}=hang:1")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "3")
        records, token = self._cell_events()

        async def scenario():
            service = SweepService(jobs=2)
            await service.start()
            try:
                cold_job = service.admit(cold_payload)
                await asyncio.sleep(0.5)     # its cell is on a worker now
                warm_job = service.admit(TINY_PAYLOAD)
                (status, _value), = await asyncio.wait_for(
                    asyncio.gather(*warm_job.futures), 2.0)
                cold_pending = not cold_job.futures[0].done()
                (cold_status, _value), = await asyncio.gather(
                    *cold_job.futures)
                warm_job.close()
                cold_job.close()
                return status, cold_pending, cold_status
            finally:
                await service.stop()

        try:
            status, cold_pending, cold_status = asyncio.run(scenario())
        finally:
            remove_listener(token)
        assert status == "warm"
        assert cold_pending
        assert cold_status == "ok"
        assert [record["attempts"] for record in records] == [2]


class TestWarmHotPath:
    """Tracing off, a warm serve derives no span ids it cannot ship, and
    a memo-warm response goes out in two writes."""

    WARM_PAYLOAD = dict(TINY_PAYLOAD, opt_levels=["O2", "O3"])

    @pytest.fixture()
    def warm_cells(self, service_env, monkeypatch):
        monkeypatch.delenv(EVENTS_ENV, raising=False)
        cells = canonicalize_request(self.WARM_PAYLOAD).cells
        for spec in cells:
            run_cell(spec)                  # populate the result cache
        return cells

    @pytest.fixture()
    def derived(self, monkeypatch):
        calls = []
        real = tracing.derive_id

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        monkeypatch.setattr(tracing, "derive_id", counting)
        return calls

    def test_warm_probe_derives_no_ids_with_events_off(self, warm_cells,
                                                       derived):
        root = TraceContext.root("request", 1)
        pairs = [(spec, root.child("cell", spec.cell_key()))
                 for spec in warm_cells]
        derived.clear()
        values = SweepService._probe_warm(pairs)
        assert MISS not in values
        assert derived == []

    def _admit_twice(self):
        async def scenario():
            service = SweepService(jobs=1)
            await service.start()
            try:
                first = service.admit(self.WARM_PAYLOAD)
                second = service.admit(self.WARM_PAYLOAD)
                await asyncio.gather(*first.futures, *second.futures)
                first.close()
                second.close()
                return second.deduped
            finally:
                await service.stop()

        return asyncio.run(scenario())

    def test_dedupe_and_probe_spans_only_derive_when_shipped(
            self, warm_cells, derived):
        assert self._admit_twice() == len(warm_cells)
        span_names = {"service.dedupe", "service.cache_probe"}
        assert not [p for p in derived if span_names & set(p)]
        spans = []
        token = add_listener(lambda record: spans.append(record.get("name")))
        try:
            assert self._admit_twice() == len(warm_cells)
        finally:
            remove_listener(token)
        assert spans.count("service.dedupe") == len(warm_cells)
        assert spans.count("service.cache_probe") == len(warm_cells)

    def test_warm_response_is_two_writes(self, warm_cells, monkeypatch):
        writes = []
        real_write = asyncio.StreamWriter.write

        def counting_write(writer, data):
            writes.append(bytes(data))
            return real_write(writer, data)

        monkeypatch.setattr(asyncio.StreamWriter, "write", counting_write)

        async def scenario(server, loop):
            return await loop.run_in_executor(None, lambda: list(
                request_lines(server.host, server.port, self.WARM_PAYLOAD)))

        stream = TestHttpServer._run_server(self, scenario)
        assert len(writes) == 2
        assert writes[0].startswith(b"HTTP/1.1 200 OK")
        assert writes[0].endswith(stream[0] + b"\n")        # accepted
        assert writes[1] == b"".join(line + b"\n" for line in stream[1:])
        results = [line for line in stream
                   if json.loads(line)["event"] == "result"]
        assert results == [line.encode("utf-8")
                           for line in direct_lines(warm_cells)]


class TestHttpServer:
    def _run_server(self, scenario, jobs=1, **server_kwargs):
        async def drive():
            server = SweepServer(host="127.0.0.1", port=0, jobs=jobs,
                                 **server_kwargs)
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                return await scenario(server, loop)
            finally:
                await server.stop()

        return asyncio.run(drive())

    def test_port_env(self, monkeypatch):
        """``REPRO_SERVICE_PORT`` is an integer knob (default 0, an
        ephemeral port); an explicit ``port`` argument wins."""
        def port():
            return SweepServer(service=object()).port

        monkeypatch.delenv(SERVICE_PORT_ENV, raising=False)
        assert port() == 0
        monkeypatch.setenv(SERVICE_PORT_ENV, " 8123 ")
        assert port() == 8123
        assert SweepServer(port=9, service=object()).port == 9
        monkeypatch.setenv(SERVICE_PORT_ENV, "garbage")
        assert port() == 0

    def test_healthz_stats_and_errors(self, service_env):
        async def scenario(server, loop):
            host, port = server.host, server.port

            def probe():
                health = get_json(host, port, "/healthz")
                stats = get_json(host, port, "/stats")
                codes = {}
                from repro.service.client import ServiceError
                for path, payload in [("/nope", None),
                                      ("/sweep", {"targets": ["riscv"]})]:
                    try:
                        if payload is None:
                            get_json(host, port, path)
                        else:
                            list(request_lines(host, port, payload))
                    except ServiceError as exc:
                        codes[path] = exc.status
                return health, stats, codes

            return await loop.run_in_executor(None, probe)

        health, stats, codes = self._run_server(scenario)
        assert health == {"ok": True}
        assert set(stats["limits"]) == {"max_cells", "client_budget"}
        assert "counters" in stats
        assert codes == {"/nope": 404, "/sweep": 400}

    def test_http_429_on_admission_reject(self, service_env):
        async def scenario(server, loop):
            from repro.service.client import ServiceError
            host, port = server.host, server.port

            def probe():
                try:
                    list(request_lines(
                        host, port, {"benchmarks": ["atax", "gemm"],
                                     "sizes": ["S"], "repetitions": 1}))
                except ServiceError as exc:
                    return exc.status
                return None

            return await loop.run_in_executor(None, probe)

        assert self._run_server(scenario, max_cells=1) == 429

    def test_stream_matches_direct_path_and_dedupes(self, service_env,
                                                    tmp_path):
        payload = dict(TINY_PAYLOAD, progress=True)

        async def scenario(server, loop):
            host, port = server.host, server.port

            def fetch():
                return list(request_lines(host, port, payload))

            # Two concurrent identical requests over HTTP.
            streams = await asyncio.gather(
                loop.run_in_executor(None, fetch),
                loop.run_in_executor(None, fetch))
            # Futures settle from the scheduler's on_result hook, which
            # can run before the sweep merges its sched.* counters —
            # poll until the batch's bookkeeping lands.
            for _ in range(100):
                stats = await loop.run_in_executor(
                    None, lambda: get_json(host, port, "/stats"))
                if "sched.cells" in stats["counters"]:
                    break
                await asyncio.sleep(0.05)
            return streams, stats

        (stream_a, stream_b), stats = self._run_server(scenario)

        def events(stream):
            return [json.loads(line) for line in stream]

        def results(stream):
            return [line for line in stream
                    if json.loads(line).get("event") == "result"]

        # Both streams open, carry one result line each, and close.
        for stream in (stream_a, stream_b):
            kinds = [e["event"] for e in events(stream)]
            assert kinds[0] == "accepted" and kinds[-1] == "done"
            assert kinds.count("result") == 1
            assert events(stream)[-1]["completed"] == 1
        # Progress lines carry the scheduler lifecycle for one of the
        # two requests (the one whose cells actually ran).
        stages = [e["stage"] for e in
                  events(stream_a) + events(stream_b)
                  if e["event"] == "progress"]
        assert "cell" in stages
        # The cell executed once server-wide; the twin was deduped
        # against the in-flight future (or served memo-warm if it lost
        # the race) — never re-executed.
        counters = stats["counters"]
        assert counters["sched.cells"] == 1
        assert counters["service.cells.requested"] == 2
        assert counters.get("service.cells.deduped", 0) + \
            counters.get("service.cells.warm", 0) == 1
        assert results(stream_a) == results(stream_b)

        # Byte-equality contract: the streamed result lines equal the
        # in-process direct path...
        cells = canonicalize_request(payload).cells
        direct = [line.encode("utf-8") for line in direct_lines(cells)]
        assert results(stream_a) == direct
        # ... and the run_all.py --cells reference subprocess.
        spec_file = tmp_path / "request.json"
        spec_file.write_text(json.dumps(payload))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        proc = subprocess.run(
            [sys.executable, str(ROOT / "results" / "run_all.py"),
             "--cells", str(spec_file)],
            capture_output=True, timeout=570, env=env, cwd=str(ROOT))
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.splitlines() == results(stream_a)

    @pytest.mark.parametrize("jobs,opt_levels", [
        (1, ["O2"]), (2, ["O3"]), (2, ["O0", "O1"])])
    def test_every_cold_cell_streams_dispatch_then_outcome(
            self, service_env, jobs, opt_levels):
        """Progress is the same whichever path a sweep takes: each cold
        cell streams ``cell_dispatch`` then ``cell``, for a one-cell
        request in-process (``jobs=1``) or in a worker (``jobs=2``) and
        for each cell of a two-cell request."""
        payload = dict(TINY_PAYLOAD, opt_levels=opt_levels, progress=True)

        async def scenario(server, loop):
            return await loop.run_in_executor(None, lambda: list(
                request_lines(server.host, server.port, payload)))

        stages = {}
        for line in self._run_server(scenario, jobs=jobs):
            record = json.loads(line)
            if record["event"] == "progress":
                stages.setdefault(record["label"], []).append(
                    record["stage"])
        cells = canonicalize_request(payload).cells
        assert stages == {spec.label(): ["cell_dispatch", "cell"]
                          for spec in cells}

    def test_shutdown_endpoint_stops_server(self, service_env):
        async def drive():
            server = SweepServer(host="127.0.0.1", port=0, jobs=1)
            await server.start()
            loop = asyncio.get_running_loop()
            ack = await loop.run_in_executor(
                None, lambda: post_shutdown(server.host, server.port))
            await asyncio.wait_for(server.serve_until_stopped(), timeout=30)
            return ack

        assert asyncio.run(drive()) == {"stopping": True}


class TestTracing:
    """Trace propagation over HTTP: per-request routing of progress
    lines, id stamping under ``REPRO_TRACE=1``, and ``/metrics``."""

    _run_server = TestHttpServer._run_server

    def test_overlapping_streams_do_not_crosstalk(self, service_env):
        # Two different requests stream concurrently through one server;
        # progress lines are routed by trace id, so neither stream may
        # ever carry the other request's cells.
        payload_a = dict(TINY_PAYLOAD, progress=True)
        payload_b = dict(TINY_PAYLOAD, benchmarks=["gemm"], progress=True)

        async def scenario(server, loop):
            host, port = server.host, server.port
            return await asyncio.gather(
                loop.run_in_executor(None, lambda: list(
                    request_lines(host, port, payload_a))),
                loop.run_in_executor(None, lambda: list(
                    request_lines(host, port, payload_b))))

        stream_a, stream_b = self._run_server(scenario)

        def progress(stream):
            return [json.loads(line) for line in stream
                    if json.loads(line).get("event") == "progress"]

        labels_a = [e["label"] for e in progress(stream_a)]
        labels_b = [e["label"] for e in progress(stream_b)]
        assert labels_a and labels_b      # both saw their own lifecycle
        assert all("atax" in label for label in labels_a)
        assert all("gemm" in label for label in labels_b)
        # Tracing off: no trace fields leak into any streamed line.
        for line in stream_a + stream_b:
            record = json.loads(line)
            assert "trace" not in record
            assert "trace_id" not in record

    def test_traced_stream_stamps_linked_ids(self, service_env,
                                             monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        payload = dict(TINY_PAYLOAD, progress=True)

        async def scenario(server, loop):
            host, port = server.host, server.port
            return await loop.run_in_executor(
                None, lambda: list(request_lines(host, port, payload)))

        events = [json.loads(line) for line in self._run_server(scenario)]
        accepted, done = events[0], events[-1]
        assert accepted["event"] == "accepted" and done["event"] == "done"
        root = accepted["trace"]
        assert set(root) == {"trace_id", "span_id"}
        assert done["trace"] == root
        # Result lines carry the per-cell span of the same trace.
        results = [e for e in events if e["event"] == "result"]
        assert results
        for record in results:
            assert record["trace"]["trace_id"] == root["trace_id"]
            assert record["trace"]["span_id"] != root["span_id"]
        # Progress lines link cell spans back to the request root.
        progress = [e for e in events if e["event"] == "progress"]
        assert progress
        for record in progress:
            assert record["trace_id"] == root["trace_id"]
            assert record["parent_span_id"] == root["span_id"]
        # Minus its ids, the traced stream is the untraced direct path
        # byte for byte.
        for record in results:
            del record["trace"]
        cells = canonicalize_request(payload).cells
        assert [json.dumps(record, sort_keys=True) for record in results] \
            == direct_lines(cells)

    def test_metrics_endpoint_scrapes_counters(self, service_env):
        async def scenario(server, loop):
            host, port = server.host, server.port

            def fetch():
                return list(request_lines(host, port, TINY_PAYLOAD))

            await loop.run_in_executor(None, fetch)
            # Futures settle before the sweep merges its sched.*
            # counters; poll until the batch bookkeeping lands.
            text = ""
            for _ in range(100):
                text = await loop.run_in_executor(
                    None, lambda: get_text(host, port, "/metrics"))
                if "repro_sched_retries" in text:
                    break
                await asyncio.sleep(0.05)
            return text

        text = self._run_server(scenario)
        assert text.endswith("\n")
        assert "# TYPE repro_service_requests counter" in text
        assert 'repro_service_requests{stability="sched"} 1' in text
        assert 'repro_service_cells_requested{stability="sched"} 1' in text
        # The retry counter is registered even on clean sweeps so
        # scrapers always see the series.
        assert 'repro_sched_retries{stability="sched"} 0' in text
        # The artifact store's registry counters (the sweep workers'
        # merged in) and the scheduler-health gauges ride along.
        assert "# TYPE repro_cache_misses counter" in text
        assert "# TYPE repro_cache_puts counter" in text
        assert "repro_store_" not in text
        assert "repro_service_outstanding_cells 0" in text
        assert "repro_service_inflight_cells 0" in text


class TestResultLineContract:
    def test_result_line_is_canonical_json(self, service_env):
        spec = canonicalize_request(TINY_PAYLOAD).cells[0]
        value = run_cell(spec)
        line = result_line(spec, value)
        record = json.loads(line)
        assert record["event"] == "result"
        assert record["cell"] == spec.as_dict()
        assert record["key"] == spec.cell_key()
        # Canonical serialization: re-dumping the parsed record with
        # sorted keys reproduces the line byte-for-byte.
        assert json.dumps(record, sort_keys=True) == line


# Tier-1 gate: the full start → request → shutdown loop stays runnable.

class TestServiceSmoke:
    def test_service_smoke_gate(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "--smoke"],
            capture_output=True, text=True, timeout=570, env=env,
            cwd=str(ROOT))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "smoke: ok" in result.stdout
