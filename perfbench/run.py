"""The repository benchmark: one command, four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 10 --trace 0

Workloads (see ``NOTES.md`` for why each exists):

* ``compile``: new programs at input size XS through
  ``repro.service.cells.run_cell`` with empty caches;
* ``execute``: the same entry point with the compile and codegen caches
  filled in set-up and the result memo off, so the engines do the work;
* ``serve-warm``: ``python -m repro.service`` with its result cache
  filled in set-up, driven over HTTP by a closed loop of two
  connections;
* ``serve-mixed``: the same, with one request in five naming cells that
  have not been computed yet.

Every window is made of rounds of equal work.  ``--trace 0`` prints the
end-to-end metrics over the whole window, every time in it scaled to
reference seconds by the host probes taken around it (``probe.py``,
``NOTES.md``); ``--trace 1`` prints the per-layer metrics of a run
whose odd rounds are traced and whose even rounds are not, and the
tracing overhead between the two.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every output checked matched.  The program is built from
``./src``; without it the command exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from probe import probe, probes, scale  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.  ``compile``
#: sets up once in each of its round processes; the others fill caches
#: in set-up, which costs seconds, so they set up twice.
SETUP_RUNS = {"execute": 2, "serve-warm": 2, "serve-mixed": 2}

#: Client connections and scheduler workers (the machine has two cores).
CLIENTS = 2
JOBS = 2

#: Served requests between two host probes: about 80 ms of ``serve-warm``
#: and 0.5 s of ``serve-mixed`` (three benchmark slots of a round, each
#: a twinned cold request and eight warm ones), against 6.5 ms a probe.
SEGMENT = {"serve-warm": 40, "serve-mixed": 30}

#: Served requests checked against ``direct_lines`` per run.
DIRECT_SAMPLE = {"warm": 3, "cold": 2}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("warm_op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

PASS_NAMES = ("constfold", "dce", "globalopt", "licm", "gvn", "inline",
              "vectorize-loops", "remat-consts", "fast-math",
              "libcalls-shrinkwrap", "unroll")

TIME_LAYERS = (
    "cfront", *(f"ir.passes.{name}" for name in PASS_NAMES),
    "ir.passes.pipeline", "backends.wasm", "backends.js", "backends.x86",
    "wasm.encode_validate", "engine.codegen.translate", "wasm.vm",
    "jsengine", "native", "harness.runner", "harness.parallel.sweep",
    "cache.get", "cache.put", "cache.key", "cache.lookup",
    "service.canonicalize", "service.admit", "service.probe",
    "service.stream",
)

ENGINES = ("wasm.vm", "jsengine", "native")

PER_LAYER = (
    *((f"{layer}.ms", "ms/op") for layer in TIME_LAYERS),
    ("ir.passes.rewrites", "count/op"),
    ("engine.codegen.misses", "count/op"),
    ("engine.codegen.hits", "count/op"),
    *((f"{engine}.minstr_per_s", "Minstr/s") for engine in ENGINES),
    ("cache.hit_ratio", "frac"),
    ("harness.parallel.cells", "count/op"),
    ("harness.parallel.retries", "count/op"),
    ("service.probe_wait.ms", "ms"),
    ("service.batch_wait.ms", "ms"),
    ("service.dedupe_ratio", "frac"),
    ("service.transport.ms", "ms/op"),
    ("other.ms", "ms/op"),
    ("other.frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.overhead_ms", "ms"),
)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def p50(values):
    return statistics.median(values)


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def metric_block(values, units):
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units}


def program_env(root, cache_dir):
    """The environment the program runs in: nothing inherited from the
    caller's ``REPRO_*`` settings, the source tree on the path, and its
    caches in the run's own directory."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def trace_path(root, args, suffix):
    """Where a traced run leaves its spans (kept after the run)."""
    directory = root / ".perfbench" / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    return directory / f"{args.workload}-seed{args.seed}.{suffix}"


def layer_metrics(summary, ops):
    """Per-op self times and per-op counts from one tracer summary."""
    self_s = summary["self_s"]
    counts = summary["counts"]
    ops = max(ops, 1)
    values = {f"{layer}.ms": self_s.get(layer, 0.0) * 1000.0 / ops
              for layer in TIME_LAYERS}
    for name in ("ir.passes.rewrites", "engine.codegen.misses",
                 "engine.codegen.hits", "harness.parallel.cells",
                 "harness.parallel.retries"):
        values[name] = counts.get(name, 0) / ops
    for engine in ENGINES:
        busy = self_s.get(engine, 0.0)
        values[f"{engine}.minstr_per_s"] = \
            counts.get(f"{engine}.instructions", 0) / busy / 1e6 \
            if busy else 0.0
    gets = counts.get("cache.gets", 0)
    values["cache.hit_ratio"] = counts.get("cache.hits", 0) / gets \
        if gets else 0.0
    for wait in ("probe_wait", "batch_wait"):
        cells = counts.get(f"service.{wait}_cells", 0)
        values[f"service.{wait}.ms"] = \
            counts.get(f"service.{wait}_s", 0.0) * 1000.0 / cells \
            if cells else 0.0
    requested = counts.get("service.cells.requested", 0)
    values["service.dedupe_ratio"] = \
        counts.get("service.cells.deduped", 0) / requested \
        if requested else 0.0
    return values


def layer_table(summary, ops):
    """Human-readable self time and calls per layer (stderr)."""
    rows = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':28} {'self ms/op':>11} {'calls':>8}"]
    for layer, seconds in rows:
        lines.append(f"{layer:28} {seconds * 1000.0 / max(ops, 1):11.3f} "
                     f"{summary['calls'].get(layer, 0):8d}")
    return "\n".join(lines)


def end_to_end(setups, latencies, warm, seconds, rss_mb, attempted, failed):
    """The end-to-end metrics of an untraced run, from its set-up times
    (s), the latencies of its operations and of its warm ones (ms) and
    the length of its window (s), all in reference time."""
    values = {
        "setup_s": p50(setups),
        "ops_per_s": len(latencies) / seconds,
        "op_p50_ms": p50(latencies),
        "op_p90_ms": p90(latencies),
        "warm_op_p90_ms": p90(warm),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / max(attempted, 1),
    }
    return metric_block(values, END_TO_END)


def traced_metrics(summary, by_mode, wall, total_s, uncounted=()):
    """Per-layer metrics of a trace run, without ``service.transport.ms``.

    ``by_mode`` maps traced (``True``) and untraced (``False``) to the
    latencies (ms) of their operations and ``wall`` to the seconds those
    operations took.  ``total_s`` is the time the layers should account
    for; what their self time does not cover is ``other``.  The self
    time of the ``other`` span and of the layers in ``uncounted`` does
    not count as covered."""
    on, off = by_mode[True], by_mode[False]
    values = layer_metrics(summary, len(on))
    uncounted = {layers.OTHER, *uncounted}
    covered = sum(seconds for layer, seconds in summary["self_s"].items()
                  if layer not in uncounted)
    rest = max(total_s - covered, 0.0)
    values["other.ms"] = rest * 1000.0 / len(on)
    values["other.frac"] = rest / total_s if total_s else 0.0
    values["trace.overhead_frac"] = 1.0 - \
        (len(on) / wall[True]) / (len(off) / wall[False])
    values["trace.overhead_ms"] = statistics.fmean(on) - statistics.fmean(off)
    return values


def merge_summaries(summaries):
    """One tracer summary from those of several processes."""
    merged = {key: Counter() for key in ("self_s", "calls", "counts")}
    for summary in summaries:
        for key, counter in merged.items():
            counter.update(summary[key])
    return {key: dict(counter) for key, counter in merged.items()}


# -- direct workloads -----------------------------------------------------------


def start_direct(root, workdir, args, tag, setup_only, round_):
    cache_dir = workdir / f"cache-{tag}"
    cmd = [sys.executable, str(HERE / "direct.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--round", str(round_),
           "--trace", str(args.trace), "--cache-dir", str(cache_dir)]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace:
        cmd += ["--spans",
                str(trace_path(root, args, f"{tag}.spans.jsonl"))]
    return subprocess.Popen(cmd, cwd=root, env=program_env(root, cache_dir),
                            stdout=subprocess.PIPE, text=True)


def wait_ready(proc, started):
    """Seconds from ``started`` to the child's ``ready`` line, or
    ``None`` when it exited first."""
    for line in proc.stdout:
        if line.strip() == "ready":
            return time.perf_counter() - started
        log(f"set-up: {line.strip()}")
    return None


def generate(root, workdir, args, tag, setup_only=False, round_=0):
    """Run the load generator once over its own cache directory ``tag``.
    Returns the seconds from its start to ``ready`` and its result (a
    dict; with ``setup_only`` it holds only ``setup_probes``)."""
    started = time.perf_counter()
    proc = start_direct(root, workdir, args, tag, setup_only, round_)
    try:
        setup_s = wait_ready(proc, started)
        lines = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        proc.wait()
    if setup_s is None or proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args.workload} load generator failed "
                           f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    for failure in result.get("failures", [])[:20]:
        log(f"FAILED {failure}")
    return setup_s, result


def run_direct(root, workdir, args):
    if args.workload == "compile":
        # One process per round, each from empty caches; each process
        # start is one set-up.
        runs = [generate(root, workdir, args, f"round{index}", round_=index)
                for index in range(workloads.COMPILE_ROUNDS)]
    else:
        runs = [generate(root, workdir, args, f"setup{index}",
                         setup_only=True)
                for index in range(0 if args.trace
                                   else SETUP_RUNS[args.workload] - 1)]
        runs.append(generate(root, workdir, args, "run"))
    # Set-up time less the probes taken in it, in reference time.
    setups = [(setup_s - sum(result["setup_probes"]))
              * scale(result["setup_probes"])
              for setup_s, result in runs]
    results = [result for _setup_s, result in runs if "rounds" in result]
    rounds = []                 # (traced, cell labels, latencies ms, lap s)
    for result in results:
        start = 0
        for traced, cells, lap in result["rounds"]:
            end = start + cells
            rounds.append((traced, result["cells"][start:end],
                           [lat * 1000.0
                            for lat in result["latencies_s"][start:end]],
                           lap))
            start = end
    attempted = sum(len(lats) for _traced, _cells, lats, _lap in rounds)
    failed = sum(len(result["failures"]) for result in results)
    log(f"{args.workload}: {attempted} cells in rounds of "
        + ", ".join(f"{lap:.2f}" for *_rest, lap in rounds)
        + " s; set-ups " + ", ".join(f"{s:.2f}" for s in setups)
        + " reference s")
    if args.trace:
        summary = merge_summaries([result["tracer"] for result in results])
        by_mode = {mode: [lat for traced, _cells, lats, _lap in rounds
                          if traced == mode for lat in lats]
                   for mode in (False, True)}
        wall = {mode: sum(lap for traced, _cells, _lats, lap in rounds
                          if traced == mode)
                for mode in (False, True)}
        values = traced_metrics(summary, by_mode, wall, wall[True])
        values["service.transport.ms"] = 0.0
        log(layer_table(summary, len(by_mode[True])))
        return attempted, failed, metric_block(values, PER_LAYER)

    # Each cell's time in reference ms, scaled by the probes on either
    # side of it.
    lats = [lat * 1000.0 * scale(result["probes"][before:before + 2])
            for result in results
            for lat, before in zip(result["latencies_s"],
                                   result["probe_before"])]
    taken = [taken for result in results for taken in result["probes"]]
    log(f"{args.workload}: {attempted / sum(lap for *_rest, lap in rounds):.2f}"
        f" cells/s measured, {attempted * 1000.0 / sum(lats):.2f} in reference"
        f" time; probes {1000.0 * min(taken):.1f}-{1000.0 * max(taken):.1f} "
        f"ms")
    # One client and no writers to wait behind: every cell is in the read
    # class, so warm_op_p90_ms equals op_p90_ms here.  Of the five
    # ``compile`` processes, the median peak: the largest moves with the
    # programs a seed puts in one round.
    rss_mb = p50([result["rss_mb"] for result in results])
    return attempted, failed, end_to_end(setups, lats, lats,
                                         sum(lats) / 1000.0, rss_mb,
                                         attempted, failed)


# -- served workloads ---------------------------------------------------------------


def post(port, payload, timeout=60.0):
    """POST one sweep request; returns ``(status, body bytes)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/sweep", body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def cell_of(record):
    cell = record["cell"]
    return (cell["benchmark"], cell["target"], cell["toolchain"],
            cell["opt_level"], cell["size"], cell["profile"],
            cell["repetitions"])


def result_lines(body):
    return [line for line in body.split(b"\n")
            if line and json.loads(line).get("event") == "result"]


class Server:
    """One ``python -m repro.service`` process (through the launcher when
    traced) over its own cache directory."""

    def __init__(self, root, cache_dir, traced):
        cmd = [sys.executable]
        cmd += [str(HERE / "serve_launcher.py")] if traced \
            else ["-m", "repro.service"]
        cmd += ["--host", "127.0.0.1", "--port", "0", "--jobs", str(JOBS)]
        env = program_env(root, cache_dir)
        env["REPRO_RESULT_CACHE"] = "1"
        self.proc = subprocess.Popen(cmd, cwd=root, env=env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self.port = None
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        line = self.lines.get(timeout=60) or ""
        match = re.search(r"http://[^:]+:(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(match.group(1))

    def _read(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def command(self, text):
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def dump(self, path):
        self.command(f"dump {path}")
        while True:
            line = self.lines.get(timeout=60)
            if line is None or line.strip() == "dumped":
                break
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        try:
            if self.proc.poll() is None and self.port is not None:
                conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                  timeout=30)
                try:
                    conn.request("POST", "/shutdown",
                                 headers={"Content-Length": "0"})
                    conn.getresponse().read()
                finally:
                    conn.close()
                self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            pass                      # killed below
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdin.close()
            self.reader.join(timeout=10)
            self.proc.stdout.close()


class Checker:
    """Checks served streams.  Every fill line must match its digest in
    ``expected.json``; every later line for a cell must be byte-equal to
    the first line served for it."""

    def __init__(self, expected):
        self.expected = expected
        self.lines = {}            # cell -> first result line served
        self.failures = []

    def stream(self, payload, status, body):
        """``True`` when one response is complete and correct."""
        if status != 200:
            self.failures.append(f"HTTP {status}: {body[:200]!r}")
            return False
        lines = [line for line in body.split(b"\n") if line]
        events = [json.loads(line) for line in lines]
        done = events[-1] if events else {}
        cells = workloads.payload_cells(payload)
        if done.get("event") != "done" or done.get("failed") != 0 \
                or done.get("completed") != len(cells):
            self.failures.append(f"incomplete stream: {done}")
            return False
        got = [(line, record) for line, record in zip(lines, events)
               if record.get("event") == "result"]
        ok = len(got) == len(cells)
        for cell, (line, record) in zip(cells, got):
            first = self.lines.get(cell)
            if first is None:
                want = self.expected.get(workloads.label(cell))
                if cell_of(record) != cell or want is None or \
                        workloads.value_digest(record["value"]) != want:
                    self.failures.append(f"{workloads.label(cell)}: "
                                         f"result differs from expected")
                    ok = False
                    continue
                self.lines[cell] = line
            elif line != first:
                self.failures.append(f"{workloads.label(cell)}: line "
                                     f"differs from its first serve")
                ok = False
        if len(got) != len(cells):
            self.failures.append(f"{len(got)} result lines for "
                                 f"{len(cells)} cells")
        return ok


class Load:
    """Closed loop: each connection sends its next request when the
    previous response has been read to the end.  Requests come in the
    rounds of :func:`workloads.request_rounds`, cut into segments of
    ``SEGMENT`` requests with a barrier between segments: when both
    connections have finished a segment, one of them calls
    ``between(round)`` (the next segment's round, or ``None`` after the
    last) while the server is idle, then both start the next.  After
    :meth:`finish`, or when the rounds run out, they stop at the next
    round's first barrier, so a window is whole rounds."""

    def __init__(self, workload, seed, port, between):
        size = SEGMENT[workload]
        self.segments = ((round_, requests[start:start + size])
                         for round_, requests in
                         enumerate(workloads.request_rounds(workload, seed))
                         for start in range(0, len(requests), size))
        self.port = port
        self.between = between
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(CLIENTS, action=self._next_segment)
        self.pending = []
        self.round = -1
        self.stopping = False
        self.exhausted = False
        self.laps = []      # (round, start, end) per segment
        self.records = []   # (kind, segment, start, end, payload, status, body)

    def finish(self):
        self.stopping = True

    def _next_segment(self):
        if self.laps:
            self.laps[-1] = (*self.laps[-1][:2], time.perf_counter())
        segment = next(self.segments, None)
        self.exhausted = segment is None
        if segment is not None and segment[0] != self.round and \
                self.stopping:
            segment = None
        self.between(None if segment is None else segment[0])
        if segment is None:
            self.pending = None
            return
        self.round, requests = segment
        self.pending = list(reversed(requests))
        self.laps.append((self.round, time.perf_counter(), None))

    def _next(self):
        with self.lock:
            if not self.pending:
                return None
            kind, payload = self.pending.pop()
            return kind, len(self.laps) - 1, payload

    def client(self, index):
        while True:
            request = self._next()
            if request is None:
                self.barrier.wait(timeout=120)
                if self.pending is None:
                    return
                continue
            kind, segment, payload = request
            payload = dict(payload, client=f"c{index}")
            start = time.perf_counter()
            try:
                status, body = post(self.port, payload)
            except OSError as exc:
                status, body = None, repr(exc).encode()
            end = time.perf_counter()
            with self.lock:
                self.records.append((kind, segment, start, end, payload,
                                     status, body))


def direct_check(records, seed, root, workdir, checker):
    """Compare a seeded sample of served streams byte-for-byte with
    ``repro.service.cells.direct_lines`` computed here, live."""
    os.environ.update({"REPRO_RESULT_CACHE": "0", "REPRO_CACHE": "0",
                       "REPRO_CACHE_DIR": str(workdir / "direct")})
    sys.path.insert(0, str(root / "src"))
    from repro.service.cells import direct_lines
    from repro.service.requests import canonicalize_request

    rng = random.Random(f"check:{seed}")
    checked = mismatched = 0
    for kind, count in DIRECT_SAMPLE.items():
        pool = [r for r in records if r[0] == kind and r[5] == 200]
        for _kind, _round, _start, _end, payload, _status, body in \
                rng.sample(pool, min(count, len(pool))):
            want = [line.encode("utf-8") for line in
                    direct_lines(canonicalize_request(payload).cells)]
            checked += 1
            if result_lines(body) != want:
                mismatched += 1
                checker.failures.append(f"stream differs from direct_lines: "
                                        f"{payload}")
    return checked, mismatched


def fill(server, checker):
    payload = dict(workloads.fill_payload(), client="fill")
    status, body = post(server.port, payload, timeout=120.0)
    return checker.stream(payload, status, body)


def run_served(root, workdir, args, expected):
    checker = Checker(expected)
    setups = []
    attempted = failed = 0
    runs = 1 if args.trace else SETUP_RUNS[args.workload]
    server = None
    try:
        for index in range(runs):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(root, workdir / f"cache-{index}", args.trace)
            attempted += 1
            failed += not fill(server, checker)
            setups.append(time.perf_counter() - started)
            if not args.trace:
                setups[-1] *= scale(probes())

        taken = []       # a host probe before each segment and after the last

        def between(round_):
            if args.trace:
                server.command("on" if round_ is not None and round_ % 2
                               else "off")
            else:
                taken.append(probe())

        load = Load(args.workload, args.seed, server.port, between)
        clients = [threading.Thread(target=load.client, args=(index,))
                   for index in range(CLIENTS)]
        window_start = time.perf_counter()
        for thread in clients:
            thread.start()
        # Trace runs alternate untraced and traced rounds and need one of
        # each.
        while (time.perf_counter() - window_start < args.seconds or
               (args.trace and load.round < 1)) and \
                any(thread.is_alive() for thread in clients):
            time.sleep(0.01)
        load.finish()
        for thread in clients:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in clients) or \
                load.laps[-1][2] is None:
            raise RuntimeError("a client connection did not finish its "
                               "round")
        summary = server.dump(str(trace_path(root, args, "server.json"))) \
            if args.trace else None
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    records = load.records
    for _kind, _round, _start, _end, payload, status, body in records:
        attempted += 1
        failed += not checker.stream(payload, status, body)
    checked, mismatched = direct_check(records, args.seed, root, workdir,
                                       checker)
    failed += mismatched
    for failure in checker.failures[:20]:
        log(f"FAILED {failure}")
    log(f"{args.workload}: {len(records)} requests in {load.round + 1} "
        f"rounds ({sum(r[0] == 'cold' for r in records)} cold), "
        f"{checked} checked against direct_lines, set-ups {setups}")
    if load.exhausted:
        log(f"{args.workload}: all {load.round + 1} rounds of cold requests "
            f"used up after {load.laps[-1][2] - window_start:.1f} s; the "
            f"window ended there")

    laps = [end - start for _round, start, end in load.laps]
    if not args.trace:
        # Each segment in reference time, scaled by the probes before and
        # after it.
        factors = [scale(taken[index:index + 2]) for index in range(len(laps))]
        window = [[(r[3] - r[2]) * 1000.0 * factors[r[1]] for r in records
                   if kind in (None, r[0])]
                  for kind in (None, "warm")]
        seconds = sum(lap * factor for lap, factor in zip(laps, factors))
        log(f"{args.workload}: {len(records) / sum(laps):.1f} requests/s "
            f"measured, {len(records) / seconds:.1f} in reference time; "
            f"probes {1000.0 * min(taken):.1f}-{1000.0 * max(taken):.1f} ms")
        return attempted, failed, end_to_end(
            setups, *window, seconds, peak_rss, attempted, failed)

    # Rounds alternate untraced (even) and traced (odd).
    traced = [round_ % 2 == 1 for round_, _start, _end in load.laps]
    wall = {mode: sum(lap for lap, on in zip(laps, traced) if on == mode)
            for mode in (False, True)}
    by_mode = {mode: [(r[3] - r[2]) * 1000.0 for r in records
                      if traced[r[1]] == mode]
               for mode in (False, True)}
    tracer = summary["tracer"]
    # The server's CPU time is what the layers should cover; the
    # scheduler's own span is mostly waiting for its workers, so it is
    # left out of that balance.
    values = traced_metrics(tracer, by_mode, wall, summary["cpu_s"],
                            uncounted=("harness.parallel.sweep",))
    on = by_mode[True]
    values["service.transport.ms"] = statistics.fmean(on) - \
        sum(tracer["self_s"].values()) * 1000.0 / len(on)
    log(layer_table(tracer, len(on)) +
        f"\nserver cpu {summary['cpu_s']:.3f} s over {len(on)} traced "
        f"requests")
    return attempted, failed, metric_block(values, PER_LAYER)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        log("no program under ./src/repro: run from the root of a "
            "checkout")
        return 2
    with open(HERE / "expected.json", encoding="utf-8") as f:
        expected = json.load(f)["cells"]
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in ("compile", "execute"):
            attempted, failed, metrics = run_direct(root, workdir, args)
        else:
            attempted, failed, metrics = run_served(root, workdir, args,
                                                    expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
