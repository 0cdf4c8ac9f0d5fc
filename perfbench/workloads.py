"""Seeded inputs of the four workloads.

Everything here is plain data: a *cell* is the 7-tuple
``(benchmark, target, toolchain, opt_level, size, profile, repetitions)``
(the field order of ``repro.service.requests.CellSpec``, so sorting the
tuples gives the service's canonical stream order) and a served request
is a JSON payload.  The program never sees the seed, only what is
generated from it.

The benchmark set is pinned here rather than read from the program, so a
change to the program's own quick list cannot silently change the
benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

QUICK_SET = (
    "covariance", "gemm", "3mm", "atax", "cholesky", "lu", "trisolv",
    "floyd-warshall", "jacobi-2d", "heat-3d",
    "ADPCM", "AES", "SHA", "DFADD", "MIPS",
)

#: Every (target, toolchain) pair the program supports.
PAIRS = (("wasm", "cheerp"), ("wasm", "emscripten"), ("js", "cheerp"),
         ("x86", "llvm-x86"))

COMPILE_OPTS = ("O0", "O1", "O2", "O3", "Os", "Oz", "Ofast")
COMPILE_PROFILES = ("chrome-desktop", "firefox-desktop")
#: Rounds of the ``compile`` draw; each program takes a different opt
#: level in each round.
COMPILE_ROUNDS = 5

EXECUTE_SIZE = "M"
#: One repetition keeps a pass short (about 1.6 s), so a window holds
#: several passes.
EXECUTE_REPS = 1

WARM_TARGETS = ("wasm", "js")
WARM_OPTS = ("O2", "O3")
SERVE_SIZE = "S"

#: Cold requests of ``serve-mixed``: one benchmark at one opt level,
#: size and profile, on both targets (2 cells).  Sizes and profiles
#: alternate, so every round has the same mix of work.
COLD_TARGETS = ("wasm", "js")
COLD_OPTS = {"XS": ("O0", "O1", "O2", "O3", "Os", "Oz", "Ofast"),
             "S": ("O0", "O1", "Os", "Oz", "Ofast")}
COLD_PROFILES = ("chrome-desktop", "firefox-desktop")
#: Opt levels drawn per (size, profile) and benchmark: ``serve-mixed``
#: has 2 × 2 × 5 = 20 rounds of cold requests.  A run that uses them up
#: before ``--seconds`` have passed ends its window there.
COLD_OPTS_DRAWN = 5
COLD_ROUNDS = len(COLD_OPTS) * len(COLD_PROFILES) * COLD_OPTS_DRAWN

#: ``serve-mixed``: each cold request is sent twice in a row, so both
#: connections ask for the same uncomputed cells at about the same time,
#: then this many warm requests follow: one request in five is cold.
WARM_PER_COLD_PAIR = 8

PROFILE = "chrome-desktop"
WORKLOADS = ("compile", "execute", "serve-warm", "serve-mixed")


def label(cell):
    """The program's cell label (``CellSpec.label``)."""
    return "|".join(str(part) for part in cell)


def value_digest(value):
    """Digest of one cell's result value (modeled cycles, times, outputs,
    code sizes): what ``expected.json`` pins per cell."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- universes (what expected.json covers) -----------------------------------

def compile_universe():
    return [(b, t, tc, o, "XS", p, 1) for b in QUICK_SET
            for t, tc in PAIRS for o in COMPILE_OPTS
            for p in COMPILE_PROFILES]


def execute_cells():
    return [(b, t, tc, "O2", EXECUTE_SIZE, PROFILE, EXECUTE_REPS)
            for b in QUICK_SET for t, tc in PAIRS]


def warm_cells():
    """The served working set the server's result cache is filled with."""
    return sorted((b, t, "cheerp", o, SERVE_SIZE, PROFILE, 1)
                  for b in QUICK_SET for t in WARM_TARGETS
                  for o in WARM_OPTS)


def cold_universe():
    return [(b, t, "cheerp", o, size, p, 1) for b in QUICK_SET
            for t in COLD_TARGETS for size, opts in COLD_OPTS.items()
            for o in opts for p in COLD_PROFILES]


def all_cells():
    return sorted(set(compile_universe()) | set(execute_cells())
                  | set(warm_cells()) | set(cold_universe()))


# -- direct workloads ----------------------------------------------------------

def compile_rounds(seed):
    """Rounds of cells for ``compile``, in the order they are run.

    Each round holds the 60 (benchmark, pair) programs once, in a fresh
    seeded order, and each program takes an opt level it has not had
    yet, so every round is new programs (new compile-cache keys).
    Every round has the same mix of benchmarks and targets, which keeps
    the cost of the draw steady across seeds."""
    rng = random.Random(f"compile:{seed}")
    programs = [(b, t, tc) for b in QUICK_SET for t, tc in PAIRS]
    levels = {prog: rng.sample(COMPILE_OPTS, COMPILE_ROUNDS)
              for prog in programs}
    for round_ in range(COMPILE_ROUNDS):
        order = programs[:]
        rng.shuffle(order)
        yield [(b, t, tc, levels[(b, t, tc)][round_], "XS",
                rng.choice(COMPILE_PROFILES), 1) for b, t, tc in order]


def execute_pass(rng):
    """One pass over the execute set in a seeded order."""
    cells = execute_cells()
    rng.shuffle(cells)
    return cells


# -- served workloads ----------------------------------------------------------

def payload_cells(payload):
    """The canonical (sorted) cells a request payload expands to."""
    return sorted((b, t, "cheerp", o, s, p, payload["repetitions"])
                  for b in payload["benchmarks"] for t in payload["targets"]
                  for o in payload["opt_levels"] for s in payload["sizes"]
                  for p in payload.get("profiles", [PROFILE]))


def _payload(benchmarks, targets, opts, size, profile=None):
    payload = {"benchmarks": list(benchmarks), "targets": list(targets),
               "opt_levels": list(opts), "sizes": [size], "repetitions": 1}
    if profile is not None:
        payload["profiles"] = [profile]
    return payload


def fill_payload():
    return _payload(QUICK_SET, WARM_TARGETS, WARM_OPTS, SERVE_SIZE)


#: Request shapes (benchmarks, targets, opt levels): 1, 2 or 4 cells.
_SHAPES = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (2, 1, 2),
           (1, 2, 2))


def _warm_request(rng):
    nb, nt, no = rng.choice(_SHAPES)
    return _payload(rng.sample(QUICK_SET, nb), rng.sample(WARM_TARGETS, nt),
                    rng.sample(WARM_OPTS, no), SERVE_SIZE)


def _cold_rounds(rng):
    """The ``COLD_ROUNDS`` rounds of cold requests, one per benchmark
    each, in seeded order; no two requests name the same cell.  In round
    ``r`` a benchmark's size alternates with ``r`` and its profile with
    ``r // 2``, offset per benchmark, so every round has about the same
    mix of XS and S and of the two profiles."""
    plans = []
    for index, benchmark in enumerate(QUICK_SET):
        opts = {(size, profile): rng.sample(COLD_OPTS[size], COLD_OPTS_DRAWN)
                for size in COLD_OPTS for profile in COLD_PROFILES}
        steps = []
        for round_ in range(COLD_ROUNDS):
            size = tuple(COLD_OPTS)[(round_ + index) % 2]
            profile = COLD_PROFILES[(round_ // 2 + index // 2) % 2]
            steps.append((size, opts[(size, profile)].pop(), profile))
        plans.append((benchmark, steps))
    for round_ in range(COLD_ROUNDS):
        live = [(b, steps[round_]) for b, steps in plans]
        rng.shuffle(live)
        yield [_payload([benchmark], COLD_TARGETS, [opt], size, profile)
               for benchmark, (size, opt, profile) in live]


def request_rounds(workload, seed):
    """Seeded rounds of requests ``(kind, payload)``; ``kind`` is
    ``"warm"`` (names only cells computed in set-up) or ``"cold"``.  A
    round has one slot per benchmark: eight warm requests, preceded on
    ``serve-mixed`` by a cold request for that benchmark and its twin.
    ``serve-warm`` never runs out; ``serve-mixed`` ends after
    ``COLD_ROUNDS`` rounds, when its cold requests are used up."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "serve-mixed":
        colds = _cold_rounds(random.Random(f"{workload}:{seed}:cold"))
    else:
        colds = itertools.repeat([None] * len(QUICK_SET))
    for cold in colds:
        requests = []
        for payload in cold:
            if payload is not None:
                requests += [("cold", payload), ("cold", payload)]
            requests += [("warm", _warm_request(rng))
                         for _ in range(WARM_PER_COLD_PAIR)]
        yield requests
