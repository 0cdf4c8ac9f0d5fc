"""Load generator of the direct workloads (``compile``, ``execute``).

Started by ``run.py`` from the root of a checkout.  It imports the
program from ``./src``, sets up, prints ``ready`` (``run.py`` times
set-up from process start to that line), then runs cells through
``repro.service.cells.run_cell`` for the window and prints one JSON
result line.  Set-up takes a host probe (``probe.py``) before the
program's imports and after every ``PROBE_EVERY`` cells it runs;
``run.py`` takes their time out of the set-up time and scales the rest
by them.  With ``--setup-only`` it prints them and exits.  An untraced
window takes a probe before its first cell and after every
``PROBE_EVERY`` cells, and ``run.py`` scales each cell's time by the
probes on either side of it.

* ``compile``: one process per round of :func:`workloads.compile_rounds`
  (``--round``).  Every cache starts empty (fresh cache directory, result
  memo on so each new cell also misses and fills it); set-up runs the
  four ``trisolv`` cells of ``execute``, which the window never
  compiles, so the program's one-time lazy set-up is not timed; the
  window is the round's 60 programs, whatever ``--seconds`` says.
* ``execute``: set-up fills the compile and codegen caches by running
  every cell of the set once; the result memo is off, so every cell in
  the window runs the engines.  The window runs whole passes over the
  set in seeded order for ``--seconds``.

With ``--trace 1`` the layer wrappers of ``layers.py`` time the odd
rounds of the window (a ``compile`` process runs one round, numbered
``--round``); set-up is never traced.  Every result is checked against
``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Cells between two probes of an untraced window: about 50 ms of
#: ``execute`` and 0.15 s of ``compile``, against 6.5 ms a probe.
PROBE_EVERY = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("compile", "execute"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--round", type=int, default=0,
                        help="the round of the compile draw to run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--spans", default=None,
                        help="write the traced spans here (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as f:
        return json.load(f)["cells"]


def check(expected, cell, value):
    """``None`` when ``value`` is the committed result of ``cell``, else
    a one-line reason."""
    import workloads
    name = workloads.label(cell)
    want = expected.get(name)
    if want is None:
        return f"{name}: no expected digest"
    got = workloads.value_digest(value)
    if got != want:
        return f"{name}: digest {got} != expected {want}"
    return None


class Window:
    """Latencies and failures of the cells run in the window."""

    def __init__(self, expected, cells_mod, spec_cls):
        self.expected = expected
        self.cells_mod = cells_mod
        self.spec_cls = spec_cls
        self.cells = []            # label per cell run
        self.latencies = []        # seconds per cell run
        self.rounds = []           # (traced, cells, wall_s)
        self.failures = []
        self.probes = []           # host probes of the window, seconds
        self.probe_before = []     # per cell run, the index of its probe

    def run(self, cell):
        import workloads
        run_cell = self.cells_mod.run_cell
        start = time.perf_counter()
        try:
            value = run_cell(self.spec_cls(*cell))
        except Exception as exc:   # a failed cell is counted, not fatal
            value = exc
        self.latencies.append(time.perf_counter() - start)
        self.cells.append(workloads.label(cell))
        if isinstance(value, Exception):
            self.failures.append(f"{workloads.label(cell)}: "
                                 f"{type(value).__name__}: {value}")
            return
        reason = check(self.expected, cell, value)
        if reason is not None:
            self.failures.append(reason)


def main(argv=None):
    args = parse_args(argv)
    from probe import probe
    setup_probes = [probe()]
    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    os.environ["REPRO_RESULT_CACHE"] = "1" if args.workload == "compile" \
        else "0"
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    from repro.service import cells as cells_mod
    from repro.service.requests import CellSpec

    tracer = None
    if args.trace:
        from layers import Tracer, install
        tracer = Tracer()
        install(tracer)
    window = Window(load_expected(), cells_mod, CellSpec)
    if args.workload == "execute":
        warmup = workloads.execute_cells()
    else:
        # The program's one-time lazy set-up (toolchains, profiles, the
        # codegen substrate) on programs the window never compiles.
        warmup = [cell for cell in workloads.execute_cells()
                  if cell[0] == "trisolv"]
    for offset in range(0, len(warmup), PROBE_EVERY):
        for cell in warmup[offset:offset + PROBE_EVERY]:
            window.run(cell)
        setup_probes.append(probe())
    if window.failures:
        print(json.dumps({"failures": window.failures}), flush=True)
        return 1
    window.cells.clear()
    window.latencies.clear()
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"setup_probes": setup_probes}), flush=True)
        return 0

    # The window is whole rounds of equal work, so every run does the
    # same mix.  A ``compile`` round runs in a process of its own, so it
    # reuses no code translated for another round.  A trace run of
    # ``execute`` needs an untraced and a traced pass.
    if args.workload == "compile":
        draw = list(workloads.compile_rounds(args.seed))
        rounds = enumerate([draw[args.round]], start=args.round)
        seconds = float("inf")
    else:
        rng = random.Random(f"execute:{args.seed}")
        rounds = enumerate(iter(lambda: workloads.execute_pass(rng), None))
        seconds = args.seconds
    elapsed = 0.0
    for index, cells in rounds:
        if elapsed >= seconds and (index >= 2 or not args.trace):
            break
        traced = bool(args.trace and index % 2)
        if tracer is not None:
            tracer.enabled = traced
        lap = 0.0
        for offset in range(0, len(cells), PROBE_EVERY):
            if not args.trace:
                window.probes.append(probe())
            start = time.perf_counter()
            for cell in cells[offset:offset + PROBE_EVERY]:
                window.probe_before.append(len(window.probes) - 1)
                window.run(cell)
            lap += time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        window.rounds.append((traced, len(cells), lap))
        elapsed += lap
    if not args.trace:
        window.probes.append(probe())

    result = {
        "cells": window.cells,
        "latencies_s": window.latencies,
        "rounds": window.rounds,
        "failures": window.failures,
        "setup_probes": setup_probes,
        "probes": window.probes,
        "probe_before": window.probe_before,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tracer": tracer.summary() if tracer is not None else None,
    }
    if tracer is not None and args.spans:
        tracer.dump(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
