#!/usr/bin/env python
"""Interpreter-tier benchmark: reference ladders vs generated Python.

Two layers of measurement, written to ``BENCH_interp.json``:

* **micro** — one hot kernel per engine (Wasm VM, JS engine, native
  machine), identical abstract work under both interpreter tiers:
  ``REPRO_FAST_INTERP=0`` (reference ladders) and the default (basic
  blocks compiled to generated Python).  The engines are deterministic,
  so both tiers must also agree on every cycle/op-count — the run
  asserts that before it times anything.  A full run then gates the
  codegen tier's speedup over the reference ladder per engine
  (``SPEEDUP_FLOOR``, on the ratio of the best times).  Each round
  times both tiers back to back; its own reference-over-codegen ratio
  is recorded (``round_speedups``) and their median and range printed,
  so the spread of the ratio is on record beside the best-of one.
* **sweep** — a cold (result-memoizer off, compile cache warm) pass of
  the golden quick-sweep slice (``table2_summary`` over the tier-1
  benchmark subset), timed under both knob settings.

Usage::

    PYTHONPATH=src python tools/bench.py           # full run, writes JSON
    PYTHONPATH=src python tools/bench.py --smoke   # seconds-scale check,
                                                   # no file written

``--smoke`` runs the micro kernels at a reduced iteration count and only
gates the cross-tier stats-equality check; tier-1 CI exercises it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))     # tests.golden_config for the sweep slice

# Measurements must be live, never memoized.
os.environ["REPRO_RESULT_CACHE"] = "0"

#: The two tiers, cheapest-dispatch last (see ``engine/codegen.py``).
TIERS = ("reference", "codegen")

#: Minimum codegen-over-reference speedup per micro kernel in a full run.
#: Three times the prepare-once closure tier's committed speedups
#: (wasm 4.204x, js 1.57x, native 15.298x), the floor the former
#: "codegen >= 3x over that tier" gate implied.
SPEEDUP_FLOOR = {"wasm": 12.6, "js": 4.7, "native": 45.9}

MICRO_C = """
double buf[1024];
int main() {
  double acc = 0.0;
  int checksum = 0;
  for (int i = 0; i < 1024; i++) buf[i] = i * 0.5;
  for (int rep = 0; rep < %(reps)d; rep++) {
    for (int i = 0; i < 1024; i++) {
      acc = acc + buf[i] * 1.0000001 - (double)(i & 7);
      checksum = (checksum ^ (i << 3)) + ((checksum >> 5) & 1023);
    }
  }
  printf("%%d", checksum + (int)(acc / 1048576.0));
  return 0;
}
"""


def _micro_sources(reps):
    return MICRO_C % {"reps": reps}


def _set_tier(tier):
    os.environ["REPRO_FAST_INTERP"] = "0" if tier == "reference" else "1"


def _time_best(fn, repeats):
    """Best-of-N wall time (seconds) plus the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def _wasm_runner(reps):
    from repro.backends import generate_wasm
    from repro.cfront import parse_c, preprocess
    from repro.engine.hostlib import wasm_host_imports
    from repro.wasm import WasmVM, validate_module

    module = generate_wasm(parse_c(preprocess(_micro_sources(reps))))
    validate_module(module)

    def run():
        output = []
        vm = WasmVM()
        inst = vm.instantiate(module, wasm_host_imports(output, None))
        inst.invoke("main")
        return output, inst.stats.cycles, inst.stats.instructions, \
            tuple(inst.stats.op_counts)
    return run


def _js_runner(reps):
    from repro.backends import generate_js
    from repro.cfront import parse_c, preprocess
    from repro.engine.hostlib import install_js_host
    from repro.jsengine import JsEngine

    source = generate_js(parse_c(preprocess(_micro_sources(reps))))

    def run():
        output = []
        engine = JsEngine()
        install_js_host(engine, output)
        engine.load_script(source)
        engine.call_global("main")
        return output, engine.stats.cycles, engine.stats.instructions, \
            tuple(engine.stats.op_counts), engine.stats.gc_runs
    return run


def _native_runner(reps):
    from repro.backends import generate_x86
    from repro.cfront import parse_c, preprocess
    from repro.native import execute_program

    program = generate_x86(parse_c(preprocess(_micro_sources(reps))))

    def run():
        result, stats = execute_program(program, "main")
        return result, stats.prints, stats.cycles, stats.instructions, \
            tuple(stats.op_counts)
    return run


def micro_bench(reps, repeats):
    """Time each engine's micro kernel under both tiers; assert that the
    observable stats are identical before trusting the timing."""
    runners = {
        "wasm": _wasm_runner,
        "js": _js_runner,
        "native": _native_runner,
    }
    out = {}
    for name, make in runners.items():
        runner = make(reps)
        _set_tier("codegen")
        runner()                  # translate + compile outside the clock
        seconds = {tier: float("inf") for tier in TIERS}
        observed = {}
        ratios = []
        # The host's effective CPU speed drifts over a run; timing every
        # tier inside each round (instead of tier-by-tier) keeps the
        # speedup ratios honest under that drift.
        for _ in range(repeats):
            took = {}
            for tier in TIERS:
                _set_tier(tier)
                t0 = time.perf_counter()
                observed[tier] = runner()
                took[tier] = time.perf_counter() - t0
                seconds[tier] = min(seconds[tier], took[tier])
            ratios.append(took["reference"] / took["codegen"])
        if observed["codegen"] != observed["reference"]:
            raise SystemExit(
                f"bench: {name} tiers disagree on observable stats:\n"
                f"  reference: {observed['reference']}\n"
                f"  codegen: {observed['codegen']}")
        out[name] = {
            "reference_s": round(seconds["reference"], 6),
            "codegen_s": round(seconds["codegen"], 6),
            "codegen_speedup": round(
                seconds["reference"] / seconds["codegen"], 3),
            "round_speedups": [round(r, 3) for r in ratios],
            "stats_identical": True,
        }
        print(f"micro/{name}: ref {seconds['reference']:.3f}s  "
              f"codegen {seconds['codegen']:.3f}s  "
              f"({out[name]['codegen_speedup']:.2f}x; per round median "
              f"{statistics.median(ratios):.2f}x, range "
              f"{min(ratios):.2f}-{max(ratios):.2f}x)", flush=True)
    return out


def sweep_bench():
    """Cold quick-sweep (golden tier-1 slice) under both tiers.

    The compile cache is warmed by a throwaway pass first so the timed
    passes measure execution, not C-frontend work."""
    from repro.experiments import table2_summary
    from tests.golden_config import OPT_SET, _context

    def run_sweep():
        return table2_summary(_context(OPT_SET))

    seconds = {}
    texts = {}
    _set_tier("codegen")
    run_sweep()                       # warm the compile + codegen caches
    for tier in TIERS:
        _set_tier(tier)
        seconds[tier], result = _time_best(run_sweep, 1)
        texts[tier] = result["text"]
    if len(set(texts.values())) != 1:
        raise SystemExit("bench: sweep outputs differ between tiers")
    print(f"sweep: ref {seconds['reference']:.3f}s  "
          f"codegen {seconds['codegen']:.3f}s", flush=True)
    return {
        "slice": "table2_summary/" + ",".join(OPT_SET),
        "reference_s": round(seconds["reference"], 3),
        "codegen_s": round(seconds["codegen"], 3),
        "codegen_speedup": round(
            seconds["reference"] / seconds["codegen"], 3),
        "outputs_identical": True,
    }


def _interp_metrics():
    """Snapshot of the ``interp.*`` registry counters accumulated by the
    benchmark's codegen-tier runs."""
    from repro.obs import SCHED, get_registry
    return {name: value
            for name, value in get_registry().export([SCHED]).items()
            if name.startswith("interp.")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="fast cross-tier stats-equality gate; "
                             "does not write BENCH_interp.json")
    parser.add_argument("--out", default=str(ROOT / "BENCH_interp.json"))
    args = parser.parse_args(argv)

    if args.smoke:
        micro = micro_bench(reps=30, repeats=1)
        slowest = min(e["codegen_speedup"] for e in micro.values())
        print(f"smoke ok: both tiers stats-identical; "
              f"min codegen speedup {slowest}x")
        return 0

    micro = micro_bench(reps=400, repeats=3)
    short = {name: entry["codegen_speedup"] for name, entry in micro.items()
             if entry["codegen_speedup"] < SPEEDUP_FLOOR[name]}
    if short:
        raise SystemExit(
            f"bench: codegen tier below its speedup floor over the "
            f"reference ladder {SPEEDUP_FLOOR}; measured {short}")
    sweep = sweep_bench()
    payload = {
        "description": "REPRO_FAST_INTERP=0 (reference ladders) vs "
                       "default (generated Python); identical observable "
                       "stats asserted before timing",
        "speedup_floor": SPEEDUP_FLOOR,
        "python": sys.version.split()[0],
        "micro": micro,
        "sweep": sweep,
        # Codegen translation counters from the metrics registry:
        # per-engine translated functions/blocks, loops, declines, and
        # compile-cache hits/misses.
        "interp_metrics": _interp_metrics(),
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
