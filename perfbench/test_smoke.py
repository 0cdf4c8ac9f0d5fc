"""Seconds-scale smoke of the benchmark.

Run from the root of a checkout (about three minutes)::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced with a one-second window; each
run checks its outputs against ``expected.json`` and must print every
metric ``BENCHMARK.json`` declares, with its unit.  The remaining tests
pin that a wrong result is reported and that the command refuses to run
without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import direct  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(cwd, *args):
    return subprocess.run([sys.executable, *BENCH["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCH["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_every_drawable_cell_has_a_digest():
    expected = json.loads((ROOT / "perfbench" / "expected.json")
                          .read_text())["cells"]
    assert set(map(workloads.label, workloads.all_cells())) == set(expected)


def test_serve_mixed_cold_requests_run_out_after_cold_rounds():
    rounds = list(workloads.request_rounds("serve-mixed", 1))
    assert len(rounds) == workloads.COLD_ROUNDS
    cold = [payload for requests in rounds for kind, payload in requests
            if kind == "cold"]
    cells = [cell for payload in cold[::2]
             for cell in workloads.payload_cells(payload)]
    assert cold[::2] == cold[1::2]          # each cold request is twinned
    assert len(cells) == len(set(cells))    # and names new cells only
    assert set(cells) <= set(workloads.cold_universe())
    for requests in rounds:
        sizes = [payload["sizes"][0] for kind, payload in requests[::10]]
        profiles = [payload["profiles"][0]
                    for kind, payload in requests[::10]]
        assert abs(sizes.count("XS") - sizes.count("S")) == 1
        assert abs(profiles.count("chrome-desktop")
                   - profiles.count("firefox-desktop")) == 1


def test_probes_scale_to_reference_time():
    assert probe.scale([probe.REFERENCE_S] * 2) == 1.0
    assert probe.scale([probe.REFERENCE_S, 3 * probe.REFERENCE_S]) == 0.5
    assert probe.probe() > 0.0


def test_wrong_result_is_reported():
    cell = workloads.execute_cells()[0]
    expected = {workloads.label(cell): workloads.value_digest({"cycles": 1})}
    assert direct.check(expected, cell, {"cycles": 1}) is None
    assert "digest" in direct.check(expected, cell, {"cycles": 2})
    assert "no expected digest" in direct.check({}, cell, {"cycles": 1})


def test_wrong_stream_is_reported():
    payload = dict(workloads.fill_payload(), benchmarks=["atax"],
                   targets=["wasm"], opt_levels=["O2"])
    (cell,) = workloads.payload_cells(payload)
    spec = dict(zip(("benchmark", "target", "toolchain", "opt_level",
                     "size", "profile", "repetitions"), cell))

    def body(value):
        lines = [{"event": "accepted"},
                 {"event": "result", "cell": spec, "key": "k",
                  "value": value},
                 {"event": "done", "cells": 1, "completed": 1,
                  "failed": 0}]
        return b"\n".join(json.dumps(line, sort_keys=True).encode()
                          for line in lines) + b"\n"

    good = {workloads.label(cell): workloads.value_digest({"cycles": 1})}
    checker = run.Checker(good)
    assert checker.stream(payload, 200, body({"cycles": 1}))
    assert not checker.stream(payload, 200, body({"cycles": 2}))
    assert not checker.stream(payload, 429, b"{}")
    assert len(checker.failures) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "compile", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
