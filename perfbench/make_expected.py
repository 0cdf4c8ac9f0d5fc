"""Regenerate ``expected.json``: the digest of every cell any workload
can draw, for any seed.

Run from the root of a checkout whose modeled results are the reference
(every cell is computed live, result memo off, on two processes)::

    python3 perfbench/make_expected.py

A change that moves the modeled results on purpose regenerates this
file in the same change; otherwise the benchmark reports the change as
incorrect output.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402


def digest(cell):
    from repro.service.cells import compute_cell
    from repro.service.requests import CellSpec
    return workloads.label(cell), \
        workloads.value_digest(compute_cell(CellSpec(*cell)))


def main():
    cells = workloads.all_cells()
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        os.environ["REPRO_RESULT_CACHE"] = "0"
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            table = dict(pool.map(digest, cells, chunksize=8))
    payload = {"digest": "sha256 of the cell's result value as sorted-key "
                         "JSON, first 16 hex digits",
               "cells": dict(sorted(table.items()))}
    with open(os.path.join(HERE, "expected.json"), "w",
              encoding="utf-8") as out:
        json.dump(payload, out, indent=0, sort_keys=True)
        out.write("\n")
    print(f"wrote {len(table)} cell digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
