"""Benchmark-as-a-service: an asyncio sweep server over the harness.

The service turns the batch measurement pipeline into a long-lived,
request-driven one: clients POST experiment-matrix slices, the server
canonicalizes them into cells, dedupes against in-flight work and the
content-addressed result cache, sweeps each request's misses on the
process's worker pool, and streams per-cell JSONL results that are
byte-identical to a direct ``results/run_all.py --cells`` run of the
same cells.

Layering: ``repro.service`` sits at the top of the stack (it may import
anything in ``repro``); nothing else in ``repro`` may import it.  See
``tools/check_layering.py``.
"""

from repro.service.cells import (
    compute_cell,
    direct_lines,
    failure_line,
    profile_for,
    result_line,
    run_cell,
    run_cell_task,
)
from repro.service.client import (
    ServiceError,
    get_json,
    get_text,
    post_shutdown,
    request_lines,
    request_sweep,
)
from repro.service.jobs import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_CELLS,
    SERVICE_BUDGET_ENV,
    SERVICE_MAX_CELLS_ENV,
    AdmissionError,
    SweepJob,
    SweepService,
)
from repro.service.requests import (
    MAX_REPETITIONS,
    MAX_REQUEST_CELLS,
    MEMO_KIND,
    PROFILE_NAMES,
    SUITES,
    TARGETS,
    TOOLCHAINS_BY_TARGET,
    CellSpec,
    RequestError,
    SweepRequest,
    canonicalize_request,
)
from repro.service.server import (
    SERVICE_HOST_ENV,
    SERVICE_PORT_ENV,
    SweepServer,
    run_server,
)

__all__ = [
    "AdmissionError",
    "CellSpec",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_CELLS",
    "MAX_REPETITIONS",
    "MAX_REQUEST_CELLS",
    "MEMO_KIND",
    "PROFILE_NAMES",
    "RequestError",
    "SERVICE_BUDGET_ENV",
    "SERVICE_HOST_ENV",
    "SERVICE_MAX_CELLS_ENV",
    "SERVICE_PORT_ENV",
    "SUITES",
    "ServiceError",
    "SweepJob",
    "SweepRequest",
    "SweepServer",
    "SweepService",
    "TARGETS",
    "TOOLCHAINS_BY_TARGET",
    "canonicalize_request",
    "compute_cell",
    "direct_lines",
    "failure_line",
    "get_json",
    "get_text",
    "post_shutdown",
    "profile_for",
    "request_lines",
    "request_sweep",
    "result_line",
    "run_cell",
    "run_cell_task",
    "run_server",
]
