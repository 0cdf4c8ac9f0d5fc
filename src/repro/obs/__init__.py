"""Unified telemetry layer (metrics, spans, events, profiler).

``repro.obs`` is the observability substrate every other layer may use:
the compiler pipeline, the cache, the three engines, the harness and the
results tooling all report through it.  To keep that fan-in safe the
package is a *leaf*: it imports nothing from ``repro`` outside itself
(stdlib only), enforced by ``tools/check_layering.py``.

The instruments:

* :mod:`repro.obs.metrics` — a process-local registry of counters and
  histograms that is deterministic by construction.  Every
  metric carries a stability tag (``det`` / ``sched`` / ``wall``) saying
  how reproducible its value is; ``det`` metrics are golden-comparable
  across schedules, cache warmth and interpreter tiers.
* :mod:`repro.obs.spans` — the one span primitive: every span feeds
  ``wall``/``sched`` metrics, and under an active trace context it also
  carries deterministic ids and emits a ``span`` event to the JSONL sink
  (:mod:`repro.obs.events`, ``REPRO_EVENTS``).
* :mod:`repro.obs.profile` — the per-function/per-op execution profiler
  the engines drive when ``REPRO_PROFILE=1``; pure integer counts so the
  reference ladders and the codegen tier produce identical profiles.
* :mod:`repro.obs.tracing` — distributed trace context with
  deterministic ids (``REPRO_TRACE=1``), propagated across the worker
  Pipe protocol; its ``span`` events are the one trace format, exported
  to Chrome Trace / Perfetto JSON by ``tools/trace_export.py``.
"""

from repro.obs.envflags import (
    env_flag, env_float, env_int, parse_flag,
)
from repro.obs.events import (
    EVENTS_ENV, add_listener, emit, events_enabled, remove_listener,
)
from repro.obs.metrics import (
    DET, SCHED, WALL, MetricsRegistry, get_registry, render_prometheus,
    reset_registry,
)
from repro.obs.profile import (
    PROFILE_ENV, EngineProfile, new_profile, profile_enabled,
)
from repro.obs.spans import span
from repro.obs.tracing import (
    TRACE_ENV, TraceContext, activate, current, derive_id, emit_span,
    trace_enabled,
)

__all__ = [
    "DET",
    "EVENTS_ENV",
    "EngineProfile",
    "MetricsRegistry",
    "PROFILE_ENV",
    "SCHED",
    "TRACE_ENV",
    "TraceContext",
    "WALL",
    "activate",
    "add_listener",
    "current",
    "derive_id",
    "emit",
    "emit_span",
    "env_flag",
    "env_float",
    "env_int",
    "events_enabled",
    "get_registry",
    "parse_flag",
    "remove_listener",
    "new_profile",
    "profile_enabled",
    "render_prometheus",
    "reset_registry",
    "span",
    "trace_enabled",
]
