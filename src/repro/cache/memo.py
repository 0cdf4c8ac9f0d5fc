"""Deterministic-result memoization on top of the artifact store.

Every engine in this reproduction is deterministic: running the same
compiled artifact under the same browser profile on the same platform
produces bit-identical :class:`~repro.harness.measurement.Measurement`
objects.  That makes measurements content-addressable exactly like the
artifacts themselves, so a warm cache can skip not just the compiles but
the measurement runs — which is what makes a repeat
``results/run_all.py`` near-instant.

The layer is **opt-in** (``REPRO_RESULT_CACHE=1``): unit tests routinely
monkeypatch collectors and host imports, and a memoized measurement would
silently bypass those seams.  ``results/run_all.py`` and the sweep
service turn it on for themselves; everything else defaults to live
execution.
"""

from __future__ import annotations

import hashlib

from repro.cache.keys import code_fingerprint
from repro.cache.store import get_cache
from repro.obs import DET, env_flag, get_registry

#: Environment variable enabling measurement/result memoization.
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

#: Sentinel distinguishing "no usable entry" from a memoized ``None``.
MISS = object()


def results_enabled():
    return env_flag(RESULT_CACHE_ENV, default=False)


def result_key(kind, parts, replay_metrics=False):
    """Key for one deterministic result: the ``kind`` tag, the caller's
    ``parts`` (stringified), and the package code fingerprint — so editing
    any ``repro`` source invalidates every memoized result.

    ``replay_metrics`` participates in the key: an entry stored by a
    plain caller is a 2-tuple with no metrics blob, so serving it to a
    ``replay_metrics=True`` caller would silently drop the DET counters
    the cold run recorded (and vice versa would replay counters the
    caller replays itself).  Distinct keys keep the two populations
    apart."""
    digest = hashlib.sha256()
    parts = (*parts, "replay-metrics") if replay_metrics else tuple(parts)
    for part in ("repro-result", code_fingerprint(), kind, *parts):
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def _det_diff(reg, snap):
    """DET-only slice of a registry diff: what ``compute`` deterministically
    recorded, with the schedule/wallclock entries stripped."""
    return {section: {name: entry for name, entry in values.items()
                      if entry[0] == DET}
            for section, values in reg.diff(snap).items()}


def _serve(entry, replay_metrics):
    """The memoized value carried by ``entry``, or :data:`MISS` when the
    entry is unusable (corruption, key collision, a shape that does not
    match the caller's ``replay_metrics`` expectation, or a metrics blob
    that does not apply).  ``registry.apply`` validates the whole blob
    before folding any of it in, so a corrupt blob leaves the registry
    untouched and the recompute that follows cannot double-count."""
    if not (isinstance(entry, tuple) and entry and entry[0] == "result"):
        return MISS
    if len(entry) != (3 if replay_metrics else 2):
        return MISS                   # replay-flag/shape mismatch → stale
    if replay_metrics:
        try:
            get_registry().apply(entry[2])
        except Exception:
            return MISS               # corrupt replay blob → stale
    return entry[1]


def lookup(kind, parts, replay_metrics=False):
    """Probe the result cache without computing anything.

    Returns the memoized value, or :data:`MISS` when memoization is
    disabled or no usable entry exists.  A ``replay_metrics=True`` hit
    re-applies the stored DET metrics diff (atomically), exactly as
    :func:`cached_result` would."""
    if not results_enabled():
        return MISS
    entry = get_cache().get(result_key(kind, parts, replay_metrics))
    return _serve(entry, replay_metrics)


def cached_result(kind, parts, compute, replay_metrics=False):
    """Serve ``compute()`` from the cache, keyed on ``(kind, parts)``.

    Only use this for computations that are pure functions of the key;
    ``parts`` must pin down *everything* the result depends on (artifact
    key, profile repr, repetitions, ...).  With ``REPRO_RESULT_CACHE``
    unset this is a transparent pass-through.

    ``replay_metrics=True`` makes the memoization transparent to the
    deterministic metrics slice: the ``det`` registry counters that
    ``compute`` records are stored with the value and re-applied on a
    hit, so a warm run exports the same DET metrics as the cold run that
    populated the entry.  Use it when ``compute`` hides whole compiles or
    measurements from the registry (the real-world app drivers, the sweep
    service's cells); callers that replay their DET counters from the
    returned value (the page runner) must leave it off or they would
    double-count.  The flag is part of the key, so the two caller
    populations never serve each other's entries.

    Failure safety: a ``compute`` that raises memoizes *nothing* — the
    exception propagates and the next attempt (e.g. a scheduler retry of
    the failed cell) recomputes from scratch.  An entry that does not
    look like a memoized result (corruption, or a key collision with a
    foreign artifact), or whose ``replay_metrics`` blob fails to apply
    (truncated write, registry schema drift — ``apply`` rejects it
    before folding anything in), is treated as stale and recomputed over
    rather than failing the sweep.
    """
    if not results_enabled():
        return compute()
    cache = get_cache()
    key = result_key(kind, parts, replay_metrics)
    value = _serve(cache.get(key), replay_metrics)
    if value is not MISS:
        return value
    if replay_metrics:
        reg = get_registry()
        snap = reg.snapshot()
        value = compute()
        entry = ("result", value, _det_diff(reg, snap))
    else:
        entry = ("result", compute())
    cache.put(key, entry)
    return entry[1]
