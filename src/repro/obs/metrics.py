"""Deterministic metrics registry: counters and histograms.

Determinism is structural, not aspirational:

* **Counters** accumulate integers on an ``int`` fast path and floats as
  an exact scaled integer: every finite double is a whole multiple of
  2**-1074 (the smallest subnormal), so the float part is kept as an
  ``int`` count of those units.  Integer addition is associative *and*
  commutative with no rounding, so a counter's final value is
  independent of the order (and process grouping) in which the
  increments happened — the one division at export time is correctly
  rounded.  Serial and parallel sweeps therefore export byte-identical
  values.  Non-float increments must be dyadic rationals no finer than
  that unit (the exact :class:`fractions.Fraction` cycle totals of
  ``repro.engine.profdecode`` are); anything else raises
  ``ValueError`` rather than being rounded.
* **Histograms** are integer bucket counts over bounds fixed when the
  histogram is first observed.

Every metric carries a *stability* tag:

* ``det``   — deterministic counts/cycles; golden-comparable across
  schedules, cache warmth and interpreter tiers.
* ``sched`` — depends on cache warmth or scheduling (cache hits,
  retries, translation counts); reproducible only for a fixed schedule.
* ``wall``  — wallclock; never compared.

A name's stability is fixed at first use; re-registering it with a
different tag raises, so a metric cannot silently drift out of the
parity-checked set.

Worker processes ship their increments home as :meth:`diff` payloads
(plain ints and tuples, so they pickle exactly) which the parent folds
in with :meth:`apply` — see ``repro.harness.parallel``.  ``apply`` is
atomic: it validates the whole payload before folding any of it in.
One lock covers recording, snapshot/diff/apply and export: a server's
event loop counts requests while its pool thread merges cell metrics.
"""

from __future__ import annotations

import contextlib
import os
import threading
from bisect import bisect_right

DET = "det"
SCHED = "sched"
WALL = "wall"

_STABILITIES = (DET, SCHED, WALL)

#: Default histogram bucket upper bounds (powers of two, ms/count scale).
DEFAULT_BOUNDS = tuple(2 ** i for i in range(0, 21))

#: Float parts of counters are ``int`` multiples of ``2 ** -FRAC_BITS``:
#: 1074 is the exponent of the smallest subnormal double, so every finite
#: float is exactly representable.
FRAC_BITS = 1074
_FRAC_ONE = 1 << FRAC_BITS


def scaled(value):
    """``value`` as an exact ``int`` count of ``2 ** -FRAC_BITS`` units.

    Accepts anything with ``as_integer_ratio`` (floats, ``Fraction``)
    whose value is a dyadic rational no finer than the unit; raises
    ``ValueError`` for any other rational instead of rounding it (and
    ``OverflowError``/``ValueError`` for infinities and NaN)."""
    num, den = value.as_integer_ratio()
    shift = den.bit_length() - 1
    if den != 1 << shift or shift > FRAC_BITS:
        raise ValueError(
            f"counter increment {value!r} is not a multiple of "
            f"2**-{FRAC_BITS}")
    return num << (FRAC_BITS - shift)


class Counter:
    """Monotonic sum with exact float accumulation: ``ints`` holds the
    integer increments, ``frac`` the float ones in ``2 ** -FRAC_BITS``
    units (see :func:`scaled`)."""

    __slots__ = ("ints", "frac")

    def __init__(self, ints=0, frac=0):
        self.ints = ints
        self.frac = frac

    def add(self, value):
        if isinstance(value, int):
            self.ints += value
        else:
            self.frac += scaled(value)

    @property
    def value(self):
        """Plain number: int when no float was ever added, else the
        correctly-rounded float of the exact sum."""
        if not self.frac:
            return self.ints
        return ((self.ints << FRAC_BITS) + self.frac) / _FRAC_ONE


class Histogram:
    """Integer bucket counts over fixed upper bounds (last bucket is
    overflow)."""

    __slots__ = ("bounds", "counts")

    def __init__(self, bounds=DEFAULT_BOUNDS, counts=None):
        self.bounds = tuple(bounds)
        self.counts = list(counts) if counts is not None \
            else [0] * (len(self.bounds) + 1)

    def observe(self, value, n=1):
        self.counts[bisect_right(self.bounds, value)] += n

    @property
    def value(self):
        return {"bounds": list(self.bounds), "counts": list(self.counts)}


class MetricsRegistry:
    """Name -> instrument, with a stability tag per name."""

    def __init__(self):
        self._counters = {}
        self._hists = {}
        self._stability = {}
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------

    def _check_tag(self, name, stability, pending):
        """Raise unless ``name`` may carry ``stability``; a name neither
        registered nor in ``pending`` is added to ``pending``."""
        prev = self._stability.get(name) or pending.get(name)
        if prev is None:
            if stability not in _STABILITIES:
                raise ValueError(f"unknown stability {stability!r}")
            pending[name] = stability
        elif prev != stability:
            raise ValueError(
                f"metric {name!r} already registered as {prev!r}, "
                f"refusing {stability!r}")

    def _tag(self, name, stability):
        if self._stability.get(name) != stability:
            pending = {}
            self._check_tag(name, stability, pending)
            self._stability.update(pending)

    # -- recording -------------------------------------------------------

    def counter_add(self, name, value, stability=DET):
        with self._lock:
            self._tag(name, stability)
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            counter.add(value)

    def hist_observe(self, name, value, stability=DET,
                     bounds=DEFAULT_BOUNDS):
        with self._lock:
            self._tag(name, stability)
            hist = self._hists.get(name)
            if hist is None:
                hist = self._hists[name] = Histogram(bounds)
            hist.observe(value)

    # -- snapshot / diff / merge ----------------------------------------

    def snapshot(self):
        """Opaque copy of the full state (pair with :meth:`diff`)."""
        with self._lock:
            return (
                {n: (c.ints, c.frac) for n, c in self._counters.items()},
                {n: (h.bounds, list(h.counts))
                 for n, h in self._hists.items()},
            )

    def diff(self, snap):
        """Pickleable increment relative to ``snap`` — everything added
        since the snapshot was taken, mergeable with :meth:`apply`."""
        counters, hists = snap
        with self._lock:
            dcounters = {}
            for name, c in self._counters.items():
                base = counters.get(name)
                base_i, base_f = base if base is not None else (0, 0)
                di, df = c.ints - base_i, c.frac - base_f
                # A newly registered counter ships even at zero delta: a
                # zero-valued counter (e.g. a pass that ran but rewrote
                # nothing) must appear in the merged export exactly as it
                # would after a serial run.
                if di or df or base is None:
                    dcounters[name] = (self._stability[name], di, df)
            dhists = {}
            for name, h in self._hists.items():
                base = hists.get(name, (h.bounds, [0] * len(h.counts)))[1]
                delta = [a - b for a, b in zip(h.counts, base)]
                if any(delta):
                    dhists[name] = (self._stability[name], h.bounds, delta)
            return {"counters": dcounters, "hists": dhists}

    def apply(self, payload):
        """Fold a :meth:`diff` payload in.  Counter and bucket addition
        is exact, so application order does not matter.

        Atomic: every entry's stability tag, shape and delta types
        (``int`` counter and bucket deltas) are checked before anything is folded, so a truncated or
        schema-drifted payload raises ``ValueError`` (or the
        ``TypeError``/``KeyError`` of a malformed container) and leaves
        the registry untouched.  Only entries that change something are
        then folded in: zero counter deltas touch nothing beyond
        registering a name the registry has not seen yet."""
        with self._lock:
            known = self._stability
            tags = {}                 # names this payload registers
            counters = payload["counters"]
            for name, (stability, di, df) in counters.items():
                if known.get(name) != stability:
                    self._check_tag(name, stability, tags)
                if type(di) is not int or type(df) is not int:
                    raise ValueError(f"counter {name!r} delta is not int")
            hists = payload["hists"]
            for name, (stability, bounds, delta) in hists.items():
                self._check_tag(name, stability, tags)
                hist = self._hists.get(name)
                width = len(hist.counts) if hist is not None \
                    else len(bounds) + 1
                if len(delta) != width or \
                        any(type(d) is not int for d in delta):
                    raise ValueError(f"histogram {name!r} delta is malformed")

            known.update(tags)
            for name, (_, di, df) in counters.items():
                counter = self._counters.get(name)
                if counter is None:
                    self._counters[name] = Counter(di, df)
                    continue
                if di:
                    counter.ints += di
                if df:
                    counter.frac += df
            for name, (_, bounds, delta) in hists.items():
                hist = self._hists.get(name)
                if hist is None:
                    hist = self._hists[name] = Histogram(bounds)
                for i, d in enumerate(delta):
                    hist.counts[i] += d
            return self

    # -- export ----------------------------------------------------------

    def stability(self, name):
        return self._stability.get(name)

    def export(self, stabilities=None):
        """Plain sorted ``{name: value}`` dict, optionally filtered to a
        set of stability tags (JSON-clean)."""
        if stabilities is not None:
            stabilities = frozenset(stabilities)
        out = {}
        with self._lock:
            for name in sorted(self._stability):
                if stabilities is not None and \
                        self._stability[name] not in stabilities:
                    continue
                if name in self._counters:
                    out[name] = self._counters[name].value
                elif name in self._hists:
                    out[name] = self._hists[name].value
        return out

    def reset(self):
        with self._lock:
            self._counters.clear()
            self._hists.clear()
            self._stability.clear()


def _prom_name(name):
    """Metric name to Prometheus spelling: ``repro_`` prefix, separators
    flattened to underscores."""
    safe = "".join(ch if ch.isalnum() else "_" for ch in name)
    return "repro_" + safe


def render_prometheus(registry, extra_gauges=None):
    """Prometheus text exposition (v0.0.4) of one registry.

    Counters export as ``counter`` samples, histograms as cumulative
    ``le`` buckets plus a ``_count`` total.  Every sample carries its
    stability tag (``det``/``sched``/``wall``) as a label, so scrapers
    can select the deterministic slice the same way the parity tests
    do.  ``extra_gauges`` — ``{name: value}`` or
    ``{name: (value, {label: v})}`` — lets front ends append
    operational numbers (store stats, outstanding cells) that live
    outside the registry."""
    lines = []

    def sample(name, labels, value):
        if isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        rendered = ",".join(f'{k}="{v}"' for k, v in labels.items())
        lines.append(f"{name}{{{rendered}}} {text}" if rendered
                     else f"{name} {text}")

    with registry._lock:
        for name in sorted(registry._stability):
            stability = registry._stability[name]
            prom = _prom_name(name)
            labels = {"stability": stability}
            if name in registry._counters:
                lines.append(f"# TYPE {prom} counter")
                sample(prom, labels, registry._counters[name].value)
            elif name in registry._hists:
                hist = registry._hists[name]
                lines.append(f"# TYPE {prom} histogram")
                cumulative = 0
                for bound, count in zip(hist.bounds, hist.counts):
                    cumulative += count
                    sample(prom + "_bucket", {**labels, "le": str(bound)},
                           cumulative)
                cumulative += hist.counts[-1]
                sample(prom + "_bucket", {**labels, "le": "+Inf"}, cumulative)
                sample(prom + "_count", labels, cumulative)
    for name, value in sorted((extra_gauges or {}).items()):
        labels = {}
        if isinstance(value, tuple):
            value, labels = value
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        sample(prom, labels, value)
    return "\n".join(lines) + "\n"


_REGISTRY = MetricsRegistry()
# A process forked while another thread held the lock gets a fresh one.
os.register_at_fork(
    after_in_child=lambda: setattr(_REGISTRY, "_lock", threading.Lock()))
_recording = threading.local()


def get_registry():
    """The registry this thread records into: the process-global one, or
    the one of an open :func:`recording_into`."""
    return getattr(_recording, "registry", None) or _REGISTRY


@contextlib.contextmanager
def recording_into(registry):
    """Make ``registry`` this thread's :func:`get_registry` for the
    ``with`` body (a sweep attempt's scratch registry)."""
    outer = getattr(_recording, "registry", None)
    _recording.registry = registry
    try:
        yield registry
    finally:
        _recording.registry = outer


def reset_registry():
    _REGISTRY.reset()
    return _REGISTRY
