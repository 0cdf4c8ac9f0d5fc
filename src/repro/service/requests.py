"""Experiment-request validation and canonicalization into sweep cells.

A service request describes a slice of the paper's measurement matrix as
a cross product: *benchmarks × targets × toolchains × opt levels × input
sizes × engine profiles*, at a fixed repetition count.  Canonicalization
turns that product into a sorted, deduplicated tuple of
:class:`CellSpec` values — the unit the job engine dedupes, caches and
schedules.  Two requests describing the same slice in different spellings
(scalar vs one-element list, unsorted benchmark names, an explicit
default) canonicalize to the *same* cells and therefore the same cache
keys, which is what makes cross-client deduplication work.

Request payload (JSON object; scalars are promoted to one-element lists):

``benchmarks``
    explicit benchmark names, and/or ``suite`` — one of ``all`` /
    ``polybench`` / ``chstone`` / ``quick`` (the CI subset).  Default,
    when neither is given: ``quick``.
``targets``
    execution targets, from ``wasm`` / ``js`` / ``x86``  (default
    ``wasm``).
``toolchains``
    compilers, from ``cheerp`` / ``emscripten`` / ``llvm-x86``.  Default:
    each target's canonical compiler.  Invalid (target, toolchain) pairs
    in the product are skipped; a request whose product is empty is an
    error.
``opt_levels``
    from the toolchains' shared level set (default ``O2``).
``sizes``
    input-size classes, validated per benchmark (default ``M``).
``profiles``
    browser engine profiles (default ``chrome-desktop``).
``repetitions``
    1..10 (default 2).
``client``
    opaque client id for per-client budgets (default ``anonymous``).
``progress``
    stream per-cell scheduler progress events too (default off).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import result_key
from repro.compilers.base import OPT_LEVELS
from repro.suites import all_benchmarks

#: The memoization namespace shared by the service and ``run_all.py
#: --cells``: one cell result, DET metrics replayed on warm hits.
MEMO_KIND = "service-cell"

TARGETS = ("wasm", "js", "x86")

#: Which compilers can produce which target.
TOOLCHAINS_BY_TARGET = {
    "wasm": ("cheerp", "emscripten"),
    "js": ("cheerp",),
    "x86": ("llvm-x86",),
}

#: Each target's canonical compiler, used when the request names none.
DEFAULT_TOOLCHAIN = {"wasm": "cheerp", "js": "cheerp", "x86": "llvm-x86"}

SUITES = ("all", "polybench", "chstone", "quick")

#: Engine profile names the cell runner can resolve (repro.env factories).
PROFILE_NAMES = (
    "chrome-desktop", "firefox-desktop", "edge-desktop",
    "chrome-mobile", "firefox-mobile", "edge-mobile",
)

MAX_REPETITIONS = 10

#: Hard cap on one request's cross product, enforced before admission
#: control so a hostile request cannot balloon server memory.
MAX_REQUEST_CELLS = 4096


class RequestError(ValueError):
    """A malformed or unsatisfiable experiment request (HTTP 400)."""


@dataclass(frozen=True, order=True)
class CellSpec:
    """One fully-pinned sweep cell.

    The field order defines the canonical cell ordering (and therefore
    the order result lines stream in); every field participates in the
    cache key, so two specs are interchangeable iff they are equal."""

    benchmark: str
    target: str
    toolchain: str
    opt_level: str
    size: str
    profile: str
    repetitions: int
    _key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The key is a sha256 over the parts and the code fingerprint;
        # admission, dedupe, settling and streaming all need it, so it
        # is derived once per spec.
        object.__setattr__(self, "_key", result_key(
            MEMO_KIND, self.key_parts(), replay_metrics=True))

    def key_parts(self):
        return (self.benchmark, self.target, self.toolchain,
                self.opt_level, self.size, self.profile,
                str(self.repetitions))

    def cell_key(self):
        """Content-addressed result key (includes the package code
        fingerprint via :func:`repro.cache.result_key`)."""
        return self._key

    def label(self):
        """Human-readable scheduler label (failure reports, fault
        injection, progress events)."""
        return "|".join(self.key_parts())

    def as_dict(self):
        return {"benchmark": self.benchmark, "target": self.target,
                "toolchain": self.toolchain, "opt_level": self.opt_level,
                "size": self.size, "profile": self.profile,
                "repetitions": self.repetitions}

    def as_tuple(self):
        return (self.benchmark, self.target, self.toolchain,
                self.opt_level, self.size, self.profile, self.repetitions)

    @classmethod
    def from_tuple(cls, parts):
        return cls(*parts)


@dataclass(frozen=True)
class SweepRequest:
    """A canonicalized request: sorted unique cells plus client info."""

    cells: tuple
    client: str
    progress: bool

    @property
    def cell_count(self):
        return len(self.cells)


def _as_list(payload, key, default):
    """A request field as a non-empty list of strings; scalars promote."""
    value = payload.get(key, default)
    if isinstance(value, (str, int)):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value:
        raise RequestError(f"{key!r} must be a value or non-empty list")
    return [str(item) for item in value]


def _benchmarks(payload):
    by_name = {b.name: b for b in all_benchmarks()}
    names = []
    if "suite" in payload:
        suite = str(payload["suite"]).strip().lower()
        if suite not in SUITES:
            raise RequestError(
                f"unknown suite {suite!r}: expected one of {SUITES}")
        if suite == "quick":
            from repro.experiments.common import QUICK_SET
            names.extend(n for n in by_name if n in QUICK_SET)
        elif suite == "all":
            names.extend(by_name)
        else:
            wanted = "PolyBenchC" if suite == "polybench" else "CHStone"
            names.extend(n for n, b in by_name.items() if b.suite == wanted)
    if "benchmarks" in payload:
        for name in _as_list(payload, "benchmarks", None):
            if name not in by_name:
                raise RequestError(f"unknown benchmark {name!r}")
            names.append(name)
    if not names:
        from repro.experiments.common import QUICK_SET
        names.extend(n for n in by_name if n in QUICK_SET)
    return [by_name[name] for name in dict.fromkeys(names)]


def canonicalize_request(payload):
    """Validate one request payload and expand it into a
    :class:`SweepRequest` of sorted, deduplicated cells.

    Raises :class:`RequestError` on anything malformed; never touches
    the cache or scheduler."""
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    benchmarks = _benchmarks(payload)
    targets = _as_list(payload, "targets", ["wasm"])
    for target in targets:
        if target not in TARGETS:
            raise RequestError(
                f"unknown target {target!r}: expected one of {TARGETS}")
    toolchains = _as_list(payload, "toolchains", None) \
        if "toolchains" in payload else None
    if toolchains is not None:
        known = sorted({tc for tcs in TOOLCHAINS_BY_TARGET.values()
                        for tc in tcs})
        for toolchain in toolchains:
            if toolchain not in known:
                raise RequestError(f"unknown toolchain {toolchain!r}: "
                                   f"expected one of {tuple(known)}")
    opt_levels = _as_list(payload, "opt_levels", ["O2"])
    for level in opt_levels:
        if level not in OPT_LEVELS:
            raise RequestError(f"unknown opt level {level!r}: expected "
                               f"one of {OPT_LEVELS}")
    sizes = _as_list(payload, "sizes", ["M"])
    profiles = _as_list(payload, "profiles", ["chrome-desktop"])
    for profile in profiles:
        if profile not in PROFILE_NAMES:
            raise RequestError(f"unknown profile {profile!r}: expected "
                               f"one of {PROFILE_NAMES}")
    repetitions = payload.get("repetitions", 2)
    if not isinstance(repetitions, int) or isinstance(repetitions, bool) \
            or not 1 <= repetitions <= MAX_REPETITIONS:
        raise RequestError(
            f"repetitions must be an integer in 1..{MAX_REPETITIONS}")
    client = str(payload.get("client", "anonymous")) or "anonymous"
    progress = bool(payload.get("progress", False))

    cells = set()
    for benchmark in benchmarks:
        for size in sizes:
            if size not in benchmark.sizes:
                raise RequestError(
                    f"benchmark {benchmark.name!r} has no size {size!r} "
                    f"(has {tuple(sorted(benchmark.sizes))})")
            for target in targets:
                pair_toolchains = toolchains if toolchains is not None \
                    else [DEFAULT_TOOLCHAIN[target]]
                for toolchain in pair_toolchains:
                    if toolchain not in TOOLCHAINS_BY_TARGET[target]:
                        continue      # invalid pair in the product
                    for level in opt_levels:
                        for profile in profiles:
                            cells.add(CellSpec(
                                benchmark=benchmark.name, target=target,
                                toolchain=toolchain, opt_level=level,
                                size=size, profile=profile,
                                repetitions=repetitions))
    if not cells:
        raise RequestError("request selects no valid (target, toolchain) "
                           "cells")
    if len(cells) > MAX_REQUEST_CELLS:
        raise RequestError(f"request expands to {len(cells)} cells, over "
                           f"the per-request cap of {MAX_REQUEST_CELLS}")
    return SweepRequest(cells=tuple(sorted(cells)), client=client,
                        progress=progress)
