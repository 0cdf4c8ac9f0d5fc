"""Persistent content-addressed artifact cache (see DESIGN.md).

Every toolchain facade routes its ``compile_*`` entry points through the
process-global :class:`ArtifactCache` (:func:`get_cache`): a key derived
from the preprocessed source, defines, opt level, toolchain
configuration, and pass pipeline addresses a pickled artifact under
``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``; disable the disk
layer with ``REPRO_CACHE=0``).  Repeat runs of the whole experiment
apparatus then skip the frontend → IR-pass → backend pipeline entirely.
The same store holds memoized results (:mod:`repro.cache.memo`) and the
codegen tier's translation units (:mod:`repro.engine.codegen`).
"""

from repro.cache.keys import cache_key, code_fingerprint
from repro.cache.memo import (
    MISS,
    RESULT_CACHE_ENV,
    cached_result,
    lookup,
    result_key,
    results_enabled,
)
from repro.cache.store import (
    ArtifactCache,
    CACHE_DIR_ENV,
    CACHE_ENV,
    CACHE_MEM_ENV,
    CACHE_VERSION,
    configure,
    default_cache_root,
    get_cache,
    memory_cap_from_env,
)

__all__ = [
    "ArtifactCache",
    "CACHE_DIR_ENV",
    "CACHE_ENV",
    "CACHE_MEM_ENV",
    "CACHE_VERSION",
    "MISS",
    "RESULT_CACHE_ENV",
    "cache_key",
    "cached_result",
    "code_fingerprint",
    "configure",
    "default_cache_root",
    "get_cache",
    "lookup",
    "memory_cap_from_env",
    "result_key",
    "results_enabled",
]
