"""Warm re-runs re-derive nothing.

Within one process the second run of an already-compiled cell parses,
compiles, prepares and plans nothing: the C preprocessor's expansion,
the JS script template, the prepared Wasm bodies and each translator's
plan are memoized (``repro/cache/derived.py``).  It still returns the
cold run's value, DET metric slice and engine profiles.  Engines that
share one memoized JS template keep their own tiering state.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.cache import configure
from repro.engine import codegen as substrate
from repro.obs import DET, get_registry, reset_registry

CELLS = (
    ("trisolv", "js", "cheerp", "O2", "XS", "chrome-desktop", 1),
    ("trisolv", "wasm", "cheerp", "O2", "XS", "chrome-desktop", 1),
    ("trisolv", "x86", "llvm-x86", "O2", "XS", "chrome-desktop", 1),
)

#: ``(module, attribute)`` of every derivation a warm run must skip: the
#: uncached work behind each memo, where its caller looks it up.
DERIVATIONS = (
    ("repro.cfront.preproc", "_expand"),
    ("repro.jsengine.engine", "parse_js"),
    ("repro.jsengine.engine", "compile_program"),
    ("repro.wasm.vm", "_prepare_body"),
    ("repro.wasm.codegen", "block_ranges"),
    ("repro.wasm.codegen", "_analyse"),
    ("repro.jsengine.codegen", "block_ranges"),
    ("repro.jsengine.codegen", "_analyse"),
    ("repro.native.codegen", "block_ranges"),
)

#: Derivations the cold run of each target must make (after
#: ``reset_cache``), on the codegen tier; the reference ladder plans
#: nothing.
COLD = {
    "js": {"repro.cfront.preproc._expand", "repro.jsengine.engine.parse_js",
           "repro.jsengine.engine.compile_program",
           "repro.jsengine.codegen.block_ranges",
           "repro.jsengine.codegen._analyse"},
    "wasm": {"repro.cfront.preproc._expand", "repro.wasm.vm._prepare_body",
             "repro.wasm.codegen.block_ranges", "repro.wasm.codegen._analyse"},
    "x86": {"repro.cfront.preproc._expand",
            "repro.native.codegen.block_ranges"},
}

ENGINE_MODULES = ("repro.jsengine.engine", "repro.wasm.vm",
                  "repro.native.machine")


@pytest.fixture()
def isolated(tmp_path):
    """Fresh caches and memos in ``tmp_path``, live measurement, profiling
    on; the default (env-derived) caches are restored afterwards."""
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_CACHE_DIR", str(tmp_path))
        env.setenv("REPRO_RESULT_CACHE", "0")
        env.setenv("REPRO_PROFILE", "1")
        configure(root=str(tmp_path), disk=True)
        substrate.reset_cache()
        reset_registry()
        yield
        substrate.reset_cache()
        reset_registry()
    configure()


def _count_derivations(monkeypatch):
    import importlib

    calls = Counter()
    for module_name, attr in DERIVATIONS:
        module = importlib.import_module(module_name)
        raw = getattr(module, attr)

        def counting(*args, _raw=raw, _name=f"{module_name}.{attr}",
                     **kwargs):
            calls[_name] += 1
            return _raw(*args, **kwargs)
        monkeypatch.setattr(module, attr, counting)
    return calls


def _record_profiles(monkeypatch):
    import importlib

    profiles = []
    for module_name in ENGINE_MODULES:
        module = importlib.import_module(module_name)
        raw = module.new_profile

        def recording(engine, _raw=raw):
            profile = _raw(engine)
            profiles.append(profile)
            return profile
        monkeypatch.setattr(module, "new_profile", recording)
    return profiles


@pytest.mark.parametrize("tier", ("ref", "codegen"))
@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell[1])
def test_second_run_rederives_nothing(cell, tier, isolated, monkeypatch):
    from repro.service.cells import run_cell
    from repro.service.requests import CellSpec

    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")
    calls = _count_derivations(monkeypatch)
    profiles = _record_profiles(monkeypatch)

    def run():
        reset_registry()
        profiles.clear()
        value = run_cell(CellSpec(*cell))
        return (value, get_registry().export([DET]),
                [p.to_dict() for p in profiles])

    cold = run()
    made = set(calls)
    expected = COLD[cell[1]] if tier == "codegen" else \
        {name for name in COLD[cell[1]] if ".codegen." not in name}
    assert expected <= made, made
    assert cold[2] and all(cold[2])            # profiling was on
    calls.clear()
    warm = run()
    assert not calls, dict(calls)
    assert warm == cold


SHARED_JS = r"""
function f(n) {
  var s = 0.5;
  for (var i = 0; i < n; i++) { s = s + i % 7 * 0.25; }
  return s;
}
var t = 0;
for (var k = 0; k < 12; k++) { t = t + f(600); }
console.log(t);
"""


def _stats(engine):
    return {k: repr(tuple(v) if isinstance(v, list) else v)
            for k, v in dataclasses.asdict(engine.stats).items()}


def _load(config):
    from repro.jsengine.engine import JsEngine

    engine = JsEngine(config=config)
    engine.load_script(SHARED_JS)
    return engine


@pytest.mark.parametrize("tier", ("ref", "codegen"))
def test_engines_sharing_a_template_stay_isolated(tier, isolated,
                                                  monkeypatch):
    from repro.jsengine.config import JsEngineConfig
    from repro.jsengine.engine import script_template

    monkeypatch.setenv("REPRO_FAST_INTERP", "0" if tier == "ref" else "1")
    configs = {"jit": JsEngineConfig(),
               "no-jit": JsEngineConfig().without_jit()}
    engines = {"jit": _load(configs["jit"]),
               "no-jit": _load(configs["no-jit"])}
    # A second JIT engine after the no-JIT one: nothing either left on
    # the template may show in it.
    engines["jit-again"] = _load(configs["jit"])
    configs["jit-again"] = configs["jit"]

    template = script_template(SHARED_JS)
    proto = template.functions[0]
    fns = {name: engine.globals["f"] for name, engine in engines.items()}
    assert len({id(fn) for fn in fns.values()}) == 3
    for fn in fns.values():
        assert fn.code is proto.code and fn.plans is proto.plans
    assert isinstance(proto.code, tuple) and isinstance(proto.params, tuple)
    assert all(isinstance(instr, tuple) for instr in proto.code)
    assert all(isinstance(p.code, tuple)
               for p in (template.toplevel, *template.functions))

    assert engines["jit"].stats.tier_ups > 0 and fns["jit"].tier == 1
    assert engines["no-jit"].stats.tier_ups == 0 and fns["no-jit"].tier == 0
    assert fns["no-jit"].call_count == 0
    assert (proto.tier, proto.call_count, proto.backedge_count,
            proto.codegen) == (0, 0, 0, None)

    for name, engine in engines.items():
        substrate.reset_cache()
        alone = _load(configs[name])
        assert script_template(SHARED_JS) is not template
        assert alone.console_output == engine.console_output
        assert _stats(alone) == _stats(engine)
    assert _stats(engines["jit-again"]) == _stats(engines["jit"])
