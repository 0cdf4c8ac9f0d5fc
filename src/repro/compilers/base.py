"""Shared toolchain plumbing: frontend invocation, artifacts, pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfront import parse_c, preprocess, transform_source
from repro.cfront.parser import BUILTINS
from repro.errors import LinkError
from repro.ir.passes import run_pipeline

#: Optimization levels every toolchain accepts.
OPT_LEVELS = ("O0", "O1", "O2", "O3", "O4", "Os", "Oz", "Ofast")


@dataclass
class CompiledWasm:
    """A compiled WebAssembly artifact."""

    module: object            # repro.wasm.WasmModule
    binary: bytes
    toolchain: str
    opt_level: str
    name: str = "module"
    meta: dict = field(default_factory=dict)

    @property
    def code_size(self):
        return len(self.binary)


@dataclass
class CompiledJs:
    """A compiled (genericjs) JavaScript artifact."""

    source: str
    toolchain: str
    opt_level: str
    name: str = "module"
    meta: dict = field(default_factory=dict)

    @property
    def code_size(self):
        return len(self.source.encode("utf-8"))


@dataclass
class CompiledNative:
    """A compiled x86-model artifact."""

    program: object           # repro.native.NativeProgram
    toolchain: str
    opt_level: str
    name: str = "module"
    meta: dict = field(default_factory=dict)

    @property
    def code_size(self):
        from repro.native import program_byte_size
        return program_byte_size(self.program)


class ToolchainBase:
    """Common frontend behaviour (preprocess → §3.1 transforms → parse →
    pass pipeline) and the content-addressed compile cache every facade's
    ``compile_*`` entry point routes through."""

    name = "toolchain"

    def __init__(self, use_precompiled_libs=False):
        #: §3.2: Cheerp implicitly links pre-compiled libc/libc++; when a
        #: program also defines those symbols the link fails.  The paper's
        #: workaround (and our default) is to disable the implicit libs.
        self.use_precompiled_libs = use_precompiled_libs
        self._last_pass_telemetry = None

    # -- content-addressed caching --------------------------------------------

    def config_fingerprint(self):
        """Stable fingerprint of the toolchain configuration: every piece
        of instance state (heap/stack sizes, linkage mode, granules)
        participates in the cache key.  Private attributes (scratch state
        like the telemetry stash) are not configuration."""
        return tuple(sorted(
            (key, repr(value)) for key, value in vars(self).items()
            if not key.startswith("_")))

    def pipeline_fingerprint(self, opt_level):
        """Pass-pipeline fingerprint for one level: pass names, with
        callable passes identified by their qualified name."""
        names = []
        for entry in self.pipelines().get(opt_level, ()):
            if isinstance(entry, str):
                names.append(entry)
            else:
                names.append(f"{entry.__module__}.{entry.__qualname__}")
        return tuple(names)

    def _cached_compile(self, kind, build, source, defines, opt_level,
                        name):
        """Serve ``build(...)``'s artifact from the content-addressed
        cache, keyed on the preprocessed source + configuration."""
        from repro.cache import cache_key, get_cache
        from repro.obs import span
        cache = get_cache()
        key = cache_key(
            kind=kind,
            preprocessed=preprocess(source, defines),
            defines=defines,
            opt_level=opt_level,
            toolchain=self.name,
            config_fingerprint=self.config_fingerprint(),
            pipeline_fingerprint=self.pipeline_fingerprint(opt_level),
            name=name,
        )
        with span("compile", parts=(key,), kind=kind, toolchain=self.name,
                  opt_level=opt_level, program=name):
            artifact = cache.get(key)
            if artifact is None:
                self._last_pass_telemetry = None
                artifact = build(source, defines, opt_level, name)
                # JS/native artifacts drop the IR module (only codegen
                # output is kept), so the pipeline telemetry travels via
                # the stash ``optimize()`` records.
                if "pass_telemetry" not in artifact.meta and \
                        self._last_pass_telemetry is not None:
                    artifact.meta["pass_telemetry"] = \
                        self._last_pass_telemetry
                cache.put(key, artifact)
        self._replay_pass_metrics(artifact)
        # Tag the artifact with its own address so downstream layers (the
        # measurement memoizer) can key results on it without re-hashing.
        artifact.cache_key = key
        return artifact

    @staticmethod
    def _replay_pass_metrics(artifact):
        """Publish the deterministic pass counters recorded in the
        artifact's telemetry.  Run on every serve — hit or miss — so a
        warm cache produces the same DET metrics as a cold build."""
        from repro.obs import DET, get_registry
        reg = get_registry()
        reg.counter_add("compile.serves", 1, DET)
        for entry in artifact.meta.get("pass_telemetry", ()):
            prefix = f"pass.{entry['pass']}"
            reg.counter_add(f"{prefix}.applied", 1, DET)
            reg.counter_add(f"{prefix}.rewrites", entry["rewrites"], DET)
            reg.counter_add(f"{prefix}.nodes_in", entry["nodes_in"], DET)
            reg.counter_add(f"{prefix}.nodes_out", entry["nodes_out"], DET)

    def frontend(self, source, defines=None, name="module",
                 apply_transforms=True):
        text = preprocess(source, defines)
        if apply_transforms:
            text = transform_source(text)
        module = parse_c(text, name)
        self._check_link(module)
        # Frontend normalisation (mem2reg-style): the parser's hoisted
        # temporaries (post-increment snapshots, logic temps) are cleaned
        # up at every optimization level, as real frontends do.
        from repro.ir.passes import dead_code_elimination
        dead_code_elimination(module)
        return module

    def _check_link(self, module):
        if not self.use_precompiled_libs:
            return
        conflicts = [fname for fname in module.functions
                     if fname in BUILTINS and module.functions[fname].body]
        if conflicts:
            raise LinkError(
                "conflicting symbol definitions between the pre-compiled "
                f"libraries and the program: {', '.join(sorted(conflicts))} "
                "(disable pre-compiled libs, §3.2)")

    def optimize(self, module, opt_level):
        pipeline = self.pipelines()[opt_level]
        run_pipeline(module, pipeline)
        module.meta["opt_level"] = opt_level
        # Stash for artifacts that do not retain the module's meta
        # (CompiledJs/CompiledNative); _cached_compile picks it up.
        self._last_pass_telemetry = module.meta.get("pass_telemetry")
        return module

    def pipelines(self):
        raise NotImplementedError
