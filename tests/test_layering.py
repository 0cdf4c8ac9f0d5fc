"""Layering tests: the three execution engines share code only through
the engine core (run ``python tools/check_layering.py`` standalone in CI).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
check_layering = importlib.import_module("check_layering")


def test_no_layering_violations():
    violations = check_layering.check()
    assert violations == [], "\n".join(violations)


def test_opclass_lives_in_engine_core():
    from repro.engine.opclass import OpClass as core_opclass
    from repro.wasm.instructions import OpClass as reexported
    assert core_opclass is reexported


def test_jsengine_does_not_depend_on_wasm():
    """Importing the full JS engine must not pull in the wasm package."""
    import subprocess
    code = (
        "import sys\n"
        "import repro.jsengine, repro.jsengine.interpreter\n"
        "import repro.native.machine\n"
        "bad = [m for m in sys.modules if m.startswith('repro.wasm')]\n"
        "assert not bad, bad\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", code],
                            env={"PYTHONPATH": str(src), "PATH": "/usr/bin"},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_engines_do_not_import_apparatus(tmp_path):
    """The measurement apparatus (harness, experiments) sits above every
    engine: an engine importing it would invert the stack. The checker
    flags this even for lazy, function-local imports."""
    vm = tmp_path / "wasm" / "vm.py"
    vm.parent.mkdir()
    vm.write_text("def run():\n    from repro.harness import runner\n")
    core = tmp_path / "engine" / "stats.py"
    core.parent.mkdir()
    core.write_text("import repro.experiments\n")
    violations = check_layering.check(src=tmp_path)
    assert len(violations) == 2
    assert any("wasm/vm.py" in v and "repro.harness" in v
               for v in violations)
    assert any("engine/stats.py" in v and "repro.experiments" in v
               for v in violations)


def test_engines_have_no_apparatus_imports_today():
    """Concrete check over the live tree: no engine module (or the engine
    core) imports repro.harness or repro.experiments."""
    violations = [v for v in check_layering.check()
                  if "harness" in v or "experiments" in v]
    assert violations == [], "\n".join(violations)


def test_jsengine_may_not_ask_python_what_is_alive(tmp_path):
    """JS heap liveness comes only from the mark over JS roots: the JS
    engine may not import Python's ``gc`` or walk Python frames.  Other
    layers, and the engine's own ``gc`` module, are not flagged."""
    heap = tmp_path / "jsengine" / "heap.py"
    heap.parent.mkdir()
    heap.write_text(
        "import gc\n"
        "import sys\n"
        "from sys import _getframe\n"
        "from repro.jsengine.gc import GcHeap\n"
        "def roots():\n"
        "    return sys._getframe(1).f_locals\n")
    runner = tmp_path / "harness" / "probe.py"
    runner.parent.mkdir()
    runner.write_text("import gc\nimport sys\nsys._getframe(0)\n")
    violations = check_layering.check(src=tmp_path)
    assert [v.split(":")[:2] for v in violations] == [
        ["src/repro/jsengine/heap.py", str(line)] for line in (1, 3, 6)]
    assert all("JS roots" in v for v in violations)


def test_typed_env_parses_must_use_envflags(tmp_path):
    """``int``/``float``/``bool`` over an environment read — directly or
    through a local bound to one — is flagged everywhere except the
    shared parser itself; string reads and parses of non-env values are
    not."""
    knobs = tmp_path / "harness" / "knobs.py"
    knobs.parent.mkdir()
    knobs.write_text(
        "import os\n"
        "def jobs():\n"
        "    env = os.environ.get('REPRO_JOBS', '').strip()\n"
        "    return max(1, int(env)) if env else 1\n"
        "def quick():\n"
        "    return bool(os.environ.get('REPRO_QUICK'))\n"
        "def timeout():\n"
        "    return float(os.getenv('REPRO_CELL_TIMEOUT', '0'))\n"
        "PORT = int(os.environ['REPRO_SERVICE_PORT'])\n"
        "def host():\n"
        "    return os.environ.get('REPRO_SERVICE_HOST', '127.0.0.1')\n"
        "def count(spec):\n"
        "    return int(spec)\n")
    envflags = tmp_path / "obs" / "envflags.py"
    envflags.parent.mkdir()
    envflags.write_text(
        "import os\n"
        "def env_int(name):\n"
        "    return int(os.environ.get(name, '0'))\n")
    violations = check_layering.check(src=tmp_path)
    assert [v.split(":")[:2] for v in violations] == [
        ["src/repro/harness/knobs.py", str(line)] for line in (4, 6, 8, 9)]
    assert all("envflags" in v for v in violations)


def test_only_the_store_module_builds_an_artifact_cache(tmp_path):
    """Every entry goes through ``get_cache()``: a second
    ``ArtifactCache`` anywhere but ``repro.cache.store`` — bare or
    dotted, module-level or lazy — is flagged; importing or naming the
    class is not."""
    units = tmp_path / "harness" / "units.py"
    units.parent.mkdir()
    units.write_text(
        "from repro.cache.store import ArtifactCache\n"
        "_STORE = None\n"
        "def _store():\n"
        "    from repro import cache\n"
        "    return ArtifactCache() if _STORE is None else \\\n"
        "        cache.ArtifactCache(disk=False)\n"
        "def is_store(obj):\n"
        "    return isinstance(obj, ArtifactCache)\n")
    store = tmp_path / "cache" / "store.py"
    store.parent.mkdir()
    store.write_text(
        "class ArtifactCache:\n"
        "    pass\n"
        "_GLOBAL = ArtifactCache()\n")
    violations = check_layering.check(src=tmp_path)
    assert [v.split(":")[:2] for v in violations] == [
        ["src/repro/harness/units.py", str(line)] for line in (5, 6)]
    assert all("get_cache()" in v for v in violations)


def test_knob_table_lists_every_knob():
    """Every quoted ``REPRO_*`` name the package, the benchmark scripts
    and ``run_all.py`` read has a row in README's knob table, and every
    row names a knob that still exists."""
    root = Path(__file__).resolve().parent.parent
    sources = [*(root / "src").rglob("*.py"),
               *(root / "benchmarks").rglob("*.py"),
               root / "results" / "run_all.py"]
    quoted = re.compile(r"""["'](REPRO_[A-Z0-9_]+)["']""")
    used = {name for path in sources
            for name in quoted.findall(path.read_text(encoding="utf-8"))}
    row = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)
    documented = set(row.findall(
        (root / "README.md").read_text(encoding="utf-8")))
    assert used == documented
