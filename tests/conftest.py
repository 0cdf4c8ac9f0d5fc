"""Shared fixtures: compilers, runners, and a tiny C program."""

import math
import os
from collections import Counter

import pytest

from repro.compilers import CheerpCompiler, EmscriptenCompiler, LlvmX86Compiler
from repro.env import DESKTOP, chrome_desktop
from repro.harness import PageRunner, shutdown_pool
from repro.harness.runner import wasm_host_imports
from repro.obs import get_registry
from repro.wasm import WasmVM


TINY_C = """
#define N 8
double A[N][N]; double x[N]; double y[N];

void init() {
  int i, j;
  for (i = 0; i < N; i++) {
    x[i] = (double)(i % 7) / N;
    y[i] = 0.0;
    for (j = 0; j < N; j++)
      A[i][j] = (double)((i * j + 1) % N) / N;
  }
}

void kernel() {
  int i, j;
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      y[i] = y[i] + A[i][j] * x[j];
}

double checksum() {
  double s = 0.0;
  int i;
  for (i = 0; i < N; i++) s += y[i];
  return s;
}

int main() {
  init();
  kernel();
  printf("%f", checksum());
  return 0;
}
"""

#: Reference value of TINY_C's checksum, computed independently.
TINY_C_CHECKSUM = 9.4375


def cache_counts(snap):
    """The artifact store's ``cache.*`` counter increments since registry
    snapshot ``snap`` (``hits``, ``misses``, ``puts``, ...; 0 if
    unmoved)."""
    delta = get_registry().diff(snap)["counters"]
    return Counter({name[len("cache."):]: ints
                    for name, (_tag, ints, _frac) in delta.items()
                    if name.startswith("cache.")})


def default_store_root():
    """The root of the store ``configure()`` builds from the environment
    as it is now: where the global store must point once a test that
    moved it has ended."""
    from repro.cache import CACHE_VERSION, default_cache_root
    return os.path.join(default_cache_root(), CACHE_VERSION)


@pytest.fixture()
def store_restored():
    """Fail a test that leaves the global artifact store anywhere but
    the default root (request it before ``monkeypatch``, so its check
    runs with the environment restored)."""
    yield
    from repro.cache import get_cache
    assert get_cache().root == default_store_root()


@pytest.fixture()
def fresh_store(tmp_path):
    """The process's artifact store (compiled artifacts, memoized results
    and codegen translation units) on a fresh directory under
    ``tmp_path``, with every in-process memo dropped; the default
    (env-derived) store is restored afterwards."""
    from repro.cache import configure
    from repro.engine.codegen import reset_cache
    store = configure(root=str(tmp_path), disk=True)
    reset_cache()
    yield store
    reset_cache()
    configure()


@pytest.fixture(autouse=True)
def _stop_worker_pool():
    """Stop the scheduler's worker pool after each test, so no test runs
    in workers forked under another test's monkeypatches."""
    yield
    shutdown_pool()


@pytest.fixture(scope="session")
def cheerp():
    return CheerpCompiler(linear_heap_size=1024 * 1024)


@pytest.fixture(scope="session")
def emscripten():
    return EmscriptenCompiler()


@pytest.fixture(scope="session")
def llvm_x86():
    return LlvmX86Compiler()


@pytest.fixture()
def runner():
    return PageRunner(chrome_desktop(), DESKTOP, repetitions=1)


def run_wasm_main(module, entry="main"):
    """Instantiate with standard C host imports and run; returns
    (outputs, instance)."""
    output = []
    vm = WasmVM()
    instance = vm.instantiate(module, wasm_host_imports(output, None))
    instance.invoke(entry)
    return output, instance
