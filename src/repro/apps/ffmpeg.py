"""FFmpeg reproduction (§4.6.2, Table 10 row 6): MP4 → AVI transcode.

ffmpeg.wasm parallelises the conversion across WebWorkers while node-ffmpeg's
pure-JS path is single-threaded — the mechanism behind the paper's 0.275
Wasm/JS time ratio.

The transcoder itself is real code: a per-frame pipeline (8×8 block DCT,
quantisation, entropy-size estimate) written in C and compiled to Wasm with
Cheerp; the JS implementation is the equivalent hand-written JavaScript.
Each frame is an independent work item for the worker pool.
"""

from __future__ import annotations

from repro.apps.workers import WebWorkerPool
from repro.compilers import CheerpCompiler
from repro.engine.hostlib import install_js_host, wasm_host_imports
from repro.env import DESKTOP, chrome_desktop
from repro.jsengine import JsEngine
from repro.wasm import WasmVM

#: One "frame" of the scaled input video (the paper used a 296 MB MP4; we
#: scale to a deterministic synthetic clip, same per-frame pipeline).
FRAME_BLOCKS = 16          # 8×8 blocks per frame
DEFAULT_FRAMES = 48

_C_TRANSCODE = r"""
double block[64];
double coef[64];
double costab[64];
int frame_seed = 0;
int tables_ready = 0;

void init_costab() {
  int x, u;
  for (x = 0; x < 8; x++)
    for (u = 0; u < 8; u++)
      costab[8 * x + u] =
          cos((2.0 * x + 1.0) * u * 3.14159265358979 / 16.0);
  tables_ready = 1;
}

void load_block(int b) {
  int i;
  int v = frame_seed * 131 + b * 17;
  for (i = 0; i < 64; i++) {
    v = (v * 1103515245 + 12345) & 2147483647;
    block[i] = (double)(v % 256) - 128.0;
  }
}

void dct_8x8() {
  int u, v, x, y;
  double sum, cu, cv;
  for (u = 0; u < 8; u++) {
    for (v = 0; v < 8; v++) {
      sum = 0.0;
      for (x = 0; x < 8; x++)
        for (y = 0; y < 8; y++)
          sum += block[8 * x + y] * costab[8 * x + u] * costab[8 * y + v];
      cu = u == 0 ? 0.70710678 : 1.0;
      cv = v == 0 ? 0.70710678 : 1.0;
      coef[8 * u + v] = 0.25 * cu * cv * sum;
    }
  }
}

int quantize() {
  int i, bits, q;
  bits = 0;
  for (i = 0; i < 64; i++) {
    q = (int)(coef[i] / (8.0 + (double)(i / 8)));
    if (q < 0)
      q = -q;
    while (q > 0) {
      bits = bits + 1;
      q = q / 2;
    }
  }
  return bits;
}

int transcode_frame(int frame) {
  int b, total;
  if (tables_ready == 0)
    init_costab();
  frame_seed = frame;
  total = 0;
  for (b = 0; b < BLOCKS; b++) {
    load_block(b);
    dct_8x8();
    total = total + quantize();
  }
  return total;
}

int main() {
  printf("%d", transcode_frame(0));
  return 0;
}
"""

_JS_TRANSCODE = r"""
var block = new Float64Array(64);
var coef = new Float64Array(64);
var costab = new Float64Array(64);
var frameSeed = 0;
var tablesReady = 0;

function initCostab() {
  var x, u;
  for (x = 0; x < 8; x++) {
    for (u = 0; u < 8; u++) {
      costab[8 * x + u] =
          Math.cos((2 * x + 1) * u * 3.14159265358979 / 16);
    }
  }
  tablesReady = 1;
}

function loadBlock(b) {
  var i, v;
  v = frameSeed * 131 + b * 17;
  for (i = 0; i < 64; i++) {
    v = (Math.imul(v, 1103515245) + 12345) & 2147483647;
    block[i] = (v % 256) - 128;
  }
}

function dct8x8() {
  var u, v, x, y, sum, cu, cv;
  for (u = 0; u < 8; u++) {
    for (v = 0; v < 8; v++) {
      sum = 0;
      for (x = 0; x < 8; x++) {
        for (y = 0; y < 8; y++) {
          sum += block[8 * x + y] * costab[8 * x + u] * costab[8 * y + v];
        }
      }
      cu = u === 0 ? 0.70710678 : 1;
      cv = v === 0 ? 0.70710678 : 1;
      coef[8 * u + v] = 0.25 * cu * cv * sum;
    }
  }
}

function quantize() {
  var i, bits, q;
  bits = 0;
  for (i = 0; i < 64; i++) {
    q = (coef[i] / (8 + Math.floor(i / 8))) | 0;
    if (q < 0) {
      q = -q;
    }
    while (q > 0) {
      bits = bits + 1;
      q = (q / 2) | 0;
    }
  }
  return bits;
}

function transcodeFrame(frame) {
  var b, total;
  if (tablesReady === 0) {
    initCostab();
  }
  frameSeed = frame;
  total = 0;
  for (b = 0; b < BLOCKS; b++) {
    loadBlock(b);
    dct8x8();
    total = total + quantize();
  }
  return total;
}

function main(frames) {
  var f, total;
  total = 0;
  for (f = 0; f < frames; f++) {
    total = total + transcodeFrame(f);
  }
  return total;
}
"""


class FfmpegApp:
    """MP4→AVI transcode, Wasm (WebWorker pool) vs JS (single-threaded)."""

    def __init__(self, profile=None, platform=None, frames=DEFAULT_FRAMES,
                 workers=4):
        self.profile = profile or chrome_desktop()
        self.platform = platform or DESKTOP
        self.frames = frames
        self.pool = WebWorkerPool(num_workers=workers)
        self._cheerp = CheerpCompiler(linear_heap_size=1024 * 1024)

    def run(self):
        # Wasm: measure one frame's cycle cost per frame index, then
        # schedule frames over the worker pool.
        artifact = self._cheerp.compile_wasm(
            _C_TRANSCODE, {"BLOCKS": FRAME_BLOCKS}, "O2", "ffmpeg-wasm")
        frame_cycles = []
        wasm_total = 0
        opt_factor = self.profile.wasm.tiers.optimizing.exec_factor
        for frame in range(self.frames):
            output = []
            vm = WasmVM(boundary_cost=self.profile.wasm.boundary_cost)
            instance = vm.instantiate(artifact.module,
                                      wasm_host_imports(output, None))
            result = instance.invoke("transcode_frame", frame)
            wasm_total += int(result)
            frame_cycles.append(
                instance.stats.cycles * opt_factor
                + instance.stats.boundary_cycles)
        wasm_ms = self.platform.ms(self.pool.makespan_cycles(frame_cycles))

        # JS: single engine runs every frame serially.
        engine = JsEngine(self.profile.js,
                          cycles_per_ms=self.platform.cycles_per_ms)
        install_js_host(engine, [])
        engine.load_script(
            f"var BLOCKS = {FRAME_BLOCKS};\n" + _JS_TRANSCODE)
        js_total = int(engine.call_global("main", float(self.frames)))
        js_ms = self.platform.ms(engine.total_cycles())
        return {
            "frames": self.frames,
            "workers": self.pool.num_workers,
            "wasm_ms": wasm_ms,
            "js_ms": js_ms,
            "ratio": wasm_ms / js_ms,
            "wasm_checksum": wasm_total,
            "js_checksum": js_total,
        }
