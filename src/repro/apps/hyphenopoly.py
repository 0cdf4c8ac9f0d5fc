"""Hyphenopoly.js reproduction (§4.6.2, Table 10 rows 4–5).

Liang's pattern-based hyphenation with two language pattern sets (en-us,
fr), in two implementations:

* **Wasm** — the hyphenation engine written in C (pattern table + text in
  linear memory) and compiled with Cheerp; the input text must be copied
  across the JS↔Wasm boundary, which is why Wasm's advantage is marginal
  here (the paper: "a significant amount of time is spent on input and
  output operations in which WebAssembly is not specialized").
* **JS** — Hyphenopoly's hand-written JavaScript: pattern map + string
  operations.

Both report the number of hyphenation points found over the input text, so
the implementations can be cross-checked.
"""

from __future__ import annotations

from repro.compilers import CheerpCompiler
from repro.engine.hostlib import install_js_host
from repro.env import DESKTOP, chrome_desktop
from repro.jsengine import JsEngine
from repro.wasm import WasmVM

#: Per-byte cost of marshalling the text into linear memory / back out.
COPY_CYCLES_PER_BYTE = 1.0

#: Simplified TeX-style patterns: (pattern, score-digit string).  A digit
#: at position i scores between pattern chars i-1 and i; odd = hyphen.
PATTERNS = {
    "en-us": [
        ("tio", "2"), ("ation", "04"), ("ing", "2"), ("ter", "1"),
        ("ment", "1"), ("con", "1"), ("ble", "1"), ("tion", "1"),
        ("ous", "1"), ("per", "1"), ("pre", "1"), ("pro", "1"),
        ("ex", "1"), ("un", "1"), ("re", "1"), ("de", "1"),
        ("er", "1"), ("ly", "1"), ("al", "1"), ("ic", "1"),
        ("an", "1"), ("en", "1"), ("on", "1"), ("at", "1"),
    ],
    "fr": [
        ("tion", "1"), ("ment", "1"), ("eur", "1"), ("eau", "1"),
        ("oir", "1"), ("ais", "1"), ("ent", "1"), ("ille", "1"),
        ("ant", "1"), ("que", "1"), ("con", "1"), ("des", "1"),
        ("par", "1"), ("re", "1"), ("de", "1"), ("le", "1"),
        ("la", "1"), ("ou", "1"), ("er", "1"), ("es", "1"),
    ],
}

_SYLLABLES = ["con", "ter", "na", "tion", "al", "ment", "ing", "per",
              "ma", "re", "de", "pro", "ble", "ous", "ex", "un", "so",
              "li", "ve", "ra"]


def make_text(bytes_target=4096, seed=12345):
    """Deterministic synthetic prose (stands in for the paper's 18 KB
    English/French input texts)."""
    words = []
    state = seed
    length = 0
    while length < bytes_target:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        syllable_count = 2 + state % 4
        word = ""
        for _ in range(syllable_count):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            word += _SYLLABLES[state % len(_SYLLABLES)]
        words.append(word)
        length += len(word) + 1
    return " ".join(words)


def _pattern_table_c(patterns):
    """Flatten patterns into a C initializer: for each pattern
    ``len, chars..., digits...`` (digits has len+1 entries)."""
    flat = []
    for pattern, digits in patterns:
        score = [0] * (len(pattern) + 1)
        for i, ch in enumerate(digits):
            if ch.isdigit() and int(ch):
                # Digit applies at offset i within the pattern window.
                score[min(i, len(pattern))] = int(ch)
        flat.append(len(pattern))
        flat.extend(ord(c) for c in pattern)
        flat.extend(score)
    flat.append(0)  # terminator
    return flat


def _c_source(text, patterns):
    table = _pattern_table_c(patterns)
    text_bytes = [ord(c) for c in text]
    return f"""
unsigned char text[{len(text_bytes)}] = {{{", ".join(map(str, text_bytes))}}};
unsigned char patterns[{len(table)}] = {{{", ".join(map(str, table))}}};
int scores[64];

int hyphenate_word(int start, int end) {{
  int i, p, plen, pos, ok, k, points;
  int wlen = end - start;
  if (wlen >= 60)
    wlen = 60;
  for (i = 0; i <= wlen; i++)
    scores[i] = 0;
  p = 0;
  while (patterns[p] != 0) {{
    plen = patterns[p];
    for (pos = 0; pos + plen <= wlen; pos++) {{
      ok = 1;
      for (k = 0; k < plen; k++)
        if (text[start + pos + k] != patterns[p + 1 + k])
          ok = 0;
      if (ok)
        for (k = 0; k <= plen; k++)
          if (patterns[p + 1 + plen + k] > scores[pos + k])
            scores[pos + k] = patterns[p + 1 + plen + k];
    }}
    p = p + 1 + plen + plen + 1;
  }}
  points = 0;
  for (i = 2; i < wlen - 1; i++)
    if (scores[i] % 2 == 1)
      points = points + 1;
  return points;
}}

int main() {{
  int i, start, total;
  total = 0;
  start = 0;
  for (i = 0; i <= {len(text_bytes)}; i++) {{
    if (i == {len(text_bytes)} || text[i] == 32) {{
      if (i > start)
        total = total + hyphenate_word(start, i);
      start = i + 1;
    }}
  }}
  printf("%d", total);
  return 0;
}}
"""


def _js_source(text, patterns):
    pattern_lines = []
    for pattern, digits in patterns:
        score = [0] * (len(pattern) + 1)
        for i, ch in enumerate(digits):
            if ch.isdigit() and int(ch):
                score[min(i, len(pattern))] = int(ch)
        score_js = "[" + ", ".join(str(v) for v in score) + "]"
        pattern_lines.append(
            f'patterns.push({{p: "{pattern}", s: {score_js}}});')
    newline = "\n"
    return f"""
var patterns = [];
{newline.join(pattern_lines)}
var text = "{text}";

function hyphenateWord(word) {{
  var scores = [];
  var i, j, k, pos, entry, pat, ok, points;
  for (i = 0; i <= word.length; i++) {{
    scores.push(0);
  }}
  for (j = 0; j < patterns.length; j++) {{
    entry = patterns[j];
    pat = entry.p;
    for (pos = 0; pos + pat.length <= word.length; pos++) {{
      ok = true;
      for (k = 0; k < pat.length; k++) {{
        if (word.charCodeAt(pos + k) !== pat.charCodeAt(k)) {{
          ok = false;
          k = pat.length;
        }}
      }}
      if (ok) {{
        for (k = 0; k <= pat.length; k++) {{
          if (entry.s[k] > scores[pos + k]) {{
            scores[pos + k] = entry.s[k];
          }}
        }}
      }}
    }}
  }}
  points = 0;
  for (i = 2; i < word.length - 1; i++) {{
    if (scores[i] % 2 === 1) {{
      points = points + 1;
    }}
  }}
  return points;
}}

function main() {{
  var words = text.split(" ");
  var total = 0;
  var i;
  for (i = 0; i < words.length; i++) {{
    if (words[i].length > 0) {{
      total += hyphenateWord(words[i]);
    }}
  }}
  return total;
}}
"""


class HyphenopolyApp:
    """Runs the two Table 10 Hyphenopoly experiments (en-us, fr)."""

    def __init__(self, profile=None, platform=None, text_bytes=4096):
        self.profile = profile or chrome_desktop()
        self.platform = platform or DESKTOP
        self.text_bytes = text_bytes
        self._cheerp = CheerpCompiler(linear_heap_size=1024 * 1024)

    def run_language(self, language):
        patterns = PATTERNS[language]
        text = make_text(self.text_bytes,
                         seed=12345 if language == "en-us" else 54321)
        # Wasm: compile + execute + pay the text marshalling cost.
        artifact = self._cheerp.compile_wasm(
            _c_source(text, patterns), opt_level="O2",
            name=f"hyphenopoly-{language}")
        from repro.harness.runner import wasm_host_imports
        output = []
        vm = WasmVM(boundary_cost=self.profile.wasm.boundary_cost)
        instance = vm.instantiate(artifact.module,
                                  wasm_host_imports(output, None))
        instance.invoke("main")
        wasm_cycles = (instance.stats.cycles *
                       self.profile.wasm.tiers.optimizing.exec_factor +
                       instance.stats.boundary_cycles +
                       2 * len(text) * COPY_CYCLES_PER_BYTE)
        wasm_ms = self.platform.ms(wasm_cycles)
        wasm_points = output[0]

        # JS: parse + execute.
        engine = JsEngine(self.profile.js,
                          cycles_per_ms=self.platform.cycles_per_ms)
        install_js_host(engine, [])
        engine.load_script(_js_source(text, patterns))
        js_points = engine.call_global("main")
        js_ms = self.platform.ms(engine.total_cycles())
        return {
            "language": language,
            "wasm_ms": wasm_ms, "js_ms": js_ms,
            "ratio": wasm_ms / js_ms,
            "wasm_points": int(wasm_points), "js_points": int(js_points),
        }

    def run(self):
        return {language: self.run_language(language)
                for language in ("en-us", "fr")}
