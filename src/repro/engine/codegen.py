"""Shared substrate of the generated-Python (codegen) execution tier.

The three engines (``wasm/vm.py``, ``jsengine/interpreter.py``,
``native/machine.py``) each ship a reference interpreter: a ``while`` loop
that fetches one instruction, charges its cycle cost and operation class,
and dispatches through a ~100-arm ``if/elif`` ladder.  That loop is the
differential oracle — simple, obviously faithful, and slow.

The codegen tier translates each prepared function body *once* into
basic blocks and emits them as straight-line Python source: operand
stack lowered to local variables (through an abstract stack that
forwards copies, :class:`OperandStack`), batched accounting constants
folded into literal statements, trap points compiled to explicit guards
that rewind the batched charges.  The source is ``compile()``d once per
translation unit and the resulting ``make(ns)`` factory is called per
engine instance to pre-bind that instance's state.

Two tiers, one knob::

    REPRO_FAST_INTERP=0   reference ladders (differential oracle)
    default               generated Python (this tier)

Exactness rules (each engine's translator documents how it applies them):

1. **Integer counters batch freely.**  ``op_counts`` and
   ``instructions`` are integers; charging a block's total per block
   entry is exact.  A trap guard subtracts the suffix (the instructions
   after the trapping one), restoring the reference ladder's
   charge-then-execute prefix: at a trap on instruction *k* the
   reference has charged instructions ``0..k`` inclusive.  One rewind,
   :meth:`FnEmitter.emit_rewind`, serves the three engines.
2. **Float cycle batching needs an exact grid.**  Summing per-op costs in
   a different order than the reference is only bit-identical when every
   addend is dyadic and the partial sums stay exactly representable.
   Wasm's ``OP_COST`` table is entirely quarter-multiples (asserted by
   tests), so its per-block sums are exact at any association.  The JS
   and native charge streams include non-dyadic products
   (``cost × tier_factor``, ``cost × VECTOR_COST_FACTOR``), so their
   generated code adds one constant per source instruction — the same
   left-fold the reference performs, hence the same bits.
3. **Mid-run observers see flushed state only at the reference's flush
   points.**  Frame-local accumulators are flushed exactly where the
   ladder flushes (JS function-call boundaries, native CALL/RETV), so
   ``performance.now()`` and friends read identical values mid-run.
4. **Rare paths run on the oracle.**  An engine built with an
   instruction budget (``max_instructions``), a traced JS run and a JS
   frame entered with the GC already over-trigger run on the reference
   ladder from the start, which traps or collects at the exact
   instruction by construction.  A unit is never left mid-frame.
5. **Unknown opcodes fail loudly.**  The reference ladders fall through
   to a structured error at execution time; the translators refuse the
   whole function at translation time instead of silently mistranslating.

A translator may also *decline* a function (returning ``None``) when a
static property it relies on does not hold — e.g. an inconsistent
operand-stack depth at a join point.  The engine caches :data:`DECLINED`
for that function and runs it on the reference ladder, which is exact by
construction.

What is shared and what stays per engine.  This module holds the
translator skeleton the three ``codegen.py`` files build on:

* :func:`block_ranges` (leaders → :func:`split_blocks` → block index)
  and :func:`stack_depths`, the worklist that propagates operand-stack
  depths over the blocks and declines an inconsistent join;
* :class:`OperandStack`, the abstract operand stack of the two
  stack-machine translators (wasm, JS).  Blocks are entered with every
  value held in its slot ``s<i>``; inside a block, locals, literals and
  copies are forwarded to the op that consumes them (and wasm
  comparisons deferred to the branch that tests them) and written out
  only before a write to what they read and at block end.  Only
  trap-free, side-effect-free values are deferred, so no charge, trap
  or GC root moves;
* :func:`block_successors` and :class:`LoopLayout`: the natural loops
  of a function's blocks, which the emitter nests as ``while True``
  loops, and how each jump is spelled in that shape;
* :class:`FnEmitter`: the ``def make(ns): … def run(args): … return
  run`` wrapper, the ``bi``/``while True`` dispatch loop with its
  ``try``/``finally`` and a nested loop per region, jumps, trap guards,
  the per-block charge flush (one :func:`emit_sum` per counter) and the
  profiler cells;
* the literal rules (:func:`literal`, :func:`literalizable`), the
  two's-complement wrap (:func:`emit_wrap`) and the
  ``interp.<engine>.codegen_*`` counters.

Each engine keeps what is really its own, as :class:`FnEmitter`
overrides and data: its operator tables and ``SUPPORTED_OPS``, the
per-op flow of the depth analysis (with its own max-depth rule),
``emit_op``/``emit_term``, the charge model (wasm batches cycles per
block; native and JS add ``cyc +=`` per op, and native counts
instructions in a frame-local ``ic``), trap messages and unknown-op
error types, the frame prologue, its ``ns`` construction, and its own
``load_factory`` call.

Plan and bind.  Each translator's ``translate`` is two halves.  The
*plan* (supported-op check, :func:`block_ranges`, stack depths, the
:class:`LoopLayout`, constant tables, :func:`unit_key`) depends only on
the code and the translation
flags, so it is memoized on the code's shared holder (``fn.plans``, a
:class:`~repro.cache.derived.Derived`) and every engine that runs the
same program reuses it, as does the ``make`` factory compiled from the
plan's source (:func:`load_factory`), memoized beside it so that it
lives exactly as long as the code it runs.  The *bind*
runs per engine: it builds ``ns``, calls the factory and counts the
function as translated or declined.

Persistent translation units: generated source depends only on the
prepared code and a handful of translation flags, never on instance
state (state is handed to ``make`` through ``ns``), so translation units
are content-addressed exactly like compiled artifacts and kept in the
same process-global store, :func:`repro.cache.get_cache`.  Its settings
(``configure()``, ``REPRO_CACHE``, ``REPRO_CACHE_DIR``, the
``REPRO_CACHE_MEM`` cap a sweep worker runs under) and its ``cache.*``
counters therefore cover units too, except that with the disk layer on
a unit skips the memory layer (:func:`load_factory`).  An entry pins the
source text and a ``marshal`` of the compiled code object, so a warm
process skips both source generation and ``compile()``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import math
from typing import NamedTuple

from repro.cache.derived import clear as clear_derived
from repro.cache.store import get_cache
from repro.obs import SCHED, get_registry
from repro.obs.envflags import env_flag

#: Bump when the shape of cached translation units changes.
SCHEMA_VERSION = 1

_TAG = "codegen"

#: Sentinel an engine caches on a prepared function when its translator
#: declined it (so the decline is not retried on every call).
DECLINED = object()


def fast_interp_enabled():
    """The ``REPRO_FAST_INTERP`` knob: on unless explicitly falsy
    (``0``/``off``/``false``/``no``), which selects the reference ladders
    (the differential oracle)."""
    return env_flag("REPRO_FAST_INTERP", default=True)


def split_blocks(n, leaders):
    """Partition ``range(n)`` into half-open basic-block ranges.

    ``leaders`` is the set of pcs that must start a block (function entry,
    every jump target, every instruction after a block terminator).
    Out-of-range leaders (e.g. a branch target equal to ``n``) are
    ignored — they denote function exit, not a block.
    """
    starts = sorted(pc for pc in set(leaders) | {0} if 0 <= pc < n)
    return [(start, starts[i + 1] if i + 1 < len(starts) else n)
            for i, start in enumerate(starts)]


def block_ranges(code, term_ops, branch_ops):
    """Split one function's code into basic blocks.

    Every instruction is a tuple whose slot 0 is the opcode; a branch
    (``branch_ops``, a subset of the block terminators ``term_ops``)
    carries its target pc in slot 1.  Returns ``(ranges, block_index)``:
    the half-open block ranges and the block number of each block start.
    """
    leaders = {0}
    for pc, instr in enumerate(code):
        if instr[0] in term_ops:
            leaders.add(pc + 1)
            if instr[0] in branch_ops:
                leaders.add(instr[1])
    ranges = split_blocks(len(code), leaders)
    return ranges, {start: bi for bi, (start, _end) in enumerate(ranges)}


def split_term(ops, term_ops):
    """``(body, terminator)`` of one block: the terminator is its last op
    when that op ends a block (``term_ops``), else ``None``."""
    if ops and ops[-1][0] in term_ops:
        return ops[:-1], ops[-1]
    return ops, None


def stack_depths(code, ranges, block_index, walk):
    """Static operand-stack depths of a stack machine's blocks.

    A worklist from block 0 (entered at depth 0).  ``walk(ops, end,
    depth, join)`` is the engine's own per-op flow over one block entered
    at ``depth``: it calls ``join(pc, depth)`` for every successor (a pc
    past the end is the function exit) and returns the deepest depth the
    block reaches, or ``None`` when a depth would go negative.  Returns
    ``(entry_depth, max_depth)``, or ``None`` when a block is entered at
    two different depths or a walk fails.
    """
    if not ranges:
        return {}, 0
    entry = {0: 0}
    work = [0]
    max_d = 0
    n = len(code)

    def join(pc, depth):
        if pc >= n:
            return True
        tbi = block_index[pc]
        if tbi in entry:
            return entry[tbi] == depth
        entry[tbi] = depth
        work.append(tbi)
        return True

    while work:
        bi = work.pop()
        start, end = ranges[bi]
        peak = walk(code[start:end], end, entry[bi], join)
        if peak is None:
            return None
        max_d = max(max_d, peak)
    return entry, max_d


def block_successors(code, ranges, block_index, branch_ops, no_fall_ops):
    """The successor blocks of each block, in block order.

    A block that ends in a branch (``branch_ops``; its target pc in slot
    1) may go to the target; unless its last op is in ``no_fall_ops``
    (an unconditional jump or a return) it may fall into the next block.
    Function exit (a pc past the end) is not a successor.
    """
    n = len(code)
    succs = []
    for _start, end in ranges:
        last = code[end - 1]
        out = []
        if last[0] in branch_ops and last[1] < n:
            out.append(block_index[last[1]])
        if last[0] not in no_fall_ops and end < n:
            out.append(block_index[end])
        succs.append(out)
    return succs


#: Deepest nesting of structured loops.  CPython refuses a function with
#: more than 20 statically nested blocks: a unit's ``try``/``finally``
#: and its top-level ``while`` take two, and a trap guard inside the
#: innermost arm takes two more (its ``try`` and its handler).
MAX_LOOP_DEPTH = 16

#: How :meth:`LoopLayout.transfer` reaches a target arm: set ``bi`` and
#: let the arms after this one test it, ``continue`` the innermost
#: ``while``, or ``break`` out of it (the last two spelled as their
#: statement).
FALL, CONTINUE, BREAK = "fall", "continue", "break"


def _reverse_postorder(succs):
    """Blocks reachable from block 0, in reverse postorder."""
    post, seen = [], {0}
    stack = [(0, iter(succs[0]))]
    while stack:
        b, it = stack[-1]
        for s in it:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(succs[s])))
                break
        else:
            stack.pop()
            post.append(b)
    return post[::-1]


def _immediate_dominators(order, preds):
    """``idom`` of every block in ``order`` (a reverse postorder from
    block 0), by the Cooper–Harvey–Kennedy iteration."""
    rank = {b: i for i, b in enumerate(order)}
    idom = {order[0]: order[0]}
    changed = True
    while changed:
        changed = False
        for b in order[1:]:
            new = None
            for p in preds[b]:
                if p not in idom:
                    continue
                if new is None:
                    new = p
                    continue
                a = p
                while a != new:
                    while rank[a] > rank[new]:
                        a = idom[a]
                    while rank[new] > rank[a]:
                        new = idom[new]
            if idom.get(b) != new:
                idom[b] = new
                changed = True
    return idom


class LoopLayout:
    """Where each block's arm sits in a unit: the loop regions the
    emitter nests as ``while True`` loops, and how a jump between two
    arms is spelled.

    A region is a natural loop: a header ``h`` that dominates every
    block of the loop, entered only through ``h``.  Regions nest; a
    *chain* is the ``if bi == k`` arms of one ``while``: ``-1`` names the
    top-level chain, a header names its region's.  A chain's arms are its
    own blocks and one arm per child region (keyed by the child's
    header), in :attr:`chains` order: a region's header first, then by
    block index.  A jump to a later arm of the same chain falls forward
    through the arms between; to an earlier one it ``continue``\\ s; out
    of the chain it ``break``\\ s, and each enclosing ``while`` breaks on
    (its chain's arms do not match) until one holds the target.  Where
    that chain's target arm comes *before* the region the exit left,
    :attr:`post` names it: a ``continue`` after that region's loop.

    A region whose only ``continue`` target is its header (:attr:`bare`)
    runs the header block at the top of its loop with no arm test.

    Declined, left to the enclosing chain: a loop with no dominating
    header (irreducible), and a loop nested deeper than
    :data:`MAX_LOOP_DEPTH`.  :attr:`declined` counts both.
    """

    def __init__(self, succs):
        n = len(succs)
        order = _reverse_postorder(succs) if n else []
        self.reach = frozenset(order)
        preds = {b: [] for b in order}
        for b in order:
            for s in succs[b]:
                preds[s].append(b)
        idom = _immediate_dominators(order, preds) if n else {}
        rank = {b: i for i, b in enumerate(order)}

        def dominates(h, u):
            while True:
                if u == h:
                    return True
                if u == idom[u]:
                    return False
                u = idom[u]

        latches, irreducible = {}, set()
        for u in order:
            for h in succs[u]:
                if rank[h] > rank[u]:
                    continue                  # not a retreating edge
                if dominates(h, u):
                    latches.setdefault(h, []).append(u)
                else:
                    irreducible.add(h)
        bodies = {}
        for h, srcs in latches.items():
            body = {h}
            work = [u for u in srcs if u != h]
            body.update(work)
            while work:
                for p in preds[work.pop()]:
                    if p not in body:
                        body.add(p)
                        work.append(p)
            bodies[h] = frozenset(body)

        # Outermost first, so a loop's parent is settled before it.
        self.parent, depth = {}, {}
        declined = len(irreducible)
        for h in sorted(bodies, key=lambda h: (-len(bodies[h]), h)):
            outer = [m for m in self.parent if h in bodies[m]]
            p = min(outer, key=lambda m: len(bodies[m]), default=-1)
            d = 1 + depth.get(p, 0)
            if (p != -1 and not bodies[h] <= bodies[p]) \
                    or d > MAX_LOOP_DEPTH:
                declined += 1
                continue
            self.parent[h] = p
            depth[h] = d
        self.declined = declined
        self.members = {h: bodies[h] for h in self.parent}
        region_of = [-1] * n
        for h in sorted(self.parent, key=depth.get):
            for b in bodies[h]:
                region_of[b] = h
        self.region_of = region_of

        arms = {-1: [], **{h: [] for h in self.parent}}
        for b in range(n):
            if region_of[b] != b:
                arms[region_of[b]].append(b)
        for h, p in self.parent.items():
            arms[p].append(h)
        self.chains = {c: tuple(([c] if c != -1 else []) + sorted(keys))
                       for c, keys in arms.items()}
        self._rank = {c: {k: i for i, k in enumerate(keys)}
                      for c, keys in self.chains.items()}

        post, targets = {}, {c: set() for c in self.chains}
        for b in order:
            for t in succs[b]:
                how, region = self.transfer(b, t)
                if how == CONTINUE:
                    targets[region_of[b]].add(t)
                elif region is not None:
                    post.setdefault(region, set()).add(t)
                    targets[self.parent[region]].add(t)
        self.post = {h: tuple(sorted(ts)) for h, ts in post.items()}
        self.bare = frozenset(h for h in self.parent if targets[h] <= {h})

    @property
    def loops(self):
        """Number of structured regions."""
        return len(self.parent)

    def _arm(self, chain, t):
        """The key of the arm of ``chain`` that holds block ``t``."""
        x = self.region_of[t]
        if x == chain:
            return t
        while self.parent[x] != chain:
            x = self.parent[x]
        return x

    def transfer(self, b, t):
        """How a jump from block ``b`` to block ``t`` is spelled:
        ``(how, region)``.  ``how`` is :data:`FALL`, :data:`CONTINUE` or
        :data:`BREAK`; for a break whose target arm comes before the
        region it leaves in the chain that holds it, ``region`` is that
        region (whose loop is followed by a ``continue`` on ``bi ==
        t``), else ``None``."""
        chain, child = self.region_of[b], None
        while chain != -1 and t not in self.members[chain]:
            child, chain = chain, self.parent[chain]
        rank = self._rank[chain]
        arm = self._arm(chain, t)
        if child is None:
            return (FALL if rank[arm] > rank[b] else CONTINUE), None
        return BREAK, (child if rank[arm] < rank[child] else None)


def class_deltas(classes):
    """Collapse a per-instruction op-class list into sparse, sorted
    ``(class_index, count)`` pairs — one block's batched ``op_counts``
    charge (or a rewind suffix)."""
    by_class = {}
    for cls in classes:
        by_class[cls] = by_class.get(cls, 0) + 1
    return tuple(sorted(by_class.items()))


# ---------------------------------------------------------------------------
# Source emission helpers shared by the three translators.

def literal(value):
    """Python source for one embedded constant.

    ``repr`` round-trips ints (arbitrary precision) and finite floats
    exactly; the non-literal floats are spelled out so the generated
    module needs no imports.  Strings/bools/None appear in JS bytecode
    arguments and repr cleanly.
    """
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value == float("inf"):
            return "float('inf')"
        if value == float("-inf"):
            return "float('-inf')"
        return repr(value)
    if isinstance(value, (int, str, bytes, bool)) or value is None:
        return repr(value)
    raise ValueError(f"unsupported literal {value!r}")


def literalizable(value):
    """Whether :func:`literal` can spell ``value`` — the one rule a
    translator's decline checks and its emitter share."""
    try:
        literal(value)
    except ValueError:
        return False
    return True


#: Source spellings of the two's-complement constants per width: the
#: unsigned mask ``M``, the sign bit ``S`` and the modulus ``W``.
M32, S32, W32 = "4294967295", "2147483648", "4294967296"
M64, S64, W64 = ("18446744073709551615", "9223372036854775808",
                 "18446744073709551616")
_WRAP = {32: (M32, S32, W32), 64: (M64, S64, W64)}


def emit_wrap(out, bits, target, expr):
    """Assign ``expr`` wrapped to a signed ``bits``-bit integer."""
    mask, sign, modulus = _WRAP[bits]
    out.emit(f"t_ = ({expr}) & {mask}")
    out.emit(f"{target} = t_ - {modulus} if t_ & {sign} else t_")


#: Most terms one flush statement sums.  A ``+`` chain is a left-nested
#: AST that CPython's compiler walks recursively, and translation can run
#: deep inside a recursive guest call, so longer chains are cut into
#: several statements.
FLUSH_TERMS = 100


def scaled(k, acc):
    """Source for ``k`` times the block counter ``acc``."""
    return acc if k == 1 else f"{k} * {acc}"


def emit_sum(out, target, terms, fold=False):
    """Flush one counter: add every source term in ``terms`` to
    ``target``.  An integer counter takes one ``+=`` of the summed terms
    (integer adds commute).  ``fold=True`` spells a float counter as the
    left-associative chain ``target = target + t0 + t1 ...``, which adds
    the terms one at a time in list order."""
    for i in range(0, len(terms), FLUSH_TERMS):
        chunk = " + ".join(terms[i:i + FLUSH_TERMS])
        if fold:
            out.emit(f"{target} = {target} + {chunk}")
        else:
            out.emit(f"{target} += {chunk}")


class _Indent:
    """The reusable context manager behind :meth:`Emitter.block` (one per
    emitter; re-entrant because it only counts levels)."""

    __slots__ = ("emitter",)

    def __init__(self, emitter):
        self.emitter = emitter

    def __enter__(self):
        self.emitter.indent += 1

    def __exit__(self, *exc):
        self.emitter.indent -= 1
        return False


class Emitter:
    """An indentation-tracking line buffer for generated source."""

    def __init__(self):
        self.lines = []
        self.indent = 0
        self._block = _Indent(self)

    def emit(self, text):
        if text:
            self.lines.append("    " * self.indent + text)
        else:
            self.lines.append("")

    def block(self):
        """Context manager raising the indent by one level."""
        return self._block

    def source(self):
        return "\n".join(self.lines) + "\n"


#: The statement that closes a dispatch loop no arm matched.
LOST_DISPATCH = "raise AssertionError('codegen: lost dispatch')"


#: :attr:`Operand.value` of an operand whose value is not known at
#: translation time.
UNKNOWN = object()


class Operand(NamedTuple):
    """One entry of an :class:`OperandStack`.

    ``src`` is the Python expression that reads the value: its slot
    ``s<i>`` when the value is *held* there, else a forwarded expression
    that is free of traps and side effects (a local, a literal, another
    slot, or a wasm comparison over such values).  ``reads`` names
    the variables ``src`` reads, so a write to one of them can write the
    entry out first.  ``kind`` is the Python type name the value is known
    to have (``"float"``, ``"bool"``, ``"str"``) or ``None``; ``value``
    is the value itself when it is a translation-time constant, else
    :data:`UNKNOWN`.  ``test`` is set on a deferred comparison: the value
    is ``1`` when ``test`` holds (``0`` when ``negated``), else the other
    one, and a branch on it tests ``test`` directly.
    """

    src: str
    reads: frozenset
    held: bool = False
    kind: object = None
    value: object = UNKNOWN
    test: object = None
    negated: bool = False

    @property
    def cond(self):
        """The Python condition that is true when the value is nonzero."""
        if self.test is None:
            return self.src
        return f"not ({self.test})" if self.negated else self.test


class OperandStack:
    """The abstract operand stack of a stack-machine translator: what
    each live stack position holds, in source terms, at one point of a
    block.

    Every block is entered with each live value held in its slot ``s<i>``
    (the static depths of :func:`stack_depths` name them).  Inside the
    block, pushes of locals, literals and copies of held slots are not
    emitted: the entry records the expression, and the op that consumes
    it reads that expression in place.  An entry is *written out*
    (``s<i> = <expr>``, after which it is held) only when the translator
    needs the slot itself: before a write to a variable the expression
    reads (:meth:`clobber`), and at the end of the block for every entry
    still live (:meth:`flush`), so every successor and slot list sees
    the same held slots as a translation without forwarding.

    Only values whose evaluation cannot trap, has no side effect and
    reads nothing but locals and slots are deferred, so moving their
    evaluation later (or dropping it, for a value that is popped unused)
    is unobservable.
    """

    def __init__(self):
        self.out = None
        self.entries = []

    def enter(self, out, depth):
        """Start a block entered at ``depth``: every entry held."""
        self.out = out
        self.entries = [self._held(i) for i in range(depth)]

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    @staticmethod
    def _held(i, kind=None, value=UNKNOWN):
        name = f"s{i}"
        return Operand(name, frozenset((name,)), True, kind, value)

    # -- pushes -----------------------------------------------------------

    def push(self, src, reads=(), kind=None, value=UNKNOWN, test=None,
             negated=False):
        """Push a forwarded value."""
        self.entries.append(Operand(src, frozenset(reads), False, kind,
                                    value, test, negated))

    def push_local(self, k):
        self.push(f"l{k}", (f"l{k}",))

    def push_test(self, test, reads, negated=False):
        """Push a deferred comparison: ``1`` when ``test`` holds (``0``
        when ``negated``), else the other one."""
        one, zero = ("0", "1") if negated else ("1", "0")
        self.push(f"({one} if {test} else {zero})", reads, test=test,
                  negated=negated)

    def push_const(self, src, value, kind=None):
        """Push a literal (its source ``src``, e.g. :func:`literal`)."""
        if src.startswith("-"):           # safe as any operator's operand
            src = f"({src})"
        self.push(src, (), kind, value)

    def push_copy(self, entry):
        """Push a copy of ``entry`` (``DUP``, or a store's result): a held
        entry is read from its slot (write-outs and :meth:`clobber` keep
        that read valid)."""
        self.entries.append(entry._replace(held=False))

    def slot(self, kind=None):
        """Claim the next position for a value the caller assigns to the
        returned slot name (its operands already popped and read)."""
        d = len(self.entries)
        self.clobber(f"s{d}")
        self.entries.append(self._held(d, kind))
        return f"s{d}"

    # -- pops and write-outs ------------------------------------------------

    def pop(self, n=1):
        """Pop ``n`` entries; returns them bottom first."""
        taken = self.entries[len(self.entries) - n:]
        del self.entries[len(self.entries) - n:]
        return taken

    def spill(self, i):
        """Write entry ``i`` out to its slot."""
        entry = self.entries[i]
        if entry.held:
            return
        name = f"s{i}"
        # An entry below may read this slot (a deferred comparison or a
        # store's result reads the slot of an operand its op consumed):
        # write it out first, from the old value.
        for k in range(i):
            if name in self.entries[k].reads:
                self.spill(k)
        self.out.emit(f"{name} = {entry.src}")
        self.entries[i] = self._held(i, entry.kind, entry.value)

    def clobber(self, name):
        """Write out every entry that reads variable ``name``; call before
        emitting a write to it."""
        for i, entry in enumerate(self.entries):
            if not entry.held and name in entry.reads:
                self.spill(i)

    def flush(self):
        """Write out every live entry (block end: successors and slot
        lists read held slots)."""
        for i in range(len(self.entries)):
            self.spill(i)


class FnEmitter:
    """Emits the generated source of one function: the translator
    skeleton every engine shares.

    The unit is ``make(ns)`` binding each ``ns`` name the body
    :meth:`use`\\ s, around ``run(args)``: the engine's prologue, then —
    inside ``try``/``finally`` — a ``while True`` loop over ``if bi == k``
    arms, one per basic block, which is the function's entry path.  Each
    loop region of the :class:`LoopLayout` is one arm of its enclosing
    chain, keyed by its header: a nested ``while True`` over the
    region's own arms, ended by ``break`` when none matches.  Inside it
    a back edge ``continue``\\ s the nested loop (a *bare* region runs
    its header at the loop top, untested), a jump to a later arm of the
    same chain sets ``bi`` and falls forward through the arms between,
    and a jump out of the region sets ``bi`` and ``break``\\ s, so the
    enclosing chains re-dispatch it.  Each block is emitted exactly once.
    A block counts its executions in a local ``nb<k>``; the ``finally``
    flushes the charges queued in :attr:`block_counts` with one statement
    per counter, then the profiler cells.

    An engine subclass supplies ``emit_prologue`` (frame set-up),
    ``emit_block`` (one reachable block's arm) and ``emit_exit`` (leave
    the function at a given operand depth), names its instruction
    counter (:attr:`instr_counter`), and may extend ``emit_frame_entry``,
    ``emit_finally`` and ``emit_bindings``.
    """

    #: ``ns`` name of the error an unreachable block's arm raises.
    error_name = "TrapError"
    #: Statement after the last arm, or ``""`` for none.
    dispatch_tail = ""
    #: Parameters of the generated ``run``.
    run_params = "args"
    #: The counter a block charges its instruction count to, which a
    #: trap guard rewinds: ``None`` for ``stats.instructions``, else the
    #: name of a frame-local accumulator.
    instr_counter = None

    def __init__(self, fn, code, ranges, block_index, layout, profiling,
                 entry_depth=None, max_depth=0):
        self.fn = fn
        self.code = code
        self.ranges = ranges
        self.block_index = block_index
        #: The :class:`LoopLayout` of the blocks, and the block whose arm
        #: is being emitted (the source of its jumps).
        self.layout = layout
        self.cur = None
        self.profiling = profiling
        #: Stack machines: the static operand depth each reachable block
        #: is entered at (:func:`stack_depths`) and the deepest slot.
        #: ``None`` means every block is reachable.
        self.entry_depth = entry_depth
        self.max_depth = max_depth
        self.names = set()                # ns names the source references
        #: Charges the ``finally`` flushes, per block executed ``nb<k>``
        #: times: ``{k: (cycles, instructions, [(class, count)])}``.
        self.block_counts = {}
        #: Profiler cells the ``finally`` flushes, in block order:
        #: ``[(counter source, [(profile key, count)])]``.
        self.prof_cells = []
        self.out = Emitter()
        #: Stack machines: the abstract operand stack of the block being
        #: emitted.
        self.stack = OperandStack()

    def use(self, name):
        self.names.add(name)
        return name

    def bi_of(self, pc):
        return -1 if pc >= len(self.code) else self.block_index[pc]

    def reachable(self, bi):
        return bi in self.layout.reach

    # -- engine hooks -----------------------------------------------------

    def emit_prologue(self):
        raise NotImplementedError

    def emit_block(self, bi):
        raise NotImplementedError

    def emit_exit(self, depth):
        raise NotImplementedError

    def emit_frame_entry(self):
        """Statements between zeroing the block counters and dispatch."""

    def emit_finally(self):
        self.emit_flush()

    def emit_bindings(self):
        for name in sorted(self.names):
            self.out.emit(f"{name} = ns[{name!r}]")

    # -- shared fragments -------------------------------------------------

    def emit_slots(self, init):
        """Initialise the lowered operand-stack slots ``s0..``."""
        if self.max_depth:
            self.out.emit(" = ".join(f"s{i}" for i in range(self.max_depth))
                          + f" = {init}")

    def emit_profile_frame(self):
        """Bind the function's profile frame to the local ``fprof``."""
        if self.profiling:
            self.out.emit(f"fprof = {self.use('prof_frame')}"
                          f"({self.use('fn_name')})")

    def emit_jump(self, tbi, depth=0):
        """Transfer from the block being emitted to block ``tbi``
        (``-1``: leave the function with ``depth`` operand slots live),
        spelled as :meth:`LoopLayout.transfer` says.  Returns whether the
        statements end control here; a jump that falls forward only sets
        ``bi``, so it must be the last statement of its arm."""
        layout = self.layout
        if tbi == -1:
            self.emit_exit(depth)
            return True
        how, _region = layout.transfer(self.cur, tbi)
        if how == CONTINUE and layout.region_of[self.cur] in layout.bare:
            self.out.emit("continue")     # to the header, run untested
            return True
        self.out.emit(f"bi = {tbi}")
        if how == FALL:
            return False
        self.out.emit(how)
        return True

    def emit_branch(self, cond, tbi, fall_bi, depth=0, fall_depth=0):
        """Go to block ``tbi`` when ``cond`` holds, else to ``fall_bi``
        (each with its operand depth, as :meth:`emit_jump`)."""
        out = self.out
        out.emit(f"if {cond}:")
        with out.block():
            ends = self.emit_jump(tbi, depth)
        if ends:
            self.emit_jump(fall_bi, fall_depth)
        else:
            out.emit("else:")
            with out.block():
                self.emit_jump(fall_bi, fall_depth)

    def emit_fall(self, fall_bi):
        """End a stack machine's block that has no terminator: write the
        live entries out (unless the function ends here) and go on to
        block ``fall_bi``."""
        if fall_bi != -1:
            self.stack.flush()
        self.emit_jump(fall_bi, len(self.stack))

    def emit_rewind(self, classes, idx, costs=()):
        """Restore the reference ladder's charge prefix before a trap on
        op ``idx`` of a block (op classes ``classes``) escapes: subtract
        the batched charges of the ops after it.  ``costs`` are the ops'
        cycle costs, given only by an engine that batches cycles per
        block."""
        out = self.out
        cyc_sfx = math.fsum(costs[idx + 1:])
        n_sfx = len(classes) - (idx + 1)
        if cyc_sfx:
            out.emit(f"{self.use('stats')}.cycles -= {literal(cyc_sfx)}")
        if n_sfx:
            counter = self.instr_counter or \
                f"{self.use('stats')}.instructions"
            out.emit(f"{counter} -= {n_sfx}")
        for ci, d in class_deltas(classes[idx + 1:]):
            out.emit(f"{self.use('counts')}[{ci}] -= {d}")

    def guarded(self, body_lines, classes, idx, costs=()):
        """Emit trap-capable statements inside a guard that runs
        :meth:`emit_rewind` before the trap escapes; a trap on the
        block's last op has nothing to rewind, so it takes no guard."""
        out = self.out
        if idx + 1 >= len(classes):
            for line in body_lines:
                out.emit(line)
            return
        out.emit("try:")
        with out.block():
            for line in body_lines:
                out.emit(line)
        out.emit("except BaseException:")
        with out.block():
            self.emit_rewind(classes, idx, costs)
            out.emit("raise")

    def count_block(self, bi, classes, instructions=0, cycles=0.0):
        """Count one entry of block ``bi`` and queue its batched charges
        (op classes ``classes``, plus ``instructions``/``cycles`` when the
        engine batches those per block) for the flush."""
        self.out.emit(f"nb{bi} += 1")
        self.block_counts[bi] = (cycles, instructions, class_deltas(classes))

    def emit_flush(self):
        """Apply the per-block charges the dispatch loop accumulated.
        Runs once, in the ``finally``, covering returns and escaping
        traps alike.  Each counter gets one statement
        summing its per-block terms (integer adds commute); cycles, which
        only an engine on an exact grid batches, fold left in block
        order.  Profiler cells stay guarded per cell."""
        out = self.out
        cycles, instructions, classes = [], [], {}
        for bi, (blk_cycles, n_ops, deltas) in self.block_counts.items():
            acc = f"nb{bi}"
            if blk_cycles:
                cycles.append(f"{literal(blk_cycles)} * {acc}")
            if n_ops:
                instructions.append(scaled(n_ops, acc))
            for ci, dc in deltas:
                classes.setdefault(ci, []).append(scaled(dc, acc))
        if cycles:
            emit_sum(out, f"{self.use('stats')}.cycles", cycles, fold=True)
        if instructions:
            emit_sum(out, f"{self.use('stats')}.instructions", instructions)
        for ci in sorted(classes):
            emit_sum(out, f"{self.use('counts')}[{ci}]", classes[ci])
        for acc, prof in self.prof_cells:
            out.emit(f"if {acc}:")
            with out.block():
                for key, dc in prof:
                    out.emit(f"fprof[{key}] = fprof.get({key}, 0) + "
                             f"{scaled(dc, acc)}")

    # -- the unit ---------------------------------------------------------

    def emit_body(self, bi):
        """The statements of block ``bi``, the source of the jumps they
        emit."""
        self.cur = bi
        if self.reachable(bi):
            self.emit_block(bi)
        else:                             # CFG-unreachable: never entered
            self.out.emit(f"raise {self.use(self.error_name)}"
                          f"('codegen: entered unreachable block {bi}')")

    def emit_arm(self, bi):
        self.out.emit(f"if bi == {bi}:")
        with self.out.block():
            self.emit_body(bi)

    def emit_chain(self, chain):
        """The arms of one chain (``-1``: the top level), in order."""
        layout = self.layout
        for key in layout.chains[chain]:
            if key == chain and key in layout.bare:
                self.emit_body(key)
            elif key != chain and key in layout.chains:
                self.emit_loop(key)
            else:
                self.emit_arm(key)

    def emit_loop(self, header):
        """The arm of the loop region headed by ``header``: its chain in a
        nested ``while``, then the ``continue`` that re-dispatches an exit
        to an earlier arm of the enclosing chain."""
        out = self.out
        out.emit(f"if bi == {header}:")
        with out.block():
            out.emit("while True:")
            with out.block():
                self.emit_chain(header)
                out.emit("break")
            post = self.layout.post.get(header)
            if post:
                out.emit(f"if bi == {post[0]}:" if len(post) == 1
                         else f"if bi in {post}:")
                with out.block():
                    out.emit("continue")

    def build(self):
        out = self.out
        body = self.out = Emitter()
        with body.block(), body.block():  # inside make(), inside run()
            self.emit_prologue()
            if not self.ranges:
                self.emit_exit(0)
            else:
                body.emit(" = ".join(f"nb{bi}" for bi in range(len(
                    self.ranges)) if self.reachable(bi)) + " = 0")
                self.emit_frame_entry()
                body.emit("try:")
                with body.block():
                    body.emit("bi = 0")
                    body.emit("while True:")
                    with body.block():
                        self.emit_chain(-1)
                        if self.dispatch_tail:
                            body.emit(self.dispatch_tail)
                body.emit("finally:")
                with body.block():
                    self.emit_finally()
        self.out = out
        out.emit("def make(ns):")
        with out.block():
            self.emit_bindings()
            out.emit(f"def run({self.run_params}):")
            out.lines.extend(body.lines)
            out.emit("return run")
        return out.source()


# ---------------------------------------------------------------------------
# Translation bookkeeping: ``interp.<engine>.codegen_*`` counters.

def _count(engine, what, n=1):
    get_registry().counter_add(f"interp.{engine}.codegen_{what}", n, SCHED)


def declined(engine):
    """Count a declined function; returns ``None`` (the decline)."""
    _count(engine, "declined")
    return None


def translated(engine, n_blocks, layout):
    """Count one translated function of ``n_blocks`` blocks, and the
    loop regions its :class:`LoopLayout` structured and declined."""
    _count(engine, "functions")
    _count(engine, "blocks", n_blocks)
    _count(engine, "loops", layout.loops)
    _count(engine, "loops_declined", layout.declined)


# ---------------------------------------------------------------------------
# The translation-unit cache: units (source + marshalled code object) live
# in the process-global artifact store, beside compiled artifacts and
# memoized results.  The compiled ``make`` factory is memoized by each
# translator on the function's ``plans``, beside the plan it was built
# from, so it lives exactly as long as the code it runs.

def reset_cache():
    """Drop the in-process layers (tests: cold/warm differentials): the
    artifact store's memory layer and every value derived from program
    inputs (:mod:`repro.cache.derived`: preprocessed sources, JS script
    templates, prepared Wasm bodies, translation plans and their
    compiled factories)."""
    get_cache().forget()
    clear_derived()


def unit_key(engine, parts):
    """Content-address one translation unit.

    ``parts`` must pin everything the emitted source depends on: the
    prepared code (its repr), and every translation flag folded into the
    source (profiling, JIT enablement).  The package
    code fingerprint invalidates on any translator edit; the interpreter
    ``cache_tag`` scopes the marshalled code object to the bytecode
    format that produced it.
    """
    from repro.cache.keys import code_fingerprint
    digest = hashlib.sha256()
    for part in ("repro-codegen", SCHEMA_VERSION, code_fingerprint(),
                 importlib.util.MAGIC_NUMBER.hex(), engine, *parts):
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def load_factory(engine, key, build_source):
    """Compile the ``make`` factory for one translation unit.

    The store (source + marshalled code object) skips ``build_source``
    *and* ``compile``; a miss builds and stores both.  The factory is the
    module-level ``make`` function of the generated source; callers
    memoize it beside the unit's plan and invoke it once per engine
    instance with the pre-bound namespace.  With the store's disk layer
    on, units bypass its memory layer: the factory memo already keeps
    what a unit is loaded for, and a unit in the memory layer would take
    the place of a compiled artifact under a capped layer.
    """
    reg = get_registry()
    filename = f"<repro-codegen:{engine}:{key[:12]}>"
    store = get_cache()
    memory = not store.disk
    entry = store.get(key, memory)
    code = None
    source = None
    if isinstance(entry, tuple) and len(entry) == 4 \
            and entry[0] == _TAG and entry[1] == SCHEMA_VERSION:
        source = entry[2]
        try:
            code = marshal.loads(entry[3])
        except (ValueError, EOFError, TypeError):
            code = None                   # foreign bytecode: recompile
        reg.counter_add(f"interp.{engine}.codegen_cache_hits", 1, SCHED)
    if source is None:
        source = build_source()
        reg.counter_add(f"interp.{engine}.codegen_cache_misses", 1, SCHED)
    if code is None:
        code = compile(source, filename, "exec")
        store.put(key, (_TAG, SCHEMA_VERSION, source, marshal.dumps(code)),
                  memory)
    namespace = {}
    exec(code, namespace)
    factory = namespace["make"]
    factory.__repro_source__ = source     # tests / debugging
    return factory
