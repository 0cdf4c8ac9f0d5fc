"""AST → bytecode compiler for the JS engine.

Scope model: function parameters and ``var``/``let`` declarations inside a
function body become numbered local slots; everything else resolves to the
global object at run time.  Top-level declarations are globals.  (Closures
are outside the subset — none of Cheerp's output or the paper's benchmark
programs need them.)
"""

from __future__ import annotations

from repro.errors import CompileError
from repro.jsengine.bytecode import JsOp
from repro.jsengine.values import JSFunction

_BINOP = {
    "+": JsOp.ADD, "-": JsOp.SUB, "*": JsOp.MUL, "/": JsOp.DIV,
    "%": JsOp.MOD, "&": JsOp.BAND, "|": JsOp.BOR, "^": JsOp.BXOR,
    "<<": JsOp.SHL, ">>": JsOp.SHR, ">>>": JsOp.USHR,
    "<": JsOp.LT, "<=": JsOp.LE, ">": JsOp.GT, ">=": JsOp.GE,
    "==": JsOp.EQ, "!=": JsOp.NE, "===": JsOp.SEQ, "!==": JsOp.SNE,
}

_COMPOUND = {"+=": JsOp.ADD, "-=": JsOp.SUB, "*=": JsOp.MUL, "/=": JsOp.DIV,
             "%=": JsOp.MOD, "&=": JsOp.BAND, "|=": JsOp.BOR,
             "^=": JsOp.BXOR, "<<=": JsOp.SHL, ">>=": JsOp.SHR,
             ">>>=": JsOp.USHR}


def _hoist_vars(node, names):
    """Collect var/let declarations (function-scoped hoisting)."""
    kind = node[0]
    if kind == "var":
        for name, _ in node[1]:
            names.append(name)
    elif kind == "block":
        for stmt in node[1]:
            _hoist_vars(stmt, names)
    elif kind == "if":
        _hoist_vars(node[2], names)
        if node[3] is not None:
            _hoist_vars(node[3], names)
    elif kind == "while":
        _hoist_vars(node[2], names)
    elif kind == "dowhile":
        _hoist_vars(node[1], names)
    elif kind == "for":
        if node[1] is not None:
            _hoist_vars(node[1], names)
        _hoist_vars(node[4], names)


class _FunctionCompiler:
    def __init__(self, name, params, body, toplevel=False):
        self.name = name
        self.toplevel = toplevel
        self.code = []
        self.loops = []  # stack of (break_patches, continue_patches)
        self.slots = {}
        self.inner_functions = []
        if not toplevel:
            for p in params:
                self.slots[p] = len(self.slots)
            hoisted = []
            _hoist_vars(body, hoisted)
            for name_ in hoisted:
                if name_ not in self.slots:
                    self.slots[name_] = len(self.slots)
        self.params = params
        self.body = body

    # -- emission helpers --------------------------------------------------

    def emit(self, op, arg=None):
        self.code.append((int(op), arg))
        return len(self.code) - 1

    def patch(self, pc, target=None):
        op, _ = self.code[pc]
        self.code[pc] = (op, target if target is not None else len(self.code))

    # -- top level ----------------------------------------------------------

    def compile(self):
        self.compile_statement(self.body)
        self.emit(JsOp.RETU)
        # Frozen: every engine that loads the script shares this code.
        return JSFunction(self.name, tuple(self.params), tuple(self.code),
                          len(self.slots))

    # -- statements ----------------------------------------------------------

    def compile_statement(self, node):
        kind = node[0]
        if kind == "block":
            for stmt in node[1]:
                self.compile_statement(stmt)
        elif kind == "expr":
            self.compile_expression(node[1])
            self.emit(JsOp.POP)
        elif kind == "var":
            for name, init in node[1]:
                if init is None:
                    continue
                self.compile_expression(init)
                self.emit_store_name(name)
        elif kind == "if":
            self.compile_expression(node[1])
            jf = self.emit(JsOp.JF)
            self.compile_statement(node[2])
            if node[3] is not None:
                jend = self.emit(JsOp.JMP)
                self.patch(jf)
                self.compile_statement(node[3])
                self.patch(jend)
            else:
                self.patch(jf)
        elif kind == "while":
            start = len(self.code)
            self.compile_expression(node[1])
            jf = self.emit(JsOp.JF)
            self.loops.append(([], []))
            self.compile_statement(node[2])
            breaks, continues = self.loops.pop()
            for pc in continues:
                self.patch(pc, start)
            self.emit(JsOp.JBACK, start)
            self.patch(jf)
            for pc in breaks:
                self.patch(pc)
        elif kind == "dowhile":
            start = len(self.code)
            self.loops.append(([], []))
            self.compile_statement(node[1])
            breaks, continues = self.loops.pop()
            cond_pc = len(self.code)
            for pc in continues:
                self.patch(pc, cond_pc)
            self.compile_expression(node[2])
            jf = self.emit(JsOp.JF)
            self.emit(JsOp.JBACK, start)
            self.patch(jf)
            for pc in breaks:
                self.patch(pc)
        elif kind == "for":
            if node[1] is not None:
                self.compile_statement(node[1])
            start = len(self.code)
            jf = None
            if node[2] is not None:
                self.compile_expression(node[2])
                jf = self.emit(JsOp.JF)
            self.loops.append(([], []))
            self.compile_statement(node[4])
            breaks, continues = self.loops.pop()
            update_pc = len(self.code)
            for pc in continues:
                self.patch(pc, update_pc)
            if node[3] is not None:
                self.compile_expression(node[3])
                self.emit(JsOp.POP)
            self.emit(JsOp.JBACK, start)
            if jf is not None:
                self.patch(jf)
            for pc in breaks:
                self.patch(pc)
        elif kind == "return":
            if node[1] is not None:
                self.compile_expression(node[1])
                self.emit(JsOp.RET)
            else:
                self.emit(JsOp.RETU)
        elif kind == "break":
            if not self.loops:
                raise CompileError("break outside loop")
            self.loops[-1][0].append(self.emit(JsOp.JMP))
        elif kind == "continue":
            if not self.loops:
                raise CompileError("continue outside loop")
            self.loops[-1][1].append(self.emit(JsOp.JMP))
        elif kind == "func":
            # Nested/toplevel function declaration: compiled separately and
            # installed as a global before execution starts (hoisting).
            sub = _FunctionCompiler(node[1], node[2], node[3])
            fn = sub.compile()
            self.inner_functions.append(fn)
            self.inner_functions.extend(sub.inner_functions)
        elif kind == "empty":
            pass
        else:
            raise CompileError(f"cannot compile statement {kind!r}")

    def emit_store_name(self, name):
        if name in self.slots:
            self.emit(JsOp.STOREL, self.slots[name])
        else:
            self.emit(JsOp.STOREG, name)

    def emit_load_name(self, name):
        if name in self.slots:
            self.emit(JsOp.LOADL, self.slots[name])
        else:
            self.emit(JsOp.LOADG, name)

    # -- expressions ---------------------------------------------------------

    def compile_expression(self, node):
        kind = node[0]
        if kind == "num":
            self.emit(JsOp.CONST, float(node[1]))
        elif kind == "str":
            self.emit(JsOp.CONST, node[1])
        elif kind == "bool":
            self.emit(JsOp.CONST, node[1])
        elif kind == "null":
            self.emit(JsOp.CONST, None)
        elif kind == "undefined":
            from repro.jsengine.values import UNDEFINED
            self.emit(JsOp.CONST, UNDEFINED)
        elif kind == "ident":
            self.emit_load_name(node[1])
        elif kind == "bin":
            if node[1] == ",":
                self.compile_expression(node[2])
                self.emit(JsOp.POP)
                self.compile_expression(node[3])
            else:
                self.compile_expression(node[2])
                self.compile_expression(node[3])
                self.emit(_BINOP[node[1]])
        elif kind == "logical":
            self.compile_expression(node[2])
            self.emit(JsOp.DUP)
            skip = self.emit(JsOp.JF if node[1] == "&&" else JsOp.JT)
            self.emit(JsOp.POP)
            self.compile_expression(node[3])
            self.patch(skip)
        elif kind == "un":
            if node[1] == "typeof":
                self.compile_expression(node[2])
                self.emit(JsOp.TYPEOF)
            elif node[1] == "+":
                self.compile_expression(node[2])
            else:
                self.compile_expression(node[2])
                self.emit({"-": JsOp.NEG, "!": JsOp.NOT,
                           "~": JsOp.BNOT}[node[1]])
        elif kind == "assign":
            self.compile_assignment(node)
        elif kind == "cond":
            self.compile_expression(node[1])
            jf = self.emit(JsOp.JF)
            self.compile_expression(node[2])
            jend = self.emit(JsOp.JMP)
            self.patch(jf)
            self.compile_expression(node[3])
            self.patch(jend)
        elif kind == "call":
            callee = node[1]
            if callee == ("member", ("ident", "Math"), "imul") and \
                    len(node[2]) == 2:
                # Engines intrinsify Math.imul — so do we.
                self.compile_expression(node[2][0])
                self.compile_expression(node[2][1])
                self.emit(JsOp.IMUL)
            elif callee[0] == "member":
                self.compile_expression(callee[1])
                for arg in node[2]:
                    self.compile_expression(arg)
                self.emit(JsOp.METHOD, (callee[2], len(node[2])))
            else:
                self.compile_expression(callee)
                for arg in node[2]:
                    self.compile_expression(arg)
                self.emit(JsOp.CALL, len(node[2]))
        elif kind == "new":
            self.compile_expression(node[1])
            for arg in node[2]:
                self.compile_expression(arg)
            self.emit(JsOp.NEWCALL, len(node[2]))
        elif kind == "member":
            self.compile_expression(node[1])
            self.emit(JsOp.GETMEM, node[2])
        elif kind == "index":
            self.compile_expression(node[1])
            self.compile_expression(node[2])
            self.emit(JsOp.GETIDX)
        elif kind == "array":
            for elem in node[1]:
                self.compile_expression(elem)
            self.emit(JsOp.NEWARR, len(node[1]))
        elif kind == "object":
            keys = tuple(k for k, _ in node[1])
            for _, value in node[1]:
                self.compile_expression(value)
            self.emit(JsOp.NEWOBJ, keys)
        elif kind in ("pre", "post"):
            self.compile_incdec(node)
        else:
            raise CompileError(f"cannot compile expression {kind!r}")

    def compile_assignment(self, node):
        _, op, target, value = node
        tkind = target[0]
        if tkind == "ident":
            if op == "=":
                self.compile_expression(value)
            else:
                self.emit_load_name(target[1])
                self.compile_expression(value)
                self.emit(_COMPOUND[op])
            self.emit(JsOp.DUP)
            self.emit_store_name(target[1])
        elif tkind == "member":
            self.compile_expression(target[1])
            if op == "=":
                self.compile_expression(value)
            else:
                self.emit(JsOp.DUP)
                self.emit(JsOp.GETMEM, target[2])
                self.compile_expression(value)
                self.emit(_COMPOUND[op])
            self.emit(JsOp.SETMEM, target[2])
        elif tkind == "index":
            self.compile_expression(target[1])
            self.compile_expression(target[2])
            if op == "=":
                self.compile_expression(value)
            else:
                self.emit(JsOp.DUP2)
                self.emit(JsOp.GETIDX)
                self.compile_expression(value)
                self.emit(_COMPOUND[op])
            self.emit(JsOp.SETIDX)
        else:
            raise CompileError(f"invalid assignment target {tkind!r}")

    def compile_incdec(self, node):
        kind, op, target = node
        delta = 1.0 if op == "++" else -1.0
        is_post = kind == "post"
        tkind = target[0]
        if tkind == "ident":
            self.emit_load_name(target[1])
            if is_post:
                self.emit(JsOp.DUP)
                self.emit(JsOp.CONST, delta)
                self.emit(JsOp.ADD)
                self.emit_store_name(target[1])
            else:
                self.emit(JsOp.CONST, delta)
                self.emit(JsOp.ADD)
                self.emit(JsOp.DUP)
                self.emit_store_name(target[1])
        elif tkind == "index":
            self.compile_expression(target[1])
            self.compile_expression(target[2])
            self.emit(JsOp.INCIDX, (delta, is_post))
        elif tkind == "member":
            self.compile_expression(target[1])
            self.emit(JsOp.INCMEM, (target[2], delta, is_post))
        else:
            raise CompileError(f"invalid ++/-- target {tkind!r}")


def compile_program(program_ast):
    """Compile a parsed program.

    Returns ``(toplevel_fn, functions)`` where ``functions`` is the list of
    declared :class:`JSFunction` objects (hoisted to globals)."""
    top = _FunctionCompiler("<toplevel>", [], program_ast, toplevel=True)
    toplevel_fn = top.compile()
    return toplevel_fn, top.inner_functions


def script_code_unit(toplevel_fn, functions, name="<script>"):
    """The compiled script as a :class:`~repro.engine.compilemodel.
    CodeUnit`: total bytecode size plus a static opclass census, so the
    engine's startup compile can be priced by a modeled compiler instead
    of a flat per-op constant."""
    from repro.engine.compilemodel import CodeUnit, empty_census
    from repro.jsengine.bytecode import JS_OP_CLASS
    counts = empty_census()
    total_ops = 0
    for fn in (toplevel_fn, *functions):
        total_ops += len(fn.code)
        for op, _arg in fn.code:
            counts[JS_OP_CLASS[op]] += 1
    return CodeUnit(name=name, static_instrs=total_ops,
                    functions=1 + len(functions),
                    opclass_counts=tuple(counts))
