"""IR node definitions.

Value types: ``i32``, ``u32``, ``i64``, ``u64``, ``f64``.
Array element (storage) types additionally include ``i8``/``u8``/``i16``/
``u16`` — loads widen to ``i32``/``u32``.

All nodes are small mutable classes; passes rewrite trees in place or
rebuild statement lists.
"""

from __future__ import annotations

VALUE_TYPES = ("i32", "u32", "i64", "u64", "f64")
ELEM_TYPES = VALUE_TYPES + ("i8", "u8", "i16", "u16")

_SIZES = {"i8": 1, "u8": 1, "i16": 2, "u16": 2, "i32": 4, "u32": 4,
          "i64": 8, "u64": 8, "f64": 8}


def elem_size(elem_type):
    """Storage size in bytes of an element type."""
    return _SIZES[elem_type]


def is_float(t):
    return t == "f64"


def is_signed(t):
    return t in ("i8", "i16", "i32", "i64")


def value_type_of(elem_type):
    """The value type a load of this element type produces."""
    if elem_type in ("i8", "i16"):
        return "i32"
    if elem_type in ("u8", "u16"):
        return "u32"
    return elem_type


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ("type",)


class EConst(Expr):
    """A literal. ``no_fold`` marks rematerialised constants that later
    fold passes must leave alone (the -O2 covariance mechanism, §4.2.1)."""

    __slots__ = ("value", "no_fold")

    def __init__(self, value, type_, no_fold=False):
        self.value = value
        self.type = type_
        self.no_fold = no_fold

    def __repr__(self):
        return f"EConst({self.value}:{self.type})"


class ELocal(Expr):
    __slots__ = ("name",)

    def __init__(self, name, type_):
        self.name = name
        self.type = type_

    def __repr__(self):
        return f"ELocal({self.name})"


class EGlobal(Expr):
    """Read of a scalar global."""

    __slots__ = ("name",)

    def __init__(self, name, type_):
        self.name = name
        self.type = type_

    def __repr__(self):
        return f"EGlobal({self.name})"


class ELoad(Expr):
    """Load from a global array: ``array[indices...]`` (row-major)."""

    __slots__ = ("array", "indices")

    def __init__(self, array, indices, type_):
        self.array = array
        self.indices = indices
        self.type = type_

    def __repr__(self):
        return f"ELoad({self.array}[{len(self.indices)}d])"


class EBin(Expr):
    """Binary op. ``op`` is the C operator; signedness and int/float
    behaviour derive from operand types. ``relaxed`` marks fast-math ops."""

    __slots__ = ("op", "left", "right", "relaxed")

    def __init__(self, op, left, right, type_, relaxed=False):
        self.op = op
        self.left = left
        self.right = right
        self.type = type_
        self.relaxed = relaxed

    def __repr__(self):
        return f"EBin({self.op})"


class EUn(Expr):
    """Unary op: ``neg``, ``~``, ``!``."""

    __slots__ = ("op", "expr")

    def __init__(self, op, expr, type_):
        self.op = op
        self.expr = expr
        self.type = type_


class ECast(Expr):
    """Value conversion from ``expr.type`` to ``type``. ``no_fold`` marks
    rematerialised conversions (see :class:`EConst`)."""

    __slots__ = ("expr", "no_fold")

    def __init__(self, expr, type_, no_fold=False):
        self.expr = expr
        self.type = type_
        self.no_fold = no_fold


class ECall(Expr):
    __slots__ = ("name", "args")

    def __init__(self, name, args, type_):
        self.name = name
        self.args = args
        self.type = type_

    def __repr__(self):
        return f"ECall({self.name})"


class ESelect(Expr):
    """Branchless conditional: both arms are evaluated (arms must be pure)."""

    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els, type_):
        self.cond = cond
        self.then = then
        self.els = els
        self.type = type_


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    __slots__ = ()


class SAssign(Stmt):
    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr

    def __repr__(self):
        return f"SAssign({self.name})"


class SGlobalSet(Stmt):
    __slots__ = ("name", "expr")

    def __init__(self, name, expr):
        self.name = name
        self.expr = expr

    def __repr__(self):
        return f"SGlobalSet({self.name})"


class SStore(Stmt):
    __slots__ = ("array", "indices", "expr")

    def __init__(self, array, indices, expr):
        self.array = array
        self.indices = indices
        self.expr = expr

    def __repr__(self):
        return f"SStore({self.array})"


class SIf(Stmt):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond, then, els=None):
        self.cond = cond
        self.then = then
        self.els = els or []


class SWhile(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond, body):
        self.cond = cond
        self.body = body


class SDoWhile(Stmt):
    __slots__ = ("body", "cond")

    def __init__(self, body, cond):
        self.body = body
        self.cond = cond


class SFor(Stmt):
    """C-style for. ``init`` and ``step`` are statement lists.

    ``vector_width`` > 0 marks the loop as vectorized by
    ``-vectorize-loops``; backends lower the annotation differently (SIMD on
    x86; scalarisation overhead on Wasm/JS — §4.2.1).
    """

    __slots__ = ("init", "cond", "step", "body", "vector_width")

    def __init__(self, init, cond, step, body, vector_width=0):
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body
        self.vector_width = vector_width


class SBreak(Stmt):
    __slots__ = ()


class SContinue(Stmt):
    __slots__ = ()


class SReturn(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr=None):
        self.expr = expr


class SExpr(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr):
        self.expr = expr


# ---------------------------------------------------------------------------
# Module structure
# ---------------------------------------------------------------------------

class GScalar:
    __slots__ = ("name", "type", "init")

    def __init__(self, name, type_, init=0):
        self.name = name
        self.type = type_
        self.init = init


class GArray:
    """A global array with constant dimensions, row-major."""

    __slots__ = ("name", "elem_type", "dims", "init")

    def __init__(self, name, elem_type, dims, init=None):
        self.name = name
        self.elem_type = elem_type
        self.dims = list(dims)
        self.init = init  # optional flat list of initial values

    @property
    def count(self):
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def byte_size(self):
        return self.count * elem_size(self.elem_type)


class Function:
    __slots__ = ("name", "params", "ret", "locals", "body", "exported")

    def __init__(self, name, params, ret, locals_=None, body=None,
                 exported=False):
        self.name = name
        self.params = params          # list of (name, type)
        self.ret = ret                # value type or None
        self.locals = locals_ or {}   # name -> type (params excluded)
        self.body = body or []
        self.exported = exported

    def new_temp(self, type_, hint="t"):
        index = len(self.locals)
        while f"__{hint}{index}" in self.locals:
            index += 1
        name = f"__{hint}{index}"
        self.locals[name] = type_
        return name


class Module:
    __slots__ = ("name", "globals", "arrays", "functions", "meta")

    def __init__(self, name="module"):
        self.name = name
        self.globals = {}    # name -> GScalar
        self.arrays = {}     # name -> GArray
        self.functions = {}  # name -> Function
        self.meta = {}

    def function(self, name):
        return self.functions[name]


# ---------------------------------------------------------------------------
# Traversal helpers used by the passes
# ---------------------------------------------------------------------------

def child_exprs(expr):
    """Direct sub-expressions of an expression."""
    if isinstance(expr, EBin):
        return [expr.left, expr.right]
    if isinstance(expr, EUn):
        return [expr.expr]
    if isinstance(expr, ECast):
        return [expr.expr]
    if isinstance(expr, ECall):
        return list(expr.args)
    if isinstance(expr, ELoad):
        return list(expr.indices)
    if isinstance(expr, ESelect):
        return [expr.cond, expr.then, expr.els]
    return []


def walk_exprs(expr):
    """Yield expr and all sub-expressions, pre-order."""
    yield expr
    for child in child_exprs(expr):
        yield from walk_exprs(child)


def stmt_exprs(stmt):
    """Direct expressions of a statement (not descending into bodies)."""
    if isinstance(stmt, (SAssign, SGlobalSet, SExpr)):
        return [stmt.expr]
    if isinstance(stmt, SStore):
        return list(stmt.indices) + [stmt.expr]
    if isinstance(stmt, SIf):
        return [stmt.cond]
    if isinstance(stmt, (SWhile, SDoWhile)):
        return [stmt.cond]
    if isinstance(stmt, SFor):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, SReturn):
        return [stmt.expr] if stmt.expr is not None else []
    return []


def child_bodies(stmt):
    """Nested statement lists of a statement."""
    if isinstance(stmt, SIf):
        return [stmt.then, stmt.els]
    if isinstance(stmt, SWhile):
        return [stmt.body]
    if isinstance(stmt, SDoWhile):
        return [stmt.body]
    if isinstance(stmt, SFor):
        return [stmt.init, stmt.step, stmt.body]
    return []


def walk_stmts(body):
    """Yield every statement in a body, recursively."""
    for stmt in body:
        yield stmt
        for sub in child_bodies(stmt):
            yield from walk_stmts(sub)


def walk_all_exprs(body):
    """Yield every expression under a statement list."""
    for stmt in walk_stmts(body):
        for expr in stmt_exprs(stmt):
            yield from walk_exprs(expr)
