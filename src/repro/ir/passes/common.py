"""Shared helpers for the pass implementations."""

from __future__ import annotations

from repro.ir.nodes import (
    EBin, ECall, ECast, EConst, EGlobal, ELoad, ELocal, ESelect, EUn,
    SAssign, SDoWhile, SFor, SGlobalSet, SIf, SStore, SWhile,
    child_bodies, stmt_exprs, walk_exprs, walk_stmts,
)


def map_expr(expr, fn):
    """Rebuild an expression bottom-up: ``fn`` sees each node after its
    children were rewritten and returns the replacement."""
    if isinstance(expr, EBin):
        expr.left = map_expr(expr.left, fn)
        expr.right = map_expr(expr.right, fn)
    elif isinstance(expr, EUn):
        expr.expr = map_expr(expr.expr, fn)
    elif isinstance(expr, ECast):
        expr.expr = map_expr(expr.expr, fn)
    elif isinstance(expr, ECall):
        expr.args = [map_expr(a, fn) for a in expr.args]
    elif isinstance(expr, ELoad):
        expr.indices = [map_expr(i, fn) for i in expr.indices]
    elif isinstance(expr, ESelect):
        expr.cond = map_expr(expr.cond, fn)
        expr.then = map_expr(expr.then, fn)
        expr.els = map_expr(expr.els, fn)
    return fn(expr)


def map_stmt_exprs(stmt, fn):
    """Apply :func:`map_expr` to every expression of one statement."""
    if isinstance(stmt, (SAssign, SGlobalSet)):
        stmt.expr = map_expr(stmt.expr, fn)
    elif isinstance(stmt, SStore):
        stmt.indices = [map_expr(i, fn) for i in stmt.indices]
        stmt.expr = map_expr(stmt.expr, fn)
    elif isinstance(stmt, SIf):
        stmt.cond = map_expr(stmt.cond, fn)
    elif isinstance(stmt, (SWhile, SDoWhile)):
        stmt.cond = map_expr(stmt.cond, fn)
    elif isinstance(stmt, SFor):
        if stmt.cond is not None:
            stmt.cond = map_expr(stmt.cond, fn)
    else:
        from repro.ir.nodes import SExpr, SReturn
        if isinstance(stmt, SReturn) and stmt.expr is not None:
            stmt.expr = map_expr(stmt.expr, fn)
        elif isinstance(stmt, SExpr):
            stmt.expr = map_expr(stmt.expr, fn)


def expr_is_pure(expr):
    """True if the expression has no calls (loads count as pure)."""
    return not any(isinstance(e, ECall) for e in walk_exprs(expr))


def expr_key(expr):
    """Canonical structural key for CSE/LICM value numbering."""
    if isinstance(expr, EConst):
        return ("c", expr.value, expr.type, expr.no_fold)
    if isinstance(expr, ELocal):
        return ("l", expr.name)
    if isinstance(expr, EGlobal):
        return ("g", expr.name)
    if isinstance(expr, ELoad):
        return ("ld", expr.array) + tuple(expr_key(i) for i in expr.indices)
    if isinstance(expr, EBin):
        return ("b", expr.op, expr.type, expr_key(expr.left),
                expr_key(expr.right))
    if isinstance(expr, EUn):
        return ("u", expr.op, expr_key(expr.expr))
    if isinstance(expr, ECast):
        return ("cast", expr.type, expr.no_fold, expr_key(expr.expr))
    if isinstance(expr, ESelect):
        return ("sel", expr_key(expr.cond), expr_key(expr.then),
                expr_key(expr.els))
    if isinstance(expr, ECall):
        return ("call", expr.name) + tuple(expr_key(a) for a in expr.args)
    return ("?", id(expr))


def expr_size(expr):
    return sum(1 for _ in walk_exprs(expr))


def collect_reads(body):
    """Local names read anywhere in a body."""
    names = set()
    for stmt in walk_stmts(body):
        for root in stmt_exprs(stmt):
            for e in walk_exprs(root):
                if isinstance(e, ELocal):
                    names.add(e.name)
    return names


def collect_writes(body):
    """(assigned locals, stored arrays, set globals) of a body."""
    locals_w = set()
    arrays_w = set()
    globals_w = set()
    for stmt in walk_stmts(body):
        if isinstance(stmt, SAssign):
            locals_w.add(stmt.name)
        elif isinstance(stmt, SStore):
            arrays_w.add(stmt.array)
        elif isinstance(stmt, SGlobalSet):
            globals_w.add(stmt.name)
    return locals_w, arrays_w, globals_w
