"""Uncertain/deterministic tuple classification (paper section 3.2).

At any predicate ``x θ y`` involving uncertain values, G-OLA classifies
input tuples into the *deterministic set* (``R(x) ∩ R(y) = ∅`` — the
predicate's outcome can never flip during online processing) and the
*uncertain set* (the ranges overlap — the outcome may change as the inner
aggregates refine).

We implement this with interval arithmetic plus Kleene three-valued
logic: every expression evaluates to a per-row interval ``[low, high]``
of values it can take across the variation ranges of the uncertain
values it references; comparisons then yield TRUE (holds over the whole
range product), FALSE (fails over the whole range product) or UNKNOWN.
Tuples evaluating TRUE are deterministic-pass, FALSE deterministic-fail
and UNKNOWN uncertain.  This single mechanism covers scalar thresholds
(SBI), correlated per-group thresholds (TPC-H Q17), HAVING thresholds
(Q11) and uncertain IN-membership (Q18).

Columns can be interval-valued too (``IntervalEnv.ranged``), so the
same walk classifies a table of *ranged rows*: a zone-map index (one
row per chunk, ``[min, max]``) or a group table whose aggregate
aliases carry their replica ranges.  Every verdict is monotone under
interval containment, so a TRUE/FALSE verdict over a range holds for
every value inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expr.expressions import (
    Between,
    BinaryOp,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Environment,
    Expression,
    FunctionCall,
    InList,
    InSubquery,
    Negate,
    SubqueryRef,
)
from ..storage.table import Table
from .uncertain import (
    TRI_FALSE,
    TRI_TRUE,
    TRI_UNKNOWN,
    KeyedSlotState,
    ScalarSlotState,
    SetSlotState,
)

# Monotone-increasing scalar functions through which intervals map
# endpoint-to-endpoint.
_MONOTONE_FUNCTIONS = frozenset({"sqrt", "exp", "ln", "log", "log2", "log10"})


@dataclass
class IntervalEnv:
    """Everything interval evaluation needs.

    ``slots`` holds the current slot states; ``point`` is the matching
    point environment (used verbatim for certain sub-expressions, which
    collapse to degenerate intervals).  ``ranged`` maps column names to
    per-row ``(lows, highs)`` that those columns evaluate to instead of
    their values; per-tuple classification leaves it empty.
    """

    slots: Dict[int, object] = field(default_factory=dict)
    point: Environment = field(default_factory=Environment)
    ranged: Dict[str, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )


def _certain(expr: Expression, env: IntervalEnv) -> bool:
    """No subquery slot and no ranged column: a plain point expression."""
    return not expr.subquery_slots() and (
        not env.ranged or env.ranged.keys().isdisjoint(expr.references())
    )


def _is_text(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "OSU"


def _unbounded(n: int) -> Tuple[np.ndarray, np.ndarray]:
    return np.full(n, -np.inf), np.full(n, np.inf)


def _point(expr: Expression, table: Table, env: IntervalEnv) -> np.ndarray:
    raw = expr.evaluate(table, env.point)
    try:
        arr = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        arr = np.asarray(raw)  # strings compare in their own dtype
    if arr.ndim == 0:
        arr = np.full(table.num_rows, arr)
    return arr


def interval_eval(expr: Expression, table: Table,
                  env: IntervalEnv) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row value intervals of ``expr`` across all variation ranges.

    Certain expressions return degenerate intervals; conservative
    over-approximation (never under-approximation) is used where exact
    interval propagation is not available, so classification errs toward
    "uncertain" — which is always safe, merely less efficient.
    """
    return _interval(expr, table, env)


def tri_eval(expr: Expression, table: Table, env: IntervalEnv) -> np.ndarray:
    """Three-valued truth of a predicate per tuple (TRI_* encoding)."""
    return _tri(expr, table, env)


def tri_eval_ranged(expr: Expression, table: Table,
                    env: IntervalEnv) -> np.ndarray:
    """:func:`tri_eval` over ranged rows — zone-map chunks or groups.

    The same walk under its own name, so callers that count classified
    tuples through ``tri_eval`` never count chunks or groups.
    """
    return _tri(expr, table, env)


def _interval(expr: Expression, table: Table,
              env: IntervalEnv) -> Tuple[np.ndarray, np.ndarray]:
    if _certain(expr, env):
        point = _point(expr, table, env)
        return point, point.copy()

    if isinstance(expr, ColumnRef):
        return env.ranged[expr.name]

    n = table.num_rows
    if isinstance(expr, SubqueryRef):
        state = env.slots.get(expr.slot)
        if state is None:
            raise ExecutionError(f"no state for subquery slot {expr.slot}")
        if isinstance(state, ScalarSlotState):
            return (np.full(n, state.vrange.low),
                    np.full(n, state.vrange.high))
        if isinstance(state, KeyedSlotState):
            if not _certain(expr.correlation, env):
                return _unbounded(n)
            keys = np.asarray(expr.correlation.evaluate(table, env.point))
            return state.interval_for_keys(keys)
        raise ExecutionError(
            f"slot {expr.slot} is a set; use IN, not a scalar reference"
        )

    # Text intervals only order bare columns and literals; string
    # arithmetic (concatenation) and CASE over them stay conservative.
    if isinstance(expr, Negate):
        low, high = _interval(expr.operand, table, env)
        return -high, -low

    if isinstance(expr, BinaryOp):
        a_lo, a_hi = _interval(expr.left, table, env)
        b_lo, b_hi = _interval(expr.right, table, env)
        if _is_text(a_lo) or _is_text(b_lo):
            return _unbounded(n)
        if expr.op == "+":
            return a_lo + b_lo, a_hi + b_hi
        if expr.op == "-":
            return a_lo - b_hi, a_hi - b_lo
        if expr.op == "*":
            products = np.stack(
                [a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi]
            )
            return products.min(axis=0), products.max(axis=0)
        if expr.op == "/":
            crosses_zero = (b_lo <= 0) & (b_hi >= 0)
            safe_b_lo = np.where(crosses_zero, 1.0, b_lo)
            safe_b_hi = np.where(crosses_zero, 1.0, b_hi)
            quotients = np.stack(
                [a_lo / safe_b_lo, a_lo / safe_b_hi,
                 a_hi / safe_b_lo, a_hi / safe_b_hi]
            )
            low = np.where(crosses_zero, -np.inf, quotients.min(axis=0))
            high = np.where(crosses_zero, np.inf, quotients.max(axis=0))
            return low, high
        # Modulo over an uncertain operand: conservative.
        return _unbounded(n)

    if isinstance(expr, FunctionCall) and expr.name in _MONOTONE_FUNCTIONS:
        low, high = _interval(expr.args[0], table, env)
        fn = env.point.functions.lookup(expr.name)
        with np.errstate(divide="ignore", invalid="ignore"):
            low, high = fn(low), fn(high)
        # Past the domain's edge (sqrt or log of a negative) a value is
        # NaN, which no interval bounds: decide nothing there.
        nan = np.isnan(low) | np.isnan(high)
        if nan.any():
            low = np.where(nan, -np.inf, low)
            high = np.where(nan, np.inf, high)
        return low, high

    if isinstance(expr, CaseWhen):
        # Union of reachable branch intervals under three-valued guards.
        low = np.full(n, np.inf)
        high = np.full(n, -np.inf)
        undecided = np.ones(n, dtype=bool)
        for cond, value in expr.whens:
            tri = _tri(cond, table, env)
            reachable = undecided & (tri != TRI_FALSE)
            v_lo, v_hi = _interval(value, table, env)
            if _is_text(v_lo):
                return _unbounded(n)
            low = np.where(reachable, np.minimum(low, v_lo), low)
            high = np.where(reachable, np.maximum(high, v_hi), high)
            undecided &= tri != TRI_TRUE
        if expr.otherwise is not None:
            v_lo, v_hi = _interval(expr.otherwise, table, env)
            if _is_text(v_lo):
                return _unbounded(n)
        else:
            v_lo = v_hi = np.zeros(n)
        low = np.where(undecided, np.minimum(low, v_lo), low)
        high = np.where(undecided, np.maximum(high, v_hi), high)
        return low, high

    # Anything else over uncertain inputs: fully conservative.
    return _unbounded(n)


def _tri(expr: Expression, table: Table, env: IntervalEnv) -> np.ndarray:
    n = table.num_rows
    if _certain(expr, env):
        point = np.broadcast_to(
            np.asarray(expr.evaluate(table, env.point), dtype=bool), (n,)
        )
        return np.where(point, TRI_TRUE, TRI_FALSE).astype(np.int8)

    if isinstance(expr, Comparison):
        a_lo, a_hi = _interval(expr.left, table, env)
        b_lo, b_hi = _interval(expr.right, table, env)
        if _is_text(a_lo) != _is_text(b_lo):
            return np.full(n, TRI_UNKNOWN, dtype=np.int8)
        return tri_compare(expr.op, a_lo, a_hi, b_lo, b_hi)

    if isinstance(expr, BooleanOp):
        if expr.op == "NOT":
            return (TRI_TRUE - _tri(expr.operands[0], table, env)
                    + TRI_FALSE).astype(np.int8)
        parts = [_tri(o, table, env) for o in expr.operands]
        out = parts[0]
        for part in parts[1:]:
            out = np.minimum(out, part) if expr.op == "AND" \
                else np.maximum(out, part)
        return out.astype(np.int8)

    if isinstance(expr, Between):
        lower = Comparison("<=", expr.low, expr.value)
        upper = Comparison("<=", expr.value, expr.high)
        return np.minimum(
            _tri(lower, table, env), _tri(upper, table, env)
        ).astype(np.int8)

    if isinstance(expr, InSubquery):
        if not _certain(expr.value, env):
            return np.full(n, TRI_UNKNOWN, dtype=np.int8)
        state = env.slots.get(expr.slot)
        if not isinstance(state, SetSlotState):
            raise ExecutionError(
                f"slot {expr.slot} is not a set subquery"
            )
        keys = np.asarray(expr.value.evaluate(table, env.point))
        tri = state.tri_for_keys(keys)
        if expr.negated:
            tri = (TRI_TRUE - tri + TRI_FALSE).astype(np.int8)
        return tri

    if isinstance(expr, InList):
        low, high = _interval(expr.value, table, env)
        degenerate = low == high
        out = np.full(n, TRI_UNKNOWN, dtype=np.int8)
        if degenerate.any():
            member = np.zeros(n, dtype=bool)
            for option in expr.options:
                member |= low == option
            out[degenerate & member] = TRI_TRUE
            out[degenerate & ~member] = TRI_FALSE
        return out

    # Unknown predicate shape over uncertain inputs: conservative.
    return np.full(n, TRI_UNKNOWN, dtype=np.int8)


def tri_compare(op: str, a_lo, a_hi, b_lo, b_hi) -> np.ndarray:
    """TRI_* verdict of ``[a_lo, a_hi] op [b_lo, b_hi]`` per row."""
    shape = np.broadcast(a_lo, b_lo).shape
    out = np.full(shape, TRI_UNKNOWN, dtype=np.int8)
    if op == "<":
        out[a_hi < b_lo] = TRI_TRUE
        out[a_lo >= b_hi] = TRI_FALSE
    elif op == "<=":
        out[a_hi <= b_lo] = TRI_TRUE
        out[a_lo > b_hi] = TRI_FALSE
    elif op == ">":
        out[a_lo > b_hi] = TRI_TRUE
        out[a_hi <= b_lo] = TRI_FALSE
    elif op == ">=":
        out[a_lo >= b_hi] = TRI_TRUE
        out[a_hi < b_lo] = TRI_FALSE
    elif op == "=":
        disjoint = (a_hi < b_lo) | (b_hi < a_lo)
        exact = (a_lo == a_hi) & (b_lo == b_hi) & (a_lo == b_lo)
        out[disjoint] = TRI_FALSE
        out[exact] = TRI_TRUE
    elif op == "!=":
        disjoint = (a_hi < b_lo) | (b_hi < a_lo)
        exact = (a_lo == a_hi) & (b_lo == b_hi) & (a_lo == b_lo)
        out[disjoint] = TRI_TRUE
        out[exact] = TRI_FALSE
    else:
        raise ExecutionError(f"unknown comparison {op!r}")
    return out


def classify(predicates, table: Table, env: IntervalEnv) -> np.ndarray:
    """Classify rows under a conjunction of predicates.

    Returns a TRI_* array: TRI_TRUE rows are deterministic-pass,
    TRI_FALSE deterministic-fail, TRI_UNKNOWN form the uncertain set.
    """
    if table.num_rows == 0:
        return np.empty(0, dtype=np.int8)
    out = np.full(table.num_rows, TRI_TRUE, dtype=np.int8)
    for predicate in predicates:
        out = np.minimum(out, tri_eval(predicate, table, env))
        if not out.any():  # everything already deterministic-fail
            break
    return out.astype(np.int8)
