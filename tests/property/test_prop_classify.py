"""Property-based tests: soundness of three-valued classification.

The fundamental safety property of G-OLA's delta maintenance: whenever
classification calls a tuple deterministic (TRI_TRUE / TRI_FALSE), the
point evaluation under ANY value inside the variation range must agree.
If this held only usually, folded tuples could be wrong and the final
answer would drift from the exact engine's.

The same walk runs over ranged columns (zone-map chunks, HAVING
groups), so containment is checked there too: every point inside the
column ranges evaluates inside the walk's output interval, and agrees
with every TRUE/FALSE verdict.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import IntervalEnv, ScalarSlotState, TRI_FALSE, TRI_TRUE
from repro.core.classify import interval_eval, tri_eval
from repro.estimate import VariationRange
from repro.expr.expressions import (
    Between,
    BinaryOp,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    Environment,
    FunctionCall,
    Literal,
    Negate,
    SubqueryRef,
    evaluate_mask,
)
from repro.storage import Table
from repro.storage.table import ArrayTable

finite = st.floats(min_value=-1e4, max_value=1e4,
                   allow_nan=False, allow_infinity=False)

column = arrays(np.float64, st.integers(min_value=1, max_value=40),
                elements=finite)

OPS = ["<", "<=", ">", ">=", "=", "!="]


@st.composite
def scenario(draw):
    values = draw(column)
    a = draw(finite)
    b = draw(finite)
    low, high = min(a, b), max(a, b)
    # Probe points: endpoints plus interior samples.
    probes = [low, high, (low + high) / 2]
    op = draw(st.sampled_from(OPS))
    return values, low, high, probes, op


@given(scenario())
@settings(max_examples=150, deadline=None)
def test_deterministic_decisions_hold_over_entire_range(data):
    values, low, high, probes, op = data
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=(low + high) / 2,
        replicas=np.array([low, high]),
        vrange=VariationRange(low, high),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: state.estimate}))
    predicate = Comparison(op, ColumnRef("x"), SubqueryRef(0))
    tri = tri_eval(predicate, table, env)
    for probe in probes:
        point = predicate.evaluate(
            table, Environment(scalars={0: probe})
        )
        point = np.broadcast_to(np.asarray(point, dtype=bool),
                                (table.num_rows,))
        for t, p in zip(tri, point):
            if t == TRI_TRUE:
                assert p, f"{op} claimed TRUE but probe {probe} says False"
            elif t == TRI_FALSE:
                assert not p, f"{op} claimed FALSE but probe {probe} " \
                              "says True"


@given(scenario(), finite)
@settings(max_examples=100, deadline=None)
def test_arithmetic_over_uncertain_is_sound(data, shift):
    """Same soundness through an arithmetic expression on the slot."""
    values, low, high, probes, op = data
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=(low + high) / 2,
        replicas=np.array([low, high]),
        vrange=VariationRange(low, high),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: state.estimate}))
    rhs = BinaryOp("+", SubqueryRef(0), Literal(shift))
    predicate = Comparison(op, ColumnRef("x"), rhs)
    tri = tri_eval(predicate, table, env)
    for probe in probes:
        point = np.broadcast_to(
            np.asarray(
                predicate.evaluate(table, Environment(scalars={0: probe})),
                dtype=bool,
            ),
            (table.num_rows,),
        )
        for t, p in zip(tri, point):
            if t == TRI_TRUE:
                assert p
            elif t == TRI_FALSE:
                assert not p


@given(column)
@settings(max_examples=60, deadline=None)
def test_degenerate_range_never_unknown(values):
    """With a collapsed range the classifier must be fully decisive."""
    table = Table.from_columns({"x": values})
    state = ScalarSlotState(
        slot=0, estimate=1.0, replicas=np.array([1.0, 1.0]),
        vrange=VariationRange(1.0, 1.0),
    )
    env = IntervalEnv(slots={0: state},
                      point=Environment(scalars={0: 1.0}))
    predicate = Comparison(">", ColumnRef("x"), SubqueryRef(0))
    tri = tri_eval(predicate, table, env)
    point = predicate.evaluate(table, env.point)
    np.testing.assert_array_equal(tri == TRI_TRUE, point)
    np.testing.assert_array_equal(tri == TRI_FALSE, ~np.asarray(point))


# ---------------------------------------------------------------------------
# Containment over ranged columns.
# ---------------------------------------------------------------------------

# Moderate magnitudes, and no divisor so close to zero that nested
# quotients overflow: containment is about ranges, not IEEE overflow.
moderate = st.floats(min_value=-100, max_value=100).filter(
    lambda v: v == 0.0 or abs(v) > 1e-3
)
RANGED = ("a", "b")


def _values(leaves):
    def extend(inner):
        cond = st.builds(Comparison, st.sampled_from(OPS), inner, inner)
        return st.one_of(
            st.builds(BinaryOp, st.sampled_from(["+", "-", "*", "/"]),
                      inner, inner),
            st.builds(Negate, inner),
            st.builds(lambda a: FunctionCall("sqrt", [a]), inner),
            st.builds(lambda c, a, b: CaseWhen([(c, a)], b),
                      cond, inner, inner),
        )

    return st.recursive(leaves, extend, max_leaves=5)


ranged_values = _values(st.one_of(
    st.sampled_from(RANGED).map(ColumnRef), moderate.map(Literal),
))


def _predicates(values):
    base = st.one_of(
        st.builds(Comparison, st.sampled_from(OPS), values, values),
        st.builds(Between, values, moderate.map(Literal),
                  moderate.map(Literal)),
    )
    return st.recursive(base, lambda inner: st.one_of(
        st.builds(lambda a, b: BooleanOp("AND", [a, b]), inner, inner),
        st.builds(lambda a, b: BooleanOp("OR", [a, b]), inner, inner),
        st.builds(lambda a: BooleanOp("NOT", [a]), inner),
    ), max_leaves=3)


@st.composite
def ranged_case(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    ranged = {}
    for name in RANGED:
        ends = draw(arrays(np.float64, (2, n), elements=moderate))
        ranged[name] = (ends.min(axis=0), ends.max(axis=0))
    # Probe points: both corners of the box plus interior samples.
    fractions = draw(arrays(np.float64, (3, len(RANGED), n),
                            elements=st.floats(0, 1)))
    fractions = np.concatenate([
        np.zeros((1, len(RANGED), n)), np.ones((1, len(RANGED), n)),
        fractions,
    ])
    probes = [
        Table.from_columns({
            name: np.clip(lo + f[i] * (hi - lo), lo, hi)
            for i, (name, (lo, hi)) in enumerate(ranged.items())
        })
        for f in fractions
    ]
    return n, ranged, probes


@given(ranged_case(), ranged_values, _predicates(ranged_values))
@settings(max_examples=150, deadline=None)
def test_ranged_walk_contains_every_point(case, expr, predicate):
    n, ranged, probes = case
    env = IntervalEnv(ranged=ranged)
    ranged_rows = ArrayTable({}, n)
    with np.errstate(all="ignore"):
        low, high = interval_eval(expr, ranged_rows, env)
        tri = tri_eval(predicate, ranged_rows, env)
        for probe in probes:
            value = np.broadcast_to(
                np.asarray(expr.evaluate(probe, env.point), dtype=float),
                (n,),
            )
            # A NaN point (sqrt of a negative) has no interval to sit
            # in, and a NaN interval (a certain NaN branch of a CASE)
            # is the walk's "any value": both decide nothing, which the
            # predicate half checks.
            inside = (np.isnan(value) | (np.isnan(low) & np.isnan(high))
                      | ((low <= value) & (value <= high)))
            assert inside.all(), (expr.sql(), low, high, value)
            holds = evaluate_mask(predicate, probe, env.point)
            assert holds[tri == TRI_TRUE].all(), predicate.sql()
            assert not holds[tri == TRI_FALSE].any(), predicate.sql()

