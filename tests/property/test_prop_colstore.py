"""Property-based tests for colstore codecs and zone-map pruning.

Two invariants carry the whole subsystem:

* every codec round-trips **bit-exactly** (NaN payloads, signed zeros
  and empty arrays included) — the storage layer may never be a source
  of numeric drift;
* ``pruned_filter_mask`` equals ``evaluate_mask`` for any data layout,
  chunk size and predicate shape (comparisons, AND/OR/NOT, BETWEEN,
  arithmetic, two columns) over NaN-bearing and all-NaN chunks —
  pruning is an optimization, never an answer change.  Likewise every
  chunk ``chunk_decisions`` decides holds its verdict for each row.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.classify import IntervalEnv, tri_eval
from repro.core.uncertain import TRI_UNKNOWN, ScalarSlotState
from repro.estimate.variation import VariationRange
from repro.expr.expressions import (
    Between,
    BinaryOp,
    BooleanOp,
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
from repro.storage.colstore.codecs import (
    CODECS,
    decode_column,
    encode_column,
)
from repro.storage.colstore.format import compute_zones
from repro.storage.colstore.prune import (
    ColumnZones,
    ZoneMapIndex,
    chunk_decisions,
    pruned_filter_mask,
)
from repro.storage.table import ColumnType

sizes = st.integers(min_value=0, max_value=300)

int_arrays = st.one_of(
    arrays(np.int64, sizes,
           elements=st.integers(min_value=-(2 ** 62), max_value=2 ** 62)),
    # low-cardinality / constant runs exercise dict and rle hard
    arrays(np.int64, sizes, elements=st.sampled_from([0, 1, 7])),
)

float_arrays = st.one_of(
    arrays(np.float64, sizes,
           elements=st.floats(allow_nan=True, allow_infinity=True,
                              width=64)),
    arrays(np.float64, sizes, elements=st.sampled_from(
        [0.0, -0.0, np.nan, np.inf, -np.inf, 1.5]
    )),
)

bool_arrays = arrays(np.bool_, sizes, elements=st.booleans())

string_values = st.one_of(
    st.sampled_from(["", "a", "cat", "käse", "x" * 40]),
    st.text(max_size=12),
)


@st.composite
def string_arrays(draw):
    n = draw(sizes)
    return np.array([draw(string_values) for _ in range(n)],
                    dtype=object)


def roundtrip(arr, ctype, codec):
    enc = encode_column(arr, ctype, codec)
    # The metadata crosses a JSON footer in real files; round-trip it
    # the same way so non-JSON-safe meta cannot hide here.
    meta = json.loads(json.dumps(enc.meta))
    return decode_column(enc.codec, enc.segments, meta, ctype, len(arr))


def assert_bit_equal(arr, out):
    assert out.dtype == arr.dtype
    if arr.dtype == object:
        assert out.tolist() == arr.tolist()
    else:
        np.testing.assert_array_equal(out.view(np.uint8),
                                      arr.view(np.uint8))


@given(int_arrays, st.sampled_from(("auto",) + CODECS))
@settings(max_examples=60, deadline=None)
def test_int64_round_trip(arr, codec):
    assert_bit_equal(arr, roundtrip(arr, ColumnType.INT64, codec))


@given(float_arrays, st.sampled_from(("auto", "plain", "dict", "rle")))
@settings(max_examples=60, deadline=None)
def test_float64_round_trip_bitexact(arr, codec):
    # NaN payloads and -0.0 must survive: compare raw bits, not values.
    assert_bit_equal(arr, roundtrip(arr, ColumnType.FLOAT64, codec))


@given(bool_arrays, st.sampled_from(("auto", "plain", "rle")))
@settings(max_examples=40, deadline=None)
def test_bool_round_trip(arr, codec):
    assert_bit_equal(arr, roundtrip(arr, ColumnType.BOOL, codec))


@given(string_arrays(), st.sampled_from(("auto", "dict", "rle")))
@settings(max_examples=40, deadline=None)
def test_string_round_trip(arr, codec):
    assert_bit_equal(arr, roundtrip(arr, ColumnType.STRING, codec))


# ---------------------------------------------------------------------------
# Pruning never changes a filter's row mask.
# ---------------------------------------------------------------------------

PRUNE_OPS = ["<", "<=", ">", ">=", "=", "!="]
prune_consts = st.one_of(
    st.floats(min_value=-120, max_value=120, allow_nan=False),
    st.sampled_from([0.0, 50.0, -50.0]),
)
prune_values = st.integers(min_value=1, max_value=400).flatmap(
    lambda n: st.tuples(*[arrays(
        np.float64, n,
        elements=st.one_of(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.just(np.nan),
        ),
    )] * 2)
)


def _prune_values(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(BinaryOp, st.sampled_from(["+", "-", "*", "/"]),
                  inner, inner),
        st.builds(Negate, inner),
        st.builds(lambda a: FunctionCall("sqrt", [a]), inner),
    ), max_leaves=3)


def _prune_predicates(leaves):
    values = _prune_values(leaves)
    base = st.one_of(
        # the plain `column op constant` shape, drawn most often
        st.builds(Comparison, st.sampled_from(PRUNE_OPS),
                  st.sampled_from(["v", "w"]).map(ColumnRef),
                  prune_consts.map(Literal)),
        st.builds(Comparison, st.sampled_from(PRUNE_OPS), values, values),
        st.builds(Between, values, prune_consts.map(Literal),
                  prune_consts.map(Literal)),
    )
    return st.recursive(base, lambda inner: st.one_of(
        st.builds(lambda a, b: BooleanOp("AND", [a, b]), inner, inner),
        st.builds(lambda a, b: BooleanOp("OR", [a, b]), inner, inner),
        st.builds(lambda a: BooleanOp("NOT", [a]), inner),
    ), max_leaves=3)


certain_leaves = st.one_of(
    st.sampled_from(["v", "w"]).map(ColumnRef), prune_consts.map(Literal),
)


@st.composite
def prune_case(draw):
    v, w = draw(prune_values)
    if draw(st.booleans()):
        v, w = np.sort(v), np.sort(w)  # clustered → prunable
    if draw(st.booleans()):
        # an all-NaN stretch: whole chunks with no zone bounds
        start = draw(st.integers(min_value=0, max_value=len(v) - 1))
        v[start:start + draw(st.integers(1, 80))] = np.nan
    chunk_rows = draw(st.sampled_from([1, 7, 32, 64]))
    return v, w, chunk_rows


def _zones(table, chunk_rows):
    columns = {}
    for name in table.schema.names:
        zone_dicts = compute_zones(table.column(name), ColumnType.FLOAT64,
                                   chunk_rows)
        columns[name] = ColumnZones(
            ctype="float64",
            lows=[z["lo"] for z in zone_dicts],
            highs=[z["hi"] for z in zone_dicts],
            nulls=np.array([z["nulls"] for z in zone_dicts]),
            distinct=np.array([z["distinct"] for z in zone_dicts]),
        )
    return ZoneMapIndex(chunk_rows=chunk_rows, num_rows=table.num_rows,
                        columns=columns)


@given(prune_case(), _prune_predicates(certain_leaves))
@settings(max_examples=150, deadline=None)
def test_pruned_mask_equals_evaluate_mask(case, predicate):
    v, w, chunk_rows = case
    table = Table.from_columns({"v": v, "w": w})
    zones = _zones(table, chunk_rows)
    env = Environment()
    with np.errstate(all="ignore"):
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        expected = np.asarray(evaluate_mask(predicate, table, env),
                              dtype=bool)
    np.testing.assert_array_equal(mask, expected)
    assert 0 <= pruned <= zones.num_chunks


@given(prune_case(),
       _prune_predicates(st.one_of(certain_leaves, st.just(SubqueryRef(0)))),
       prune_consts, prune_consts)
@settings(max_examples=150, deadline=None)
def test_chunk_decisions_match_row_classification(case, predicate, a, b):
    v, w, chunk_rows = case
    table = Table.from_columns({"v": v, "w": w})
    zones = _zones(table, chunk_rows)
    lo, hi = min(a, b), max(a, b)
    env = IntervalEnv(slots={0: ScalarSlotState(
        slot=0, estimate=(lo + hi) / 2, replicas=np.array([lo, hi]),
        vrange=VariationRange(lo, hi),
    )})
    with np.errstate(all="ignore"):
        decisions = chunk_decisions(predicate, zones, env)
        per_row = tri_eval(predicate, table, env)
    if decisions is None:
        return
    rows = np.repeat(decisions, chunk_rows)[:table.num_rows]
    decided = rows != TRI_UNKNOWN
    np.testing.assert_array_equal(rows[decided], per_row[decided])
