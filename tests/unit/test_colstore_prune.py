"""Unit tests for zone-map pruning: soundness against the exact paths."""

import numpy as np
import pytest

from repro.core.classify import IntervalEnv, tri_eval
from repro.core.uncertain import TRI_UNKNOWN, ScalarSlotState
from repro.estimate.variation import VariationRange
from repro.expr.expressions import (
    BinaryOp,
    BooleanOp,
    ColumnRef,
    Comparison,
    Environment,
    Literal,
    SubqueryRef,
    evaluate_mask,
)
from repro.storage import Table
from repro.storage.colstore import write_partition
from repro.storage.colstore.format import PartitionReader
from repro.storage.colstore.prune import chunk_decisions, pruned_filter_mask

OPS = ("<", "<=", ">", ">=", "=", "!=")


def zones_for(table: Table, chunk_rows: int, tmp_path):
    path = tmp_path / "z.gcp"
    write_partition(path, table, chunk_rows=chunk_rows)
    return PartitionReader(path).zone_index()


@pytest.fixture
def table():
    rng = np.random.default_rng(42)
    f = rng.normal(50.0, 20.0, 2000)
    f[rng.random(2000) < 0.05] = np.nan
    return Table.from_columns({
        "i": np.sort(rng.integers(0, 100, 2000)).astype(np.int64),
        "f": np.sort(f),  # NaNs sort to the end: some chunks all-NaN
        "s": np.array([f"k{v}" for v in rng.integers(0, 5, 2000)],
                      dtype=object),
    })


def slot_env(lo: float, hi: float) -> IntervalEnv:
    """Slot 0's variation range is ``[lo, hi]``."""
    state = ScalarSlotState(
        slot=0, estimate=(lo + hi) / 2.0,
        replicas=np.array([lo, hi]),
        vrange=VariationRange(lo, hi),
    )
    return IntervalEnv(slots={0: state})


def assert_decisions_sound(predicate, table, zones, env, chunk_rows=64):
    """Every decided chunk's verdict is each of its rows' tri_eval."""
    decisions = chunk_decisions(predicate, zones, env)
    per_row = tri_eval(predicate, table, env)
    if decisions is not None:
        for c in np.flatnonzero(decisions != TRI_UNKNOWN):
            rows = per_row[c * chunk_rows:(c + 1) * chunk_rows]
            assert (rows == decisions[c]).all(), (predicate.sql(), c)
    return decisions


class TestCertainFilterPruning:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("column,const", [
        ("i", 10), ("i", 50), ("i", 99), ("f", 30.0), ("f", 80.0),
    ])
    def test_mask_identical_to_evaluate_mask(self, table, tmp_path,
                                             op, column, const):
        zones = zones_for(table, 64, tmp_path)
        predicate = Comparison(op, ColumnRef(column), Literal(const))
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        np.testing.assert_array_equal(
            mask, np.asarray(evaluate_mask(predicate, table, env),
                             dtype=bool)
        )

    def test_selective_predicate_prunes(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        predicate = Comparison("<", ColumnRef("i"), Literal(5))
        mask, pruned = pruned_filter_mask(
            predicate, table, Environment(), zones
        )
        assert pruned > 0
        assert zones.pruned_total == pruned

    def test_conjunction_intersects_chunk_masks(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        predicate = BooleanOp("AND", [
            Comparison(">", ColumnRef("i"), Literal(20)),
            Comparison("<", ColumnRef("i"), Literal(40)),
        ])
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        assert pruned > 0
        np.testing.assert_array_equal(
            mask, np.asarray(evaluate_mask(predicate, table, env),
                             dtype=bool)
        )

    def test_nan_rows_never_pass_comparisons(self, table, tmp_path):
        # The last chunks are all-NaN after the sort; < must not keep
        # them, and != must not prune chunks that merely contain NaNs.
        zones = zones_for(table, 64, tmp_path)
        env = Environment()
        for op, const in (("<", 1e9), ("!=", 50.0)):
            predicate = Comparison(op, ColumnRef("f"), Literal(const))
            mask, _ = pruned_filter_mask(predicate, table, env, zones)
            np.testing.assert_array_equal(
                mask, np.asarray(evaluate_mask(predicate, table, env),
                                 dtype=bool)
            )

    def test_all_null_chunks_take_nan_row_verdict(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        all_null = sum(lo is None for lo in zones.columns["f"].lows)
        assert all_null > 0
        env = Environment()
        # NaN < c is False: all-NaN chunks prune with the rest.
        below = Comparison("<", ColumnRef("f"), Literal(1e9))
        assert pruned_filter_mask(below, table, env, zones)[1] == all_null
        # NOT (NaN > c) is True: no chunk holding NaN may prune.
        not_above = BooleanOp("NOT", [
            Comparison(">", ColumnRef("f"), Literal(1e9)),
        ])
        mask, pruned = pruned_filter_mask(not_above, table, env, zones)
        assert pruned == 0
        np.testing.assert_array_equal(
            mask, evaluate_mask(not_above, table, env)
        )

    def test_large_int64_bounds_stay_exact(self, tmp_path):
        # 2**60 and 2**60 + 1 are one float64: the float walk must not
        # decide `x < 2**60 + 1` false for a chunk holding 2**60.
        big = Table.from_columns({
            "x": np.full(128, 2 ** 60, dtype=np.int64),
        })
        zones = zones_for(big, 64, tmp_path)
        env = Environment()
        for op in OPS:
            predicate = Comparison(op, ColumnRef("x"), Literal(2 ** 60 + 1))
            mask, _ = pruned_filter_mask(predicate, big, env, zones)
            np.testing.assert_array_equal(
                mask, evaluate_mask(predicate, big, env)
            )

    def test_string_predicate_not_pruned_but_exact(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        predicate = Comparison("=", ColumnRef("s"), Literal("k3"))
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, table, env, zones)
        np.testing.assert_array_equal(
            mask, np.asarray(evaluate_mask(predicate, table, env),
                             dtype=bool)
        )

    def test_sorted_string_column_prunes(self, table, tmp_path):
        # Literals keep their dtype, so string zone maps decide chunks.
        ordered = Table.from_columns({
            "s": np.array(sorted(table.column("s")), dtype=object),
        })
        zones = zones_for(ordered, 64, tmp_path)
        env = Environment()
        for op in ("=", "<", ">="):
            predicate = Comparison(op, ColumnRef("s"), Literal("k3"))
            mask, pruned = pruned_filter_mask(predicate, ordered, env, zones)
            assert pruned > 0
            np.testing.assert_array_equal(
                mask, evaluate_mask(predicate, ordered, env)
            )

    def test_row_count_mismatch_disables_pruning(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        shorter = table.slice(0, 100)
        predicate = Comparison("<", ColumnRef("i"), Literal(5))
        mask, pruned = pruned_filter_mask(
            predicate, shorter, Environment(), zones
        )
        assert pruned == 0
        assert mask.shape == (100,)

    def test_unusable_predicate_prunes_nothing(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        # a column without zone maps leaves every chunk to the row pass
        predicate = Comparison("<", ColumnRef("i"), ColumnRef("other"))
        extended = Table.from_columns({
            **{n: table.column(n) for n in table.schema.names},
            "other": np.zeros(table.num_rows),
        })
        env = Environment()
        mask, pruned = pruned_filter_mask(predicate, extended, env, zones)
        assert pruned == 0
        np.testing.assert_array_equal(
            mask, evaluate_mask(predicate, extended, env)
        )

    def test_column_vs_column_predicate_exact(self, table, tmp_path):
        # Two ranged columns: decided chunks only where neither has NaN.
        zones = zones_for(table, 64, tmp_path)
        env = Environment()
        for op in OPS:
            predicate = Comparison(op, ColumnRef("i"), ColumnRef("f"))
            mask, _ = pruned_filter_mask(predicate, table, env, zones)
            np.testing.assert_array_equal(
                mask, evaluate_mask(predicate, table, env)
            )


class TestChunkTriDecisions:
    @pytest.mark.parametrize("op", OPS)
    def test_decisions_match_per_row_tri_eval(self, table, tmp_path, op):
        zones = zones_for(table, 64, tmp_path)
        for lo, hi in ((25.0, 30.0), (49.9, 50.1), (-1e9, 1e9)):
            # A slot-bearing predicate whose variation range is
            # [lo, hi]: col op <subquery#0>.
            predicate = Comparison(op, ColumnRef("f"), SubqueryRef(0))
            decisions = assert_decisions_sound(
                predicate, table, zones, slot_env(lo, hi)
            )
            assert decisions is not None

    def test_string_column_never_decided(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        env = slot_env(0.0, 1.0)
        decisions = chunk_decisions(
            Comparison("<", ColumnRef("s"), SubqueryRef(0)), zones, env
        )
        assert (decisions == TRI_UNKNOWN).all()
        assert chunk_decisions(
            Comparison("<", ColumnRef("missing"), SubqueryRef(0)),
            zones, env,
        ) is None


class TestUncertainMatching:
    def test_scalar_subquery_matches(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        env = slot_env(40.0, 45.0)
        forward = assert_decisions_sound(
            Comparison(">", ColumnRef("i"), SubqueryRef(0)),
            table, zones, env,
        )
        # flipped operand order flips the operator
        flipped = assert_decisions_sound(
            Comparison("<", SubqueryRef(0), ColumnRef("i")),
            table, zones, env,
        )
        assert (forward != TRI_UNKNOWN).any()
        np.testing.assert_array_equal(forward, flipped)

    def test_correlated_subquery_rejected(self, table, tmp_path):
        from repro.core.uncertain import KeyedSlotState
        from repro.engine.aggregates import GroupIndex

        zones = zones_for(table, 64, tmp_path)
        index = GroupIndex()
        index.encode(np.arange(100))
        state = KeyedSlotState(
            slot=0, index=index, estimates=np.full(100, 50.0),
            replicas=np.full((100, 2), 50.0), lows=np.full(100, 49.0),
            highs=np.full(100, 51.0), present=np.ones(100, dtype=bool),
        )
        pred = Comparison(
            ">", ColumnRef("f"),
            SubqueryRef(0, correlation=ColumnRef("i")),
        )
        decisions = assert_decisions_sound(
            pred, table, zones, IntervalEnv(slots={0: state})
        )
        assert (decisions == TRI_UNKNOWN).all()

    def test_non_column_side_decided(self, table, tmp_path):
        zones = zones_for(table, 64, tmp_path)
        pred = Comparison(
            ">", BinaryOp("+", ColumnRef("i"), Literal(1.0)),
            SubqueryRef(0),
        )
        decisions = assert_decisions_sound(
            pred, table, zones, slot_env(40.0, 45.0)
        )
        assert (decisions != TRI_UNKNOWN).any()
