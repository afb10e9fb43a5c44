"""Arbitrary nesting depth — the headline generalization of G-OLA.

Two- and three-level nested aggregate queries run online: inner blocks
are themselves delta-maintained (their own uncertain sets and guards),
values broadcast up the lineage-block DAG, and the final snapshot still
equals the exact answer.
"""

import numpy as np
import pytest

from repro import GolaConfig, GolaSession, Table


@pytest.fixture(scope="module")
def session():
    rng = np.random.default_rng(21)
    n = 9000
    s = GolaSession(GolaConfig(num_batches=6, bootstrap_trials=24, seed=8))
    s.register_table("t", Table.from_columns({
        "k": rng.integers(0, 12, n).astype(np.int64),
        "x": rng.normal(100.0, 25.0, n),
        "y": rng.exponential(10.0, n),
        "z": rng.uniform(0.0, 1.0, n),
        "name": np.array([f"n{v}" for v in rng.integers(0, 8, n)],
                         dtype=object),
    }))
    return s


def check(session, sql):
    query = session.sql(sql)
    exact = session.execute_batch(query)
    last = query.run_to_completion()
    assert last.table.num_rows == exact.num_rows
    for col in exact.schema.names:
        np.testing.assert_allclose(
            np.sort(last.table.column(col).astype(float)),
            np.sort(exact.column(col).astype(float)),
            rtol=1e-7, err_msg=col,
        )
    return last


class TestTwoLevels:
    def test_two_scalar_levels(self, session):
        check(session, """
            SELECT AVG(x) FROM t WHERE x >
              (SELECT AVG(x) FROM t WHERE y >
                 (SELECT AVG(y) FROM t))
        """)

    def test_two_slots_same_level(self, session):
        check(session, """
            SELECT COUNT(*) FROM t
            WHERE x > (SELECT AVG(x) FROM t)
              AND y < (SELECT 2.0 * AVG(y) FROM t)
        """)

    def test_keyed_inside_scalar(self, session):
        check(session, """
            SELECT SUM(y) FROM t WHERE y >
              (SELECT AVG(y) FROM t WHERE x >
                 (SELECT 0.9 * AVG(x) FROM t u WHERE u.k = t.k))
        """)


class TestThreeLevels:
    def test_three_scalar_levels(self, session):
        last = check(session, """
            SELECT AVG(x) FROM t WHERE x >
              (SELECT AVG(x) FROM t WHERE y >
                 (SELECT AVG(y) FROM t WHERE z >
                    (SELECT AVG(z) FROM t)))
        """)
        # Three subquery blocks plus main took part.
        assert len(last.uncertain_sizes) == 4

    def test_membership_of_filtered_groups(self, session):
        check(session, """
            SELECT COUNT(*) FROM t
            WHERE k IN (SELECT k FROM t
                        WHERE x > (SELECT AVG(x) FROM t)
                        GROUP BY k HAVING SUM(y) > 500)
        """)


class TestHavingMembership:
    """IN-subqueries whose HAVING mixes certain and uncertain terms."""

    def test_string_group_key_in_having(self, session):
        check(session, """
            SELECT COUNT(*), AVG(x) FROM t
            WHERE name IN (SELECT name FROM t GROUP BY name
                           HAVING name <> 'n1' AND SUM(y) > 1000)
        """)

    def test_case_and_sqrt_in_having(self, session):
        check(session, """
            SELECT COUNT(*), SUM(y) FROM t
            WHERE k IN (SELECT k FROM t GROUP BY k
                        HAVING SQRT(SUM(y)) > 86
                           AND CASE WHEN AVG(x) > 100 THEN SUM(y)
                                    ELSE 0 END < 7800)
        """)


class TestBroadcastTopology:
    def test_block_count_and_order(self, session):
        from repro.plan import lineage_blocks

        query = session.sql("""
            SELECT AVG(x) FROM t WHERE x >
              (SELECT AVG(x) FROM t WHERE y >
                 (SELECT AVG(y) FROM t))
        """)
        blocks = lineage_blocks(query.query)
        assert [b.block_id for b in blocks][-1] == "main"
        # Consumers appear after their producers (topological order).
        produced = set()
        for block in blocks:
            assert block.consumes <= produced
            if block.produces is not None:
                produced.add(block.produces)
