"""Tests for entity frequency and valueSim (repro.core.value_sim).

EF is the token block size of :func:`repro.blocking.token_blocking.block_index`;
the DuckDB oracle recomputes it with ``COUNT(DISTINCT eid)``.
"""
import math

import pytest
from pyspark.sql import functions as F

from repro.blocking.stats import block_pair
from repro.blocking.token_blocking import block_index
from repro.blocking.tokenize import entity_tokens
from repro.core.value_sim import value_similarities
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def toy_tokens(toy_pair):
    return entity_tokens(toy_pair.kb1), entity_tokens(toy_pair.kb2)


def test_entity_frequency(toy_tokens):
    t1, t2 = toy_tokens
    ef = {r.key: r.n1 for r in block_index(t1, t2).collect()}
    assert ef["common"] == 2        # entities 3 and 4
    assert ef["zeta"] == 1
    assert ef["beta"] == 1


def test_entity_frequency_vs_oracle(toy_tokens):
    t1, t2 = toy_tokens
    ef = block_index(t1, t2).select(
        F.col("key").alias("token"), F.col("n1").alias("ef1"), F.col("n2").alias("ef2")
    )
    sql = """
        WITH ef1 AS (SELECT token, COUNT(DISTINCT eid) AS ef1 FROM t1 GROUP BY token),
             ef2 AS (SELECT token, COUNT(DISTINCT eid) AS ef2 FROM t2 GROUP BY token)
        SELECT token, ef1, ef2 FROM ef1 JOIN ef2 USING (token)
    """
    assert_equivalent(ef, sql, t1=t1.toPandas(), t2=t2.toPandas())


def _single_token_sims(t1, t2, token):
    """{(e1, e2): sim} over the one block ``token``: each sim is its weight w."""
    keys = t1.sparkSession.createDataFrame([(token,)], "key string")
    return {(r.e1, r.e2): r.sim for r in value_similarities(t1, t2, keys).collect()}


def test_token_weights_formula(toy_tokens):
    t1, t2 = toy_tokens
    # qux: EF 1 x 1 -> 1/log2(2) = 1 (the H2 'unique shared token' anchor)
    assert _single_token_sims(t1, t2, "qux") == {(2, 102): pytest.approx(1.0)}
    # common: EF 2 x 3 -> 1/log2(7), on each of the 6 pairs of its block
    common = _single_token_sims(t1, t2, "common")
    assert len(common) == 6
    assert all(w == pytest.approx(1 / math.log2(7)) for w in common.values())
    # zeta: EF 1 x 2 -> 1/log2(3)
    zeta = _single_token_sims(t1, t2, "zeta")
    assert zeta == {(1, 101): pytest.approx(1 / math.log2(3)),
                    (1, 105): pytest.approx(1 / math.log2(3))}
    # tokens on one side only never get a weight
    assert _single_token_sims(t1, t2, "other1") == {}
    assert _single_token_sims(t1, t2, "llc") == {}


def test_value_similarities_hand_computed(toy_tokens):
    t1, t2 = toy_tokens
    vs = {(r.e1, r.e2): r.sim for r in value_similarities(t1, t2).collect()}
    assert vs[(1, 101)] == pytest.approx(2 + 1 / math.log2(3))   # acme+corp+zeta
    assert vs[(2, 102)] == pytest.approx(2.0)                    # qux+beta
    assert vs[(3, 103)] == pytest.approx(1 / math.log2(7))
    assert vs[(1, 105)] == pytest.approx(1 / math.log2(3))       # zeta only
    assert (1, 102) not in vs                                    # no shared token


def test_value_similarities_symmetric_in_pair_count(toy_tokens):
    t1, t2 = toy_tokens
    vs = value_similarities(t1, t2)
    assert vs.count() == vs.select("e1", "e2").distinct().count()


def test_kept_keys_restrict_sum(spark, toy_tokens):
    t1, t2 = toy_tokens
    keys = spark.createDataFrame([("acme",), ("corp",)], "key string")
    vs = {(r.e1, r.e2): r.sim for r in value_similarities(t1, t2, keys).collect()}
    assert vs == {(1, 101): pytest.approx(2.0)}


_ORACLE_SQL = """
    WITH ef1 AS (SELECT token, COUNT(DISTINCT eid) AS ef FROM t1 GROUP BY token),
         ef2 AS (SELECT token, COUNT(DISTINCT eid) AS ef FROM t2 GROUP BY token),
         w AS (SELECT ef1.token, 1.0/LOG2(ef1.ef * ef2.ef + 1) AS w
               FROM ef1 JOIN ef2 USING (token)
               WHERE ef1.token IN (SELECT key FROM kept))
    SELECT t1.eid AS e1, t2.eid AS e2, SUM(w.w) AS sim
    FROM t1 JOIN w USING (token) JOIN t2 USING (token)
    GROUP BY t1.eid, t2.eid
"""


def test_value_sim_vs_oracle(toy_tokens):
    t1, t2 = toy_tokens
    vs = value_similarities(t1, t2)
    t1p = t1.toPandas()
    kept = t1p.rename(columns={"token": "key"})  # no purging: every token kept
    assert_equivalent(vs, _ORACLE_SQL, t1=t1p, t2=t2.toPandas(), kept=kept)


def test_value_sim_vs_oracle_purged(restaurant_pair):
    """With the kept keys of Block Purging on Restaurant, where purging
    cuts blocks: EF stays the pre-purge block size, the sum runs over kept
    blocks only."""
    with block_pair(restaurant_pair) as b:
        t1, t2 = b.tokens
        kept = b.kept.select("key")
        assert kept.count() < b.index.count()
        vs = value_similarities(t1, t2, kept)
        assert_equivalent(
            vs, _ORACLE_SQL, t1=t1.toPandas(), t2=t2.toPandas(), kept=kept.toPandas()
        )


def test_rare_token_anchors_h2_semantics(rexa_pair):
    """A pair-unique token contributes exactly 1: the paper's 'they, and
    only they, share a common token' <=> valueSim >= 1 equivalence.

    Over the rare ``rr*`` blocks alone, each pair's valueSim equals the
    number of rare tokens it shares; as no weight exceeds 1, every rare
    token's weight is then exactly 1.
    """
    t1 = entity_tokens(rexa_pair.kb1)
    t2 = entity_tokens(rexa_pair.kb2)
    rare = block_index(t1, t2).filter(F.col("key").startswith("rr")).select("key")
    shared = (
        t1.join(rare.withColumnRenamed("key", "token"), "token")
        .select(F.col("eid").alias("e1"), "token")
        .join(t2.select(F.col("eid").alias("e2"), "token"), "token")
        .groupBy("e1", "e2")
        .count()
    )
    got = value_similarities(t1, t2, rare).join(shared, ["e1", "e2"], "full")
    rows = got.collect()
    assert rows and all(r.sim == pytest.approx(r["count"]) for r in rows)
