"""Tests for Token Blocking (repro.blocking.token_blocking)."""
import pytest
from pyspark.sql import functions as F

from repro.blocking import token_blocking
from repro.blocking.tokenize import entity_tokens
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def toy_tokens(toy_pair):
    return entity_tokens(toy_pair.kb1), entity_tokens(toy_pair.kb2)


def test_block_index_cross_kb_only(toy_tokens):
    t1, t2 = toy_tokens
    idx = {r.key: (r.n1, r.n2) for r in token_blocking.block_index(t1, t2).collect()}
    # "other1" exists only in KB1, "also" only in KB2 -> no block
    assert "other1" not in idx and "also" not in idx
    assert idx["common"] == (2, 3)
    assert idx["acme"] == (1, 1)
    assert idx["zeta"] == (1, 2)  # 101 (info) and 105 (name) carry zeta


def test_total_comparisons(toy_tokens):
    t1, t2 = toy_tokens
    idx = token_blocking.block_index(t1, t2)
    expected = sum(r.n1 * r.n2 for r in idx.collect())
    assert token_blocking.collection_size(idx)[1] == expected
    assert expected > 0


def test_total_comparisons_empty(spark):
    empty = spark.createDataFrame([], "key string, n1 long, n2 long")
    assert token_blocking.collection_size(empty)[1] == 0


def test_candidate_pairs_distinct(toy_tokens):
    t1, t2 = toy_tokens
    cands = token_blocking.candidate_pairs(t1, t2)
    assert cands.count() == cands.distinct().count()


def test_candidate_pairs_contains_gt(toy_pair, toy_tokens):
    t1, t2 = toy_tokens
    cands = token_blocking.candidate_pairs(t1, t2)
    missing = toy_pair.ground_truth.join(cands, ["e1", "e2"], "left_anti")
    assert missing.count() == 0


def test_candidate_pairs_restricted_by_keys(spark, toy_tokens):
    t1, t2 = toy_tokens
    keys = spark.createDataFrame([("qux",)], "key string")
    cands = token_blocking.candidate_pairs(t1, t2, keys)
    assert {(r.e1, r.e2) for r in cands.collect()} == {(2, 102)}


def test_block_index_vs_oracle(toy_pair, toy_tokens):
    t1, t2 = toy_tokens
    idx = token_blocking.block_index(t1, t2).withColumnRenamed("key", "token")
    sql = """
        WITH c1 AS (SELECT token, COUNT(*) AS n1, MIN(eid) AS e1 FROM t1 GROUP BY token),
             c2 AS (SELECT token, COUNT(*) AS n2, MIN(eid) AS e2 FROM t2 GROUP BY token)
        SELECT c1.token AS token, n1, n2, e1, e2 FROM c1 JOIN c2 USING (token)
    """
    assert_equivalent(idx, sql, t1=t1.toPandas(), t2=t2.toPandas())


def test_comparisons_equal_pairwise_join_size(toy_tokens):
    """||B|| equals the size of the raw token join (with duplicates)."""
    t1, t2 = toy_tokens
    idx = token_blocking.block_index(t1, t2)
    joined = (
        t1.select(F.col("eid").alias("e1"), "token")
        .join(t2.select(F.col("eid").alias("e2"), "token"), "token")
        .count()
    )
    assert token_blocking.collection_size(idx)[1] == joined


def test_preset_blocking_recall(restaurant_pair):
    """Unpurged token blocking must cover ~every ground-truth pair."""
    t1 = entity_tokens(restaurant_pair.kb1)
    t2 = entity_tokens(restaurant_pair.kb2)
    cands = token_blocking.candidate_pairs(t1, t2)
    hits = restaurant_pair.ground_truth.join(cands, ["e1", "e2"]).count()
    assert hits == restaurant_pair.n_matches()
