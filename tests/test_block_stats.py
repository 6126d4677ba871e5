"""Tests for block statistics / Table II (repro.blocking.stats)."""
import pytest

from repro.blocking.stats import block_quality, block_stats


def test_block_quality_perfect(spark, toy_pair):
    q = block_quality(toy_pair.ground_truth, toy_pair.ground_truth)
    assert q == {"precision": 100.0, "recall": 100.0, "f1": 100.0}


def test_block_quality_partial(spark, toy_pair):
    cands = spark.createDataFrame([(1, 101), (1, 999)], "e1 long, e2 long")
    q = block_quality(cands, toy_pair.ground_truth)
    assert q["precision"] == 50.0
    assert q["recall"] == pytest.approx(100 / 3)


def test_block_quality_empty(spark, toy_pair):
    cands = spark.createDataFrame([], "e1 long, e2 long")
    q = block_quality(cands, toy_pair.ground_truth)
    assert q == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


@pytest.fixture(scope="module")
def restaurant_stats(restaurant_pair):
    return block_stats(restaurant_pair)


def test_table2_columns(restaurant_stats):
    assert set(restaurant_stats) >= {
        "dataset", "|BN|", "|BT|", "||BN||", "||BT||", "|E1|*|E2|",
        "precision", "recall", "f1",
    }


def test_table2_cartesian(restaurant_stats, restaurant_pair):
    assert restaurant_stats["|E1|*|E2|"] == 339 * 2256


def test_table2_shape_bt_exceeds_bn(restaurant_stats):
    """Paper Table II: ||BT|| is at least an order of magnitude larger
    than ||BN|| (token blocks are the heavy collection)."""
    assert restaurant_stats["||BT||"] > 5 * restaurant_stats["||BN||"]


def test_table2_comparisons_far_below_cartesian(restaurant_stats):
    """'overall comparisons in BT u BN are at least 2 orders of magnitude
    lower than the Cartesian product'."""
    total = restaurant_stats["||BT||"] + restaurant_stats["||BN||"]
    assert total < restaurant_stats["|E1|*|E2|"] / 50


def test_table2_recall_high_precision_low(restaurant_stats):
    """Blocks keep ~all matches but are extremely imprecise (the whole
    point of the matching phase)."""
    assert restaurant_stats["recall"] >= 99.0
    assert restaurant_stats["precision"] < 20.0
    assert restaurant_stats["f1"] < 30.0


# Spark jobs of one block_stats on Restaurant with |E| and the predicate
# statistics known. Building the token index, the tokens and the name keys
# once per reader, counting and summing each collection in two jobs and
# the candidates and hits in two more took 71; caching them for the call
# and one aggregate per count took 30, and a token block index built by
# one aggregate takes 28.
BLOCK_STATS_JOB_BUDGET = 28


@pytest.fixture(scope="module")
def block_stats_trace(fresh_restaurant, job_trace):
    """One block_stats on fresh KB objects over Restaurant's triples, run in
    its own job group: (its column, its job ids, the persisted RDD ids
    before and after it)."""
    pair = fresh_restaurant()
    for kb in (pair.kb1, pair.kb2):
        kb.predicate_stats  # known before the jobs are counted, as |E| is
    return job_trace("test-block-stats-jobs", lambda: block_stats(pair))


def test_block_stats_job_budget(block_stats_trace):
    _, jobs, _, _ = block_stats_trace
    assert len(jobs) <= BLOCK_STATS_JOB_BUDGET, len(jobs)


def test_block_stats_releases_its_caches(block_stats_trace, restaurant_stats):
    """Every DataFrame block_stats caches is unpersisted before it returns,
    and the traced column equals the shared one."""
    stats, _, before, after = block_stats_trace
    assert after == before
    assert stats == restaurant_stats
