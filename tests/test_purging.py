"""Tests for Block Purging (repro.blocking.purging)."""
import pytest

from repro.blocking import purging, token_blocking
from repro.blocking.tokenize import entity_tokens


def _index(spark, blocks):
    """blocks: list of (key, n1, n2)."""
    return spark.createDataFrame(blocks, "key string, n1 long, n2 long")


def test_empty_index(spark):
    """An empty index keeps nothing, against the min_budget floor."""
    assert purging.purge_stats(_index(spark, []), 100) == purging.PurgeStats(0, 0, 0, 0, 1000.0)


def test_single_level_always_kept(spark):
    idx = _index(spark, [("a", 10, 10), ("b", 10, 10)])
    # level 100 alone exceeds a budget of 1% of 1000 = 10, yet it is the
    # smallest level -> kept
    assert purging.purge_stats(idx, 1000, min_budget=0).threshold == 100


def test_min_budget_floor_keeps_small_inputs_intact(spark):
    # a toy 4x5 task: 1% of 20 is no budget at all, but the floor keeps
    # every block -> purging is inert below real scale
    idx = _index(spark, [("a", 1, 1), ("b", 2, 3)])
    kept, _ = purging.purge(idx, 20)
    assert kept.count() == 2


def test_budget_cuts_large_blocks(spark):
    idx = _index(
        spark,
        [("a", 1, 1), ("b", 1, 1), ("c", 2, 2), ("stop", 100, 100)],
    )
    # cartesian 1000, budget 1% = 10: levels 1 (cc 2), 4 (cc 6) fit, 6
    # comparisons in 3 blocks; 10000 does not, so the 100x100 block is
    # purged (min_budget=0 isolates the budget math from the small-input
    # floor)
    assert purging.purge_stats(idx, 1000, min_budget=0) == purging.PurgeStats(
        threshold=4, blocks_kept=3, blocks_purged=1, comparisons_kept=6, budget=10.0
    )


def test_purge_filters_index(spark):
    idx = _index(
        spark, [("a", 1, 1), ("b", 2, 2), ("stop", 50, 50)]
    )
    kept, t = purging.purge(idx, 1000, min_budget=0)
    keys = {r.key for r in kept.collect()}
    assert keys == {"a", "b"} and t == 4


def test_budget_factor_monotone(spark):
    idx = _index(
        spark,
        [(f"k{i}", i, i) for i in range(1, 20)],
    )
    t_small = purging.purge_stats(idx, 10_000, budget_factor=0.001, min_budget=0).threshold
    t_big = purging.purge_stats(idx, 10_000, budget_factor=0.1, min_budget=0).threshold
    assert t_small <= t_big


def test_whole_levels_kept_or_dropped(spark):
    # two blocks at the same cardinality: both kept or both dropped
    idx = _index(spark, [("a", 3, 3), ("b", 3, 3), ("c", 1, 1)])
    kept, t = purging.purge(idx, 100, budget_factor=0.11, min_budget=0)
    keys = {r.key for r in kept.collect()}
    assert keys in ({"c"}, {"a", "b", "c"})


def test_smallest_blocks_survive(spark, restaurant_pair):
    """Rare-token (1x1) blocks are always retained."""
    t1 = entity_tokens(restaurant_pair.kb1)
    t2 = entity_tokens(restaurant_pair.kb2)
    idx = token_blocking.block_index(t1, t2)
    cart = restaurant_pair.kb1.n_entities() * restaurant_pair.kb2.n_entities()
    kept, t = purging.purge(idx, cart)
    assert t >= 1
    ones = idx.filter("n1 = 1 AND n2 = 1").count()
    kept_ones = kept.filter("n1 = 1 AND n2 = 1").count()
    assert kept_ones == ones


def test_enforces_paper_invariant(restaurant_pair):
    """Kept comparisons stay within the budget share of the Cartesian
    product — the paper's 'two orders of magnitude fewer comparisons'."""
    t1 = entity_tokens(restaurant_pair.kb1)
    t2 = entity_tokens(restaurant_pair.kb2)
    idx = token_blocking.block_index(t1, t2)
    cart = restaurant_pair.kb1.n_entities() * restaurant_pair.kb2.n_entities()
    kept, _ = purging.purge(idx, cart)
    assert token_blocking.collection_size(kept)[1] <= 0.011 * cart


def test_blocking_recall_survives_purging(restaurant_pair):
    """'without any significant impact on recall' (paper, Section III)."""
    t1 = entity_tokens(restaurant_pair.kb1)
    t2 = entity_tokens(restaurant_pair.kb2)
    idx = token_blocking.block_index(t1, t2)
    cart = restaurant_pair.kb1.n_entities() * restaurant_pair.kb2.n_entities()
    kept, _ = purging.purge(idx, cart)
    cands = token_blocking.candidate_pairs(t1, t2, kept.select("key"))
    hits = restaurant_pair.ground_truth.join(cands, ["e1", "e2"]).count()
    assert hits >= 0.99 * restaurant_pair.n_matches()


def test_threshold_zero_budget(spark):
    idx = _index(spark, [("a", 1, 1)])
    # even with a zero budget the smallest level is kept
    assert purging.purge_stats(idx, 10**9, budget_factor=0.0, min_budget=0).threshold == 1
