"""Tests for Name Blocking / H1 (repro.blocking.name_blocking)."""
from pyspark.sql import functions as F

from repro.blocking import name_blocking, token_blocking
from repro.kb.schema import pair_from_rows


def _pair(spark, names1, names2, gt=None):
    rows1 = [(i, "name", n, False) for i, n in names1]
    rows2 = [(i, "label", n, False) for i, n in names2]
    return pair_from_rows(spark, "t", rows1, rows2, gt or [])


def test_name_keys_normalized(spark):
    pair = _pair(spark, [(1, " Acme ")], [(9, "ACME")])
    n1, n2 = name_blocking.name_keys(pair, 1)
    assert [r.token for r in n1.collect()] == ["acme"]
    assert [r.token for r in n2.collect()] == ["acme"]


def test_block_index_counts(spark):
    pair = _pair(
        spark,
        [(1, "x"), (2, "x"), (3, "y")],
        [(9, "x"), (8, "y"), (7, "y")],
    )
    index = token_blocking.block_index(*name_blocking.name_keys(pair, 1))
    idx = {r.key: (r.n1, r.n2) for r in index.collect()}
    assert idx == {"x": (2, 1), "y": (1, 2)}


def test_h1_requires_1_1(spark):
    pair = _pair(
        spark,
        [(1, "unique"), (2, "dup"), (3, "dup")],
        [(9, "unique"), (8, "dup")],
    )
    got = {(r.e1, r.e2) for r in name_blocking.h1_matches(pair, 1).collect()}
    # "dup" block is 2x1 -> H1 abstains ("they, and only they")
    assert got == {(1, 9)}


def test_h1_no_cross_block(spark):
    pair = _pair(spark, [(1, "only-left")], [(9, "only-right")])
    assert name_blocking.h1_matches(pair, 1).count() == 0


def test_h1_multiple_names_per_entity(spark):
    # with k=2 both attributes' values serve as names
    rows1 = [(1, "name", "alpha", False), (1, "alt", "beta", False)]
    rows2 = [(9, "label", "beta", False), (9, "alias", "gamma", False)]
    pair = pair_from_rows(spark, "t", rows1, rows2, [])
    got = {(r.e1, r.e2) for r in name_blocking.h1_matches(pair, 2).collect()}
    assert got == {(1, 9)}


def test_h1_toy_case_insensitive(toy_pair):
    got = {(r.e1, r.e2) for r in name_blocking.h1_matches(toy_pair).collect()}
    assert got == {(1, 101)}  # "Acme Corp" vs "acme corp"


def test_h1_on_restaurant_preset(restaurant_pair):
    """H1 alone must already be high-precision on the easy dataset."""
    h1 = name_blocking.h1_matches(restaurant_pair)
    tp = h1.join(restaurant_pair.ground_truth, ["e1", "e2"]).count()
    n = h1.count()
    assert n > 0.5 * restaurant_pair.n_matches()
    assert tp / n > 0.95


def test_keys_parameter_reuse(toy_pair):
    keys = name_blocking.name_keys(toy_pair, 2)
    a = name_blocking.h1_matches(toy_pair, 2, keys).collect()
    b = name_blocking.h1_matches(toy_pair, 2).collect()
    assert sorted(map(tuple, a)) == sorted(map(tuple, b))
