"""Tests for dataset statistics / Table I (repro.kb.stats)."""
import pytest

from repro.core.attributes import importance
from repro.kb.schema import KB, count_predicates
from repro.kb.stats import dataset_stats, kb_stats
from repro.oracle import assert_equivalent


def test_toy_kb_stats(toy_pair):
    s = kb_stats(toy_pair.kb1)
    assert s["entities"] == 4
    assert s["triples"] == 12
    assert s["attributes"] == 2      # name, desc (rdf:type excluded)
    assert s["relations"] == 1
    assert s["types"] == 1
    assert s["vocabularies"] == 1    # ns0


def test_toy_dataset_stats(toy_pair):
    s = dataset_stats(toy_pair)
    assert s["dataset"] == "toy"
    assert s["matches"] == 3
    assert s["E1 entities"] == 4 and s["E2 entities"] == 5
    assert s["E1 avg_tokens"] > 0


def test_stats_vs_oracle(toy_pair):
    """Attribute/relation counts cross-checked in SQL."""
    import pandas as pd
    from pyspark.sql import functions as F

    kb = toy_pair.kb1
    df = kb.triples.groupBy("is_rel").agg(
        F.countDistinct("pred").alias("n_preds")
    )
    sql = "SELECT is_rel, COUNT(DISTINCT pred) AS n_preds FROM t GROUP BY is_rel"
    assert_equivalent(df, sql, t=kb.triples.toPandas())


def test_restaurant_counts_match_paper(restaurant_pair):
    """Restaurant is small enough to reproduce Table I's counts exactly."""
    s = dataset_stats(restaurant_pair)
    assert s["E1 entities"] == 339 and s["E2 entities"] == 2256
    assert s["matches"] == 89


def test_rexa_match_count(rexa_pair):
    assert dataset_stats(rexa_pair)["matches"] == 300


def test_restaurant_schema_matches_table1(restaurant_pair):
    """Paper Table I: Restaurant has 7/7 attributes, 2/2 relations,
    3/3 types, 2/2 vocabularies."""
    s = dataset_stats(restaurant_pair)
    assert s["E1 attributes"] == 7 and s["E2 attributes"] == 7
    assert s["E1 relations"] == 2 and s["E2 relations"] == 2
    assert s["E1 types"] == 3 and s["E2 types"] == 3
    assert s["E1 vocabularies"] == 2 and s["E2 vocabularies"] == 2


def test_bbc_heterogeneity_shape(bbc_pair):
    """E2 (DBpedia side) dwarfs E1 in attributes/relations/types."""
    s = dataset_stats(bbc_pair)
    assert s["E2 attributes"] > 5 * s["E1 attributes"]
    assert s["E2 relations"] > 3 * s["E1 relations"]
    assert s["E2 types"] > 10 * s["E1 types"]


def test_yago_shape(yago_pair):
    s = dataset_stats(yago_pair)
    assert s["E1 types"] > 10 * s["E2 types"]
    assert s["E2 vocabularies"] == 1
    assert abs(s["E1 avg_tokens"] - s["E2 avg_tokens"]) < 15


def test_pair_pass_equals_own_pass(bbc_pair):
    """count_predicates gives each KB of a pair the rows, and so the
    importances, of its own pass, and counts a counted KB no more."""
    def fresh(kb):
        return KB(kb.tag, kb.triples)

    paired = fresh(bbc_pair.kb1), fresh(bbc_pair.kb2)
    count_predicates(*paired)
    for kb, own in zip(paired, (fresh(bbc_pair.kb1), fresh(bbc_pair.kb2))):
        assert sorted(kb.predicate_stats) == sorted(own.predicate_stats)
        for rel in (False, True):
            def hexes(k):
                return sorted((p.pred, float.hex(p.importance)) for p in importance(k, rel))
            assert hexes(kb) == hexes(own)
    rows = paired[0].predicate_stats
    count_predicates(paired[0], fresh(bbc_pair.kb2))
    assert paired[0].predicate_stats is rows
