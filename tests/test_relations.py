"""Tests for predicate importance over relations and top neighbors
(repro.core.attributes, repro.core.relations)."""
import pytest

from repro.baselines import paris
from repro.core.attributes import importance, top_predicates
from repro.core.minoaner import match
from repro.core.relations import top_neighbors
from repro.kb.schema import kb_from_rows, pair_from_rows
from repro.oracle import assert_equivalent


def relation_importance(kb):
    return importance(kb, relations=True)


def top_n_relations(kb, n):
    return top_predicates(kb, n, relations=True)


@pytest.fixture(scope="module")
def kb(spark):
    # 3 entities; "knows" on all (distinct objects), "likes" on one.
    return kb_from_rows(
        spark,
        "E1",
        [
            (1, "name", "a", False),
            (2, "name", "b", False),
            (3, "name", "c", False),
            (1, "knows", "2", True),
            (2, "knows", "3", True),
            (3, "knows", "1", True),
            (1, "likes", "3", True),
            (1, "likes", "2", True),
        ],
    )


def test_importance(kb):
    imp = {r.pred: r for r in relation_importance(kb)}
    assert imp["knows"].support == pytest.approx(1.0)
    assert imp["knows"].discriminability == pytest.approx(1.0)
    # likes: support 1/3, discriminability 2/1 = 2
    assert imp["likes"].support == pytest.approx(1 / 3)
    assert imp["likes"].discriminability == pytest.approx(2.0)


def test_literals_excluded(kb):
    assert {r.pred for r in relation_importance(kb)} == {"knows", "likes"}


def test_top_n(kb):
    assert top_n_relations(kb, 1) == ["knows"]
    assert set(top_n_relations(kb, 2)) == {"knows", "likes"}


def test_top_neighbors_restricted_to_top_relations(kb):
    nbrs = {(r.eid, r.nbr) for r in top_neighbors(kb, 1).collect()}
    assert nbrs == {(1, 2), (2, 3), (3, 1)}


def test_top_neighbors_distinct(spark):
    kb = kb_from_rows(
        spark, "E1",
        [(1, "knows", "2", True), (1, "knows", "2", True), (2, "knows", "1", True)],
    )
    assert top_neighbors(kb, 1).count() == 2


def test_no_relations(spark):
    kb = kb_from_rows(spark, "E1", [(1, "name", "a", False)])
    assert top_n_relations(kb, 3) == []
    assert top_neighbors(kb, 3).count() == 0


def test_discriminability_counts_neighbor_ids(spark):
    """Relation objects are entity ids: "007" and "7" name one neighbor,
    so ``knows`` has discriminability 1/2, not the 2/2 of distinct strings."""
    kb = kb_from_rows(
        spark, "E1",
        [(1, "knows", "007", True), (2, "knows", "7", True), (7, "name", "x", False)],
    )
    imp = {r.pred: r for r in relation_importance(kb)}
    assert imp["knows"].support == 2 / 3
    assert imp["knows"].discriminability == 0.5
    assert imp["knows"].importance == 2 * (2 / 3) * 0.5 / (2 / 3 + 0.5)


def test_non_id_object_is_no_edge(spark):
    """A relation triple whose object is not an entity id is no edge: the
    statistics, the neighbors and the functionalities ignore it, and
    match() runs (ANSI mode would raise on a plain cast)."""
    rows1 = [
        (1, "name", "alpha one", False), (2, "name", "beta two", False),
        (1, "knows", "2", True), (2, "knows", "1", True),
    ]
    bad = [(1, "knows", "http://x/2", True), (2, "seeAlso", "http://x/1", True)]
    rows2 = [
        (11, "label", "alpha one", False), (12, "label", "beta two", False),
        (11, "link", "12", True),
    ]
    clean = pair_from_rows(spark, "t", rows1, rows2, [(1, 11), (2, 12)])
    dirty = pair_from_rows(spark, "t", rows1 + bad, rows2, [(1, 11), (2, 12)])
    kb, kb_bad = clean.kb1, dirty.kb1
    assert sorted(kb_bad.predicate_stats) == sorted(kb.predicate_stats)
    assert sorted(map(tuple, top_neighbors(kb_bad).collect())) == sorted(
        map(tuple, top_neighbors(kb).collect())
    )
    assert paris.functionality(kb_bad) == paris.functionality(kb)
    got = sorted(map(tuple, match(dirty).matches.collect()))
    assert got == sorted(map(tuple, match(clean).matches.collect()))


def test_importance_vs_oracle(spark, kb):
    df = spark.createDataFrame(relation_importance(kb)).drop("importance")
    rels = kb.relations().toPandas()
    n = kb.n_entities()
    sql = f"""
        SELECT pred,
               COUNT(DISTINCT eid) / {n} AS support,
               COUNT(DISTINCT nbr) * 1.0 / COUNT(DISTINCT eid) AS discriminability
        FROM rels GROUP BY pred
    """
    assert_equivalent(df, sql, rels=rels)


def test_preset_core_relations_win(yago_pair):
    """Junk relations (low support) must rank below the core ones that
    carry the aligned edges — H3's neighborhood depends on it."""
    top1 = top_n_relations(yago_pair.kb1, 3)
    assert all(any(f"r1_{i}" in t for i in range(3)) for t in top1), top1
    top2 = top_n_relations(yago_pair.kb2, 3)
    assert all(any(f"r2_{i}" in t for i in range(3)) for t in top2), top2
