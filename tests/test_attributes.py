"""Tests for predicate importance over attributes and name discovery
(repro.core.attributes)."""
import hashlib

import pytest
from pyspark.sql import functions as F

from repro.core.attributes import entity_names, importance, top_predicates
from repro.kb.schema import kb_from_rows
from repro.oracle import assert_equivalent


def attribute_importance(kb):
    return importance(kb)


def top_k_name_attributes(kb, k):
    return top_predicates(kb, k)


@pytest.fixture(scope="module")
def kb(spark):
    # 4 entities; "name" on all with distinct values; "status" on all with
    # one value; "note" on half with distinct values.
    return kb_from_rows(
        spark,
        "E1",
        [
            (1, "name", "n1", False), (2, "name", "n2", False),
            (3, "name", "n3", False), (4, "name", "n4", False),
            (1, "status", "active", False), (2, "status", "active", False),
            (3, "status", "active", False), (4, "status", "active", False),
            (1, "note", "x1", False), (2, "note", "x2", False),
            (1, "rel", "2", True),
            (1, "rdf:type", "t", False),
        ],
    )


def test_importance_values(kb):
    imp = {r.pred: r for r in attribute_importance(kb)}
    # name: support 1, discriminability 1 -> importance 1
    assert imp["name"].support == pytest.approx(1.0)
    assert imp["name"].discriminability == pytest.approx(1.0)
    assert imp["name"].importance == pytest.approx(1.0)
    # status: support 1, discriminability 1/4 -> harmonic mean 0.4
    assert imp["status"].importance == pytest.approx(2 * 1 * 0.25 / 1.25)
    # note: support 1/2, discriminability 1 -> 2/3
    assert imp["note"].importance == pytest.approx(2 * 0.5 / 1.5)


def test_relations_and_types_excluded(kb):
    preds = {r.pred for r in attribute_importance(kb)}
    assert preds == {"name", "status", "note"}


def test_top_k(kb):
    assert top_k_name_attributes(kb, 1) == ["name"]
    assert top_k_name_attributes(kb, 2) == ["name", "note"]


def test_top_k_larger_than_attrs(kb):
    assert top_k_name_attributes(kb, 10) == ["name", "note", "status"]


def test_entity_names_normalized(spark):
    kb = kb_from_rows(spark, "E1", [(1, "name", "  MiXeD Case ", False)])
    rows = entity_names(kb, 1).collect()
    assert [(r.eid, r.name) for r in rows] == [(1, "mixed case")]


def test_entity_names_multiple_attrs(kb):
    names = {(r.eid, r.name) for r in entity_names(kb, 2).collect()}
    assert (1, "n1") in names and (1, "x1") in names
    assert (3, "n3") in names and not any(n == "active" for _, n in names)


def test_importance_vs_oracle(spark, kb):
    df = spark.createDataFrame(attribute_importance(kb)).drop("importance")
    lits = kb.literals().toPandas()
    n = kb.n_entities()
    sql = f"""
        SELECT pred,
               COUNT(DISTINCT eid) / {n} AS support,
               COUNT(DISTINCT obj) * 1.0 / COUNT(DISTINCT eid) AS discriminability
        FROM lits GROUP BY pred
    """
    assert_equivalent(df, sql, lits=lits)


def test_preset_name_attr_wins(restaurant_pair, yago_pair):
    """The designed name/id attributes must top the importance ranking —
    the property H1 depends on (DESIGN.md: names found by statistics)."""
    for pair, side in ((restaurant_pair, 1), (yago_pair, 1)):
        top = set(top_k_name_attributes(pair.kb1, 2))
        assert f"ns0:a{side}_0" in top, top  # the name attribute
    top2 = set(top_k_name_attributes(restaurant_pair.kb2, 2))
    assert "ns0:a2_0" in top2, top2


def test_tie_break_deterministic(spark):
    kb = kb_from_rows(
        spark, "E1",
        [(1, "b", "x", False), (1, "a", "y", False), (2, "b", "z", False), (2, "a", "w", False)],
    )
    assert top_k_name_attributes(kb, 1) == ["a"]  # equal importance -> name order


# Recorded from the per-predicate Spark aggregation that ranked names and
# relations separately (seed 42, scale 1): for each KB, the number of
# predicates and a digest of every (is_rel, pred, float.hex of support,
# discriminability and importance). A rewrite must keep every bit.
GOLDEN_IMPORTANCES = {
    "restaurant_pair": ((9, "a4e58b82dbae4a72"), (9, "19d69afe5596a68c")),
    "bbc_pair": ((30, "01dd6075e3635372"), (240, "f264c8f794b98c69")),
    "rexa_pair": ((28, "0eeec300d9e78084"), (40, "ca39e743094e4336")),
    "yago_pair": ((20, "586b9f35d5786c24"), (27, "70fa8f1b5e6719aa")),
}


def _importances(kb):
    """(is_rel, pred, support, discriminability, importance) of every
    literal attribute and relation of ``kb``."""
    lits = importance(kb)
    rels = importance(kb, relations=True)
    return [(False, *r) for r in lits] + [(True, *r) for r in rels]


def _importance_digest(kb) -> tuple[int, str]:
    rows = sorted(_importances(kb))
    text = "\n".join(
        f"{rel},{pred},{s.hex()},{d.hex()},{i.hex()}" for rel, pred, s, d, i in rows
    )
    return len(rows), hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("pair_name", sorted(GOLDEN_IMPORTANCES))
def test_golden_importances(request, pair_name):
    pair = request.getfixturevalue(pair_name)
    got = (_importance_digest(pair.kb1), _importance_digest(pair.kb2))
    assert got == GOLDEN_IMPORTANCES[pair_name]
