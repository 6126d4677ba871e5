"""Tests for schema-agnostic tokenization (repro.blocking.tokenize)."""
import pytest
from pyspark.sql import functions as F

from repro.blocking.tokenize import (
    avg_tokens_per_entity,
    entity_ngrams,
    entity_tokens,
    pair_ngrams,
    value_token_arrays,
)
from repro.kb.schema import kb_from_rows, pair_from_rows
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def kb(spark):
    return kb_from_rows(
        spark,
        "E1",
        [
            (1, "ns0:name", "Hello, World!", False),
            (1, "ns0:desc", "hello again", False),
            (2, "ns0:name", "a-b c", False),
            (2, "ns0:rel", "1", True),          # relations are not tokenized
            (2, "rdf:type", "TypeValue", False),  # rdf:type is not tokenized
            (3, "ns0:name", "***", False),        # tokenizes to nothing
        ],
    )


def test_tokens_lowercased_and_split(kb):
    toks = {(r.eid, r.token) for r in entity_tokens(kb).collect()}
    assert toks == {
        (1, "hello"), (1, "world"), (1, "again"),
        (2, "a"), (2, "b"), (2, "c"),
    }


def test_tokens_are_distinct_per_entity(kb):
    # "hello" appears in two values of entity 1 but only once as a token
    df = entity_tokens(kb).filter("eid = 1 AND token = 'hello'")
    assert df.count() == 1


def test_relations_and_types_excluded(kb):
    toks = {r.token for r in entity_tokens(kb).collect()}
    assert "typevalue" not in toks and "1" not in toks


def test_empty_values_dropped(kb):
    assert entity_tokens(kb).filter("eid = 3").count() == 0


def test_value_token_arrays_keep_order(kb):
    rows = value_token_arrays(kb).filter("eid = 1").collect()
    arrays = sorted(tuple(r.tokens) for r in rows)
    assert arrays == [("hello", "again"), ("hello", "world")]


def test_unigrams_with_tf(spark):
    kb = kb_from_rows(spark, "E1", [(1, "a", "x x y", False)])
    grams = {(r.gram, r.tf) for r in entity_ngrams(kb, 1).collect()}
    assert grams == {("x", 2), ("y", 1)}


def test_bigrams_within_value_only(spark):
    kb = kb_from_rows(
        spark, "E1", [(1, "a", "x y z", False), (1, "b", "w", False)]
    )
    grams = {r.gram for r in entity_ngrams(kb, 2).collect()}
    # no bigram spans the two values (no "z w")
    assert grams == {"x y", "y z"}


def test_trigrams(spark):
    kb = kb_from_rows(spark, "E1", [(1, "a", "p q r s", False)])
    grams = {r.gram for r in entity_ngrams(kb, 3).collect()}
    assert grams == {"p q r", "q r s"}


def test_trigram_of_short_value_is_empty(spark):
    kb = kb_from_rows(spark, "E1", [(1, "a", "p q", False)])
    assert entity_ngrams(kb, 3).count() == 0


def test_ngrams_all_sizes_in_one_pass(spark):
    """One call over several sizes equals the union of single-size calls."""
    kb = kb_from_rows(
        spark, "E1",
        [(1, "a", "p q r p q", False), (1, "b", "q r", False), (2, "a", "s", False)],
    )
    cols = ["eid", "n", "gram", "tf"]
    together = sorted(tuple(r) for r in entity_ngrams(kb, 1, 2, 3).select(cols).collect())
    apart = sorted(
        tuple(r) for n in (1, 2, 3) for r in entity_ngrams(kb, n).select(cols).collect()
    )
    assert together == apart
    assert {r[1] for r in together} == {1, 2, 3}


def test_pair_ngrams_tag_each_kb(spark):
    """Both KBs' grams, counted in one pass, equal each KB's own grams
    tagged by its side; an id shared by both KBs stays two documents."""
    pair = pair_from_rows(
        spark, "p", [(1, "a", "p q p", False)], [(1, "a", "p q", False), (2, "a", "q", False)], []
    )
    cols = ["eid", "n", "gram", "tf"]
    both = sorted(tuple(r) for r in pair_ngrams(pair, 1, 2).select("kb", *cols).collect())
    apart = sorted(
        (side, *r)
        for side, kb in ((1, pair.kb1), (2, pair.kb2))
        for r in entity_ngrams(kb, 1, 2).select(cols).collect()
    )
    assert both == apart
    assert (1, 1, 1, "p", 2) in both and (2, 1, 1, "p", 1) in both


def test_ngram_invalid_n(spark):
    kb = kb_from_rows(spark, "E1", [(1, "a", "p", False)])
    with pytest.raises(ValueError):
        entity_ngrams(kb, 0)


def test_avg_tokens(kb):
    # entity 1: 4 tokens, entity 2: 3 tokens, entity 3: no tokenizable value
    assert avg_tokens_per_entity(kb) == pytest.approx((4 + 3) / 2)


def test_avg_tokens_empty(spark):
    kb = kb_from_rows(spark, "E1", [(1, "a", "###", False)])
    assert avg_tokens_per_entity(kb) == 0.0


def test_token_counts_vs_oracle(spark, toy_pair):
    """Cross-check per-token entity counts against DuckDB string ops."""
    toks = entity_tokens(toy_pair.kb1)
    counts = toks.groupBy("token").agg(F.countDistinct("eid").alias("n"))
    lits = toy_pair.kb1.literals().toPandas()
    sql = """
        SELECT token, COUNT(DISTINCT eid) AS n FROM (
            SELECT eid,
                   UNNEST(string_split_regex(LOWER(obj), '[^a-z0-9]+')) AS token
            FROM lits
        ) WHERE token <> '' GROUP BY token
    """
    assert_equivalent(counts, sql, lits=lits)


def test_preset_avg_tokens_shape(restaurant_pair, yago_pair):
    """Table I shape: restaurant ~20 tokens/entity, yago ~15/12."""
    r1 = avg_tokens_per_entity(restaurant_pair.kb1)
    y1 = avg_tokens_per_entity(yago_pair.kb1)
    y2 = avg_tokens_per_entity(yago_pair.kb2)
    assert 12 <= r1 <= 30
    assert 8 <= y2 <= y1 + 8 and y1 <= 25
