"""Schema-agnostic tokenization of entity descriptions.

The paper treats a description as a "bag of strings ... regardless of the
corresponding attributes" (Section I). We lowercase every literal value
(excluding ``rdf:type``), split on non-alphanumeric characters, and keep
the *distinct* tokens per entity — ``valueSim`` sums over the set
intersection ``tokens(e_i) ∩ tokens(e_j)``, so set semantics is what the
formula needs.

Token n-grams (for the BSL baseline's uni/bi/tri-gram representations)
are formed *within* each literal value: a bigram never spans two
different attribute values. One call builds every requested size in one
pass, tagging each gram with its size ``n``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kb.schema import KB, KBPair

_SPLIT_RE = "[^a-z0-9]+"


def value_token_arrays(kb: KB) -> DataFrame:
    """(eid, tokens) — ordered token array per literal value (one row per value)."""
    return (
        kb.literals()
        .select(
            "eid",
            F.array_remove(
                F.split(F.lower(F.col("obj")), _SPLIT_RE), ""
            ).alias("tokens"),
        )
        .filter(F.size("tokens") > 0)
    )


def entity_tokens(kb: KB) -> DataFrame:
    """(eid, token) — the distinct token set of each entity, hash-partitioned
    by ``token``: the block index, valueSim and the candidates join and
    group on the token alone, so this one shuffle serves them all."""
    return (
        value_token_arrays(kb)
        .select("eid", F.explode("tokens").alias("token"))
        .repartition("token")
        .distinct()
    )


def entity_ngrams(kb: KB, *sizes: int) -> DataFrame:
    """(eid, n, gram, tf) — token n-grams of every size in ``sizes`` per
    entity, with term frequencies, in one pass over the values.

    Grams are built within each value via a Catalyst ``transform`` over
    index sequences (no Python UDF); a value of fewer than n tokens has
    no n-gram. ``tf`` counts occurrences across the whole description,
    which feeds TF / TF-IDF weighting in BSL. The counts are
    hash-partitioned by ``gram``.
    """
    return _counted_ngrams(value_token_arrays(kb), ["eid"], sizes)


def pair_ngrams(pair: KBPair, *sizes: int) -> DataFrame:
    """(kb, eid, n, gram, tf) — :func:`entity_ngrams` of both KBs of
    ``pair``, tagged ``kb`` = 1 or 2. The values of both KBs are unioned
    before the grams are shuffled, so both share the one partitioning by
    ``gram`` that BSL's IDF window reads."""
    values = (
        value_token_arrays(pair.kb1).withColumn("kb", F.lit(1))
        .unionByName(value_token_arrays(pair.kb2).withColumn("kb", F.lit(2)))
    )
    return _counted_ngrams(values, ["kb", "eid"], sizes)


def _counted_ngrams(values: DataFrame, keys: list[str], sizes: tuple[int, ...]) -> DataFrame:
    """(<keys>, n, gram, tf) of the (<keys>, tokens) ``values``."""
    if not sizes or min(sizes) < 1:
        raise ValueError(f"n-gram sizes must be >= 1, got {sizes}")
    grams = F.expr(
        "transform(sequence(0, size(tokens) - n), "
        "i -> concat_ws(' ', slice(tokens, i + 1, n)))"
    )
    return (
        values
        .select(*keys, "tokens", F.explode(F.array(*map(F.lit, sorted(set(sizes))))).alias("n"))
        .filter(F.size("tokens") >= F.col("n"))
        .select(*keys, "n", F.explode(grams).alias("gram"))
        .repartition("gram")
        .groupBy(*keys, "n", "gram")
        .agg(F.count("*").alias("tf"))
    )


def avg_tokens_per_entity(kb: KB) -> float:
    """Mean number of (non-distinct) tokens per entity — Table I statistic."""
    row = (
        value_token_arrays(kb)
        .select("eid", F.size("tokens").alias("n"))
        .groupBy("eid")
        .agg(F.sum("n").alias("n"))
        .agg(F.avg("n").alias("avg"))
        .first()
    )
    return float(row["avg"]) if row and row["avg"] is not None else 0.0
