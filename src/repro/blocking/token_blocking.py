"""Token Blocking — the schema-agnostic block collection B_T.

A block is a token; it contains every entity (from either KB) whose
literal values contain that token. Only blocks with at least one entity
from *each* KB generate comparisons in clean-clean ER, so the index keeps
exactly those. Comparisons per block = n1 * n2.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def block_index(tokens1: DataFrame, tokens2: DataFrame) -> DataFrame:
    """(key, n1, n2) — per-block entity counts, cross-KB blocks only.

    ``tokens1``/``tokens2`` are (eid, token) DataFrames from
    :func:`repro.blocking.tokenize.entity_tokens` (or name keys from
    name blocking — the index logic is shared). One aggregate over both
    tables, tagged by side, counts each block's entities per KB.
    """
    tagged = tokens1.select("token", F.lit(1).alias("side")).unionByName(
        tokens2.select("token", F.lit(2).alias("side"))
    )
    return (
        tagged.groupBy("token")
        .agg(
            F.count_if(F.col("side") == 1).alias("n1"),
            F.count_if(F.col("side") == 2).alias("n2"),
        )
        .filter("n1 > 0 AND n2 > 0")
        .select(F.col("token").alias("key"), "n1", "n2")
    )


def collection_size(index: DataFrame) -> tuple[int, int]:
    """(|B|, ||B||) — the number of blocks in the collection and their
    aggregate number of cross-KB comparisons, from one aggregate."""
    row = index.agg(
        F.count("*").alias("blocks"), F.sum(F.col("n1") * F.col("n2")).alias("c")
    ).first()
    return row["blocks"], row["c"] or 0


def candidate_pairs(
    tokens1: DataFrame, tokens2: DataFrame, keys: DataFrame | None = None
) -> DataFrame:
    """(e1, e2) — distinct cross-KB pairs co-occurring in some block.

    ``keys``, when given, restricts to the surviving (e.g. purged) block
    keys: a one-column ``key`` DataFrame. It is joined to ``tokens1``
    alone, as a pair's block key is on both sides of the token join, so
    an uncached key plan runs once.
    """
    t1 = tokens1.select(F.col("eid").alias("e1"), "token")
    t2 = tokens2.select(F.col("eid").alias("e2"), "token")
    if keys is not None:
        t1 = t1.join(keys.select(F.col("key").alias("token")), "token")
    return t1.join(t2, "token").select("e1", "e2").distinct()
