"""Name Blocking — the block collection B_N used by H1.

Entire entity names (the literal values of the k most important
attributes per KB, see :mod:`repro.core.attributes`) act as blocking
keys; their block index is :func:`repro.blocking.token_blocking.block_index`
over the two name-key tables. A block with exactly one entity from each
KB is an H1 match: the two entities — and only they — have that name. H1
needs no index for that: per KB, a name's block count and smallest
entity id give its one entity whenever the count is 1. The name keys are
hash-partitioned by name, so those counts and their join shuffle no key.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.attributes import entity_names
from repro.kb.schema import KBPair


def name_keys(pair: KBPair, k: int = 2) -> tuple[DataFrame, DataFrame]:
    """Per-KB (eid, token) name-key DataFrames (key in column ``token``)."""
    n1 = entity_names(pair.kb1, k).select("eid", F.col("name").alias("token"))
    n2 = entity_names(pair.kb2, k).select("eid", F.col("name").alias("token"))
    return n1, n2


def _single_owner(keys: DataFrame, eid: str) -> DataFrame:
    """(token, ``eid``) for the name keys that exactly one entity has."""
    return (
        keys.groupBy("token")
        .agg(F.count("*").alias("n"), F.min("eid").alias(eid))
        .filter("n = 1")
        .select("token", eid)
    )


def h1_matches(
    pair: KBPair, k: int = 2, keys: tuple[DataFrame, DataFrame] | None = None
) -> DataFrame:
    """(e1, e2) pairs from name blocks with exactly one entity per KB;
    ``keys`` are name keys the caller has built (``match()`` passes its
    blocking's, uncached), else they are derived here."""
    n1, n2 = keys if keys is not None else name_keys(pair, k)
    return (
        _single_owner(n1, "e1")
        .join(_single_owner(n2, "e2"), "token")
        .select("e1", "e2")
        .distinct()
    )
