"""Name Blocking — the block collection B_N used by H1.

Entire entity names (the literal values of the k most important
attributes per KB, see :mod:`repro.core.attributes`) act as blocking
keys; their block index is :func:`repro.blocking.token_blocking.block_index`
over the two name-key tables. A block with exactly one entity from each
KB is an H1 match: the two entities — and only they — have that name. The
index carries each block's smallest entity id per KB, which is its one
entity there when the block is 1x1, so H1 is a filter on the index. The
name keys are hash-partitioned by name, so the index shuffles no key.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking.token_blocking import block_index
from repro.core.attributes import entity_names
from repro.kb.schema import KBPair


def name_keys(pair: KBPair, k: int = 2) -> tuple[DataFrame, DataFrame]:
    """Per-KB (eid, token) name-key DataFrames (key in column ``token``)."""
    n1 = entity_names(pair.kb1, k).select("eid", F.col("name").alias("token"))
    n2 = entity_names(pair.kb2, k).select("eid", F.col("name").alias("token"))
    return n1, n2


def h1_matches(
    pair: KBPair, k: int = 2, keys: tuple[DataFrame, DataFrame] | None = None
) -> DataFrame:
    """(e1, e2) pairs from name blocks with exactly one entity per KB;
    ``keys`` are name keys the caller has built (``match()`` passes its
    blocking's, uncached), else they are derived here."""
    n1, n2 = keys if keys is not None else name_keys(pair, k)
    return block_index(n1, n2).filter("n1 = 1 AND n2 = 1").select("e1", "e2").distinct()
