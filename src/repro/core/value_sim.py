"""valueSim — the paper's schema-agnostic value similarity (Section III, H2).

valueSim(e_i, e_j) = sum over common tokens t of
    1 / log2( EF_E1(t) * EF_E2(t) + 1 )

EF_E(t) ("entity frequency") is the number of entities of KB E whose
values contain t — exactly the size of t's token block in E, so the
metric is computable from block statistics alone. A token unique to the
pair on both sides contributes 1/log2(2) = 1; hence the H2 rule
"v_max >= 1 <=> they (and only they) share a token, or share many
infrequent tokens".

The sum ranges over the tokens that survive Block Purging (similarities
"are extracted from a set of blocks"; purged blocks no longer exist),
while EF itself is the pre-purge block size — a KB statistic. The weights
therefore come straight from the (key, n1, n2) block index of
:func:`repro.blocking.token_blocking.block_index`, whose ``n1``/``n2``
*are* EF_E1(t)/EF_E2(t): ``match()`` passes the purged index it built for
Block Purging, so no block is counted twice.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking.token_blocking import block_index


def value_similarities(
    tokens1: DataFrame, tokens2: DataFrame, blocks: DataFrame | None = None
) -> DataFrame:
    """(e1, e2, sim) for every cross-KB pair co-occurring in a kept block.

    ``blocks`` is the (key, n1, n2) index of the blocks surviving purging,
    or only its ``key`` column, whose block sizes are then counted from
    the tokens; None means no purging. Pairs absent from the result have
    valueSim 0 by definition.
    """
    if blocks is None or "n1" not in blocks.columns:
        index = block_index(tokens1, tokens2)
        blocks = index if blocks is None else index.join(blocks.select("key"), "key")
    w = blocks.select(
        F.col("key").alias("token"),
        (1.0 / F.log2(F.col("n1") * F.col("n2") + 1)).alias("w"),
    )
    t1 = tokens1.select(F.col("eid").alias("e1"), "token")
    t2 = tokens2.select(F.col("eid").alias("e2"), "token")
    return (
        t1.join(w, "token")
        .join(t2, "token")
        .groupBy("e1", "e2")
        .agg(F.sum("w").alias("sim"))
    )
