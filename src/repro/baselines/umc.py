"""Unique Mapping Clustering — the 1-1 greedy matcher used by BSL
(and by SiGMa [3], whose matching loop it mirrors).

Pairs are processed in decreasing similarity; a pair is accepted iff
neither entity was matched before and its similarity reaches the
threshold. The loop is inherently sequential, so it runs driver-side
over the collected candidate pairs (which blocking already bounded);
everything feeding it is a Spark dataflow.

``umc_frontier`` exploits a prefix property to sweep thresholds cheaply:
greedy decisions for pairs with sim >= t never depend on later (lower)
pairs, so UMC at threshold t equals the threshold-0 run truncated at t.
"""
from __future__ import annotations

from pyspark.sql import DataFrame


def umc_frontier(pairs: list[tuple]) -> list[tuple]:
    """Greedy 1-1 matching of (e1, e2, sim) tuples at threshold 0, sorted
    by decreasing similarity.

    Ties are broken by (e1, e2) for determinism.
    """
    used1: set = set()
    used2: set = set()
    out = []
    for e1, e2, sim in sorted(pairs, key=lambda p: (-p[2], p[0], p[1])):
        if e1 in used1 or e2 in used2:
            continue
        used1.add(e1)
        used2.add(e2)
        out.append((e1, e2, sim))
    return out


def umc_df(scored: DataFrame, threshold: float = 0.0) -> DataFrame:
    """UMC at ``threshold``: (e1, e2, sim) in -> matched (e1, e2, sim) out.

    By the prefix property this is the threshold-0 frontier truncated at
    ``threshold``.
    """
    rows = [(r["e1"], r["e2"], float(r["sim"])) for r in scored.collect()]
    kept = [p for p in umc_frontier(rows) if p[2] >= threshold]
    spark = scored.sparkSession
    return spark.createDataFrame(kept, schema="e1 long, e2 long, sim double")
