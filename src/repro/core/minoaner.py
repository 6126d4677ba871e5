"""MinoanER end-to-end pipeline — Definition 1:

    M(e_i, e_j) = ( H1 v H2 v H3 ) ^ H4

computed non-iteratively over the schema-agnostic block collections
B_N (name blocking) and B_T (token blocking after Block Purging).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking import name_blocking, purging
from repro.blocking.stats import Blocking, block_pair
from repro.core import heuristics, relations, value_sim
from repro.kb.schema import KBPair


@dataclass(frozen=True)
class MinoanERConfig:
    """Paper's robust configuration (Section IV, Experimental Setup)."""

    K: int = 15          # reciprocal candidates per entity (H4)
    N: int = 3           # most important relations per KB (H3)
    k: int = 2           # most distinctive name attributes per KB (H1)
    theta: float = 0.6   # value- vs neighbor-rank trade-off (H3)
    budget_factor: float = purging.DEFAULT_BUDGET_FACTOR  # Block Purging


@dataclass
class MinoanERResult:
    """Final matches plus diagnostics: ``counts`` of the matches per
    heuristic and in ``total``, the pairs each heuristic ``proposed``, how
    many of those H4 ``rejected``, and what Block Purging kept of B_T
    (``purge``)."""

    matches: DataFrame                     # (e1, e2, heuristic)
    counts: dict[str, int] = field(default_factory=dict)
    proposed: dict[str, int] = field(default_factory=dict)
    rejected: dict[str, int] = field(default_factory=dict)
    purge: purging.PurgeStats | None = None


HEURISTICS = ("H1", "H2", "H3")


def match(pair: KBPair, cfg: MinoanERConfig = MinoanERConfig()) -> MinoanERResult:
    """Run the full non-iterative matching process on a KB pair."""
    with block_pair(pair, cfg.k, cfg.budget_factor) as b:
        return resolve(pair, b, cfg)


def proposals(
    vsims: DataFrame, nsims: DataFrame, h1: DataFrame, cfg: MinoanERConfig
) -> DataFrame:
    """(e1, e2, heuristic, ok) — every pair H1, H2 or H3 proposes, read
    from one ranked candidate table, with H4's verdict ``ok``."""
    open_e1 = ~F.col("e1_matched")
    heuristic = (
        F.when(F.col("matched"), "H1")
        .when(open_e1 & F.col("h2"), "H2")
        .when(open_e1 & F.col("h3"), "H3")
    )
    return (
        heuristics.ranked_candidates(vsims, nsims, h1, cfg.theta, cfg.K)
        .select("e1", "e2", heuristic.alias("heuristic"), "ok")
        .filter(F.col("heuristic").isNotNull())
    )


def resolve(pair: KBPair, b: Blocking, cfg: MinoanERConfig) -> MinoanERResult:
    """Definition 1 over the open blocking ``b`` of ``pair``."""
    vsims = value_sim.value_similarities(*b.tokens, b.kept).cache()
    nsims = heuristics.neighbor_similarities(
        vsims,
        relations.top_neighbors(pair.kb1, cfg.N),
        relations.top_neighbors(pair.kb2, cfg.N),
    )
    h1 = name_blocking.h1_matches(pair, cfg.k, b.names)

    # Materialize on the driver: results are small (O(|E1|) rows) and this
    # lets the cached valueSim be released deterministically.
    rows = proposals(vsims, nsims, h1, cfg).collect()
    vsims.unpersist()
    kept = [(r["e1"], r["e2"], r["heuristic"]) for r in rows if r["ok"]]
    counts = {h: sum(row[2] == h for row in kept) for h in HEURISTICS}
    counts["total"] = len(kept)
    proposed = {h: sum(r["heuristic"] == h for r in rows) for h in HEURISTICS}
    spark = pair.kb1.triples.sparkSession
    out = spark.createDataFrame(kept, schema="e1 long, e2 long, heuristic string")
    return MinoanERResult(
        matches=out,
        counts=counts,
        proposed=proposed,
        rejected={h: proposed[h] - counts[h] for h in HEURISTICS},
        purge=b.purge,
    )
