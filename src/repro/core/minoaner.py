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
    """Final matches plus per-heuristic diagnostics."""

    matches: DataFrame                     # (e1, e2, heuristic)
    counts: dict[str, int] = field(default_factory=dict)


def match(pair: KBPair, cfg: MinoanERConfig = MinoanERConfig()) -> MinoanERResult:
    """Run the full non-iterative matching process on a KB pair."""
    with block_pair(pair, cfg.k, cfg.budget_factor) as b:
        return resolve(pair, b, cfg)


def resolve(pair: KBPair, b: Blocking, cfg: MinoanERConfig) -> MinoanERResult:
    """Definition 1 over the open blocking ``b`` of ``pair``."""
    vsims = value_sim.value_similarities(*b.tokens, b.kept).cache()
    nbrs1 = relations.top_neighbors(pair.kb1, cfg.N)
    nbrs2 = relations.top_neighbors(pair.kb2, cfg.N)
    nsims = heuristics.neighbor_similarities(vsims, nbrs1, nbrs2).cache()

    h1 = (
        name_blocking.h1_matches(pair, cfg.k, b.names)
        .withColumn("heuristic", F.lit("H1"))
        .cache()
    )
    h2 = heuristics.h2_matches(vsims, h1).withColumn("heuristic", F.lit("H2")).cache()
    matched_12 = h1.select("e1", "e2").unionByName(h2.select("e1", "e2"))
    h3 = heuristics.h3_matches(vsims, nsims, matched_12, cfg.theta).withColumn(
        "heuristic", F.lit("H3")
    )

    disjunction = h1.unionByName(h2).unionByName(h3)
    final = heuristics.h4_filter(disjunction, vsims, nsims, cfg.K)

    # Materialize on the driver: results are small (O(|E1|) rows) and this
    # lets the heavy cached intermediates be released deterministically.
    rows = final.collect()
    for df in (vsims, nsims, h1, h2):
        df.unpersist()
    counts = {h: sum(r["heuristic"] == h for r in rows) for h in ("H1", "H2", "H3")}
    counts["total"] = len(rows)
    spark = pair.kb1.triples.sparkSession
    out = spark.createDataFrame(
        [(r["e1"], r["e2"], r["heuristic"]) for r in rows],
        schema="e1 long, e2 long, heuristic string",
    )
    return MinoanERResult(matches=out, counts=counts)
