"""BSL — the paper's custom baseline (Section IV, Baselines).

BSL receives the same blocks B_N u B_T as MinoanER, scores every
co-occurring pair with a configurable schema-agnostic similarity, prunes
by a threshold, and feeds the result to Unique Mapping Clustering. Its
F1 is maximized over 420 configurations per dataset:

    3 n-gram sizes (token uni/bi/tri-grams)
  x ( Jaccard  +  {Cosine, Generalized Jaccard, SiGMa} x {TF, TF-IDF} )
  x 20 thresholds (0.00 .. 0.95, step 0.05)

(Jaccard is set-based, hence weighting-free: 3 x 7 x 20 = 420 — the only
factorization matching the paper's count; DESIGN.md §6.)

All 7 similarity families for all 3 n-gram sizes are computed in a
single Spark pass over one candidate plan: the grams carry their size
``n``, one pair-gram join is aggregated per (n, e1, e2) into sufficient
statistics (|common|, dot products, Sum-min, Sum-(w1+w2) per weighting)
and combined with per-(entity, n) norms. ``run_bsl`` collects that once
and splits it by n on the driver. The threshold sweep then reuses one
UMC frontier per scored config (see :mod:`repro.baselines.umc`). Pairs
with zero similarity are never fed to UMC — accepting a 0-similarity
pair is meaningless even at threshold 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.baselines.umc import umc_frontier
from repro.blocking.tokenize import entity_ngrams
from repro.kb.schema import KBPair

MEASURES = [
    "jaccard",
    "cosine_tf", "cosine_tfidf",
    "gen_jaccard_tf", "gen_jaccard_tfidf",
    "sigma_tf", "sigma_tfidf",
]
THRESHOLDS = [round(0.05 * i, 2) for i in range(20)]  # 0.00 .. 0.95
NGRAM_SIZES = (1, 2, 3)
# Similarities are rounded to this many decimals before any comparison, so
# float noise from summation order (which follows the plan and the shuffle
# partitioning) cannot decide a threshold boundary or a UMC tie; ties then
# fall to UMC's (e1, e2) tie-break.
SIM_DECIMALS = 12


@dataclass(frozen=True)
class BSLOutcome:
    """One (n, measure, threshold) configuration's quality."""

    n: int
    measure: str
    threshold: float
    precision: float
    recall: float
    f1: float


def _weighted_grams(pair: KBPair, sizes: tuple[int, ...]) -> tuple[DataFrame, DataFrame]:
    """Per-KB (eid, n, gram, w_tf, w_tfidf); IDF over the union corpus.

    A gram's document frequency is its number of per-entity rows in both
    KBs, counted by one window over their union. Ids are local to each KB,
    so counting distinct (gram, eid) would merge an E1 and an E2 entity
    that share an id. IDF is keyed by the gram alone: its token count
    fixes its n.
    """
    n_docs = pair.kb1.n_entities() + pair.kb2.n_entities()
    df = F.count("*").over(Window.partitionBy("gram"))
    weighted = (
        entity_ngrams(pair.kb1, *sizes).withColumn("kb", F.lit(1))
        .unionByName(entity_ngrams(pair.kb2, *sizes).withColumn("kb", F.lit(2)))
        .select(
            "kb",
            "eid",
            "n",
            "gram",
            F.col("tf").cast("double").alias("w_tf"),
            (F.col("tf") * F.log2(1.0 + F.lit(float(n_docs)) / df)).alias("w_tfidf"),
        )
    )
    return (
        weighted.filter("kb = 1").drop("kb"),
        weighted.filter("kb = 2").drop("kb"),
    )


def _entity_norms(grams: DataFrame, side: str) -> DataFrame:
    """(e<side>, n, c<side>, s<side>_tf, s<side>_ti, nrm<side>_tf, nrm<side>_ti)."""
    return grams.groupBy(F.col("eid").alias(f"e{side}"), "n").agg(
        F.count("*").alias(f"c{side}"),
        F.sum("w_tf").alias(f"s{side}_tf"),
        F.sum("w_tfidf").alias(f"s{side}_ti"),
        F.sqrt(F.sum(F.col("w_tf") ** 2)).alias(f"nrm{side}_tf"),
        F.sqrt(F.sum(F.col("w_tfidf") ** 2)).alias(f"nrm{side}_ti"),
    )


def pair_similarities(pair: KBPair, candidates: DataFrame, *sizes: int) -> DataFrame:
    """(n, e1, e2, <7 similarity columns>) for each n-gram size in
    ``sizes`` and each candidate pair sharing >=1 gram of that size."""
    g1, g2 = _weighted_grams(pair, sizes)
    common = (
        candidates.join(g1.withColumnRenamed("eid", "e1"), "e1")
        .join(
            g2.withColumnRenamed("eid", "e2")
            .withColumnRenamed("w_tf", "v_tf")
            .withColumnRenamed("w_tfidf", "v_tfidf"),
            ["e2", "n", "gram"],
        )
        .groupBy("n", "e1", "e2")
        .agg(
            F.count("*").alias("cnt"),
            F.sum(F.col("w_tf") * F.col("v_tf")).alias("dot_tf"),
            F.sum(F.col("w_tfidf") * F.col("v_tfidf")).alias("dot_ti"),
            F.sum(F.least("w_tf", "v_tf")).alias("min_tf"),
            F.sum(F.least("w_tfidf", "v_tfidf")).alias("min_ti"),
            F.sum(F.col("w_tf") + F.col("v_tf")).alias("both_tf"),
            F.sum(F.col("w_tfidf") + F.col("v_tfidf")).alias("both_ti"),
        )
    )
    sims = {
        "jaccard": F.col("cnt") / (F.col("c1") + F.col("c2") - F.col("cnt")),
        "cosine_tf": F.col("dot_tf") / (F.col("nrm1_tf") * F.col("nrm2_tf")),
        "cosine_tfidf": F.col("dot_ti") / (F.col("nrm1_ti") * F.col("nrm2_ti")),
        "gen_jaccard_tf": F.col("min_tf") / (F.col("s1_tf") + F.col("s2_tf") - F.col("min_tf")),
        "gen_jaccard_tfidf": F.col("min_ti") / (F.col("s1_ti") + F.col("s2_ti") - F.col("min_ti")),
        "sigma_tf": F.col("both_tf") / (F.col("s1_tf") + F.col("s2_tf")),
        "sigma_tfidf": F.col("both_ti") / (F.col("s1_ti") + F.col("s2_ti")),
    }
    return (
        common.join(_entity_norms(g1, "1"), ["e1", "n"])
        .join(_entity_norms(g2, "2"), ["e2", "n"])
        .select("n", "e1", "e2", *(F.round(sims[m], SIM_DECIMALS).alias(m) for m in MEASURES))
    )


def _sweep(
    frontier: list[tuple], gt_pairs: set, gt_e1: set, n: int, measure: str
) -> list[BSLOutcome]:
    """Evaluate every threshold against one UMC frontier (prefix property)."""
    n_gt = len(gt_pairs)
    out = []
    for t in THRESHOLDS:
        kept = [(e1, e2) for e1, e2, s in frontier if s >= t and e1 in gt_e1]
        tp = sum(1 for p in kept if p in gt_pairs)
        p = 100.0 * tp / len(kept) if kept else 0.0
        r = 100.0 * tp / n_gt if n_gt else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        out.append(BSLOutcome(n, measure, t, p, r, f1))
    return out


def run_bsl(pair: KBPair, candidates: DataFrame) -> tuple[BSLOutcome, list[BSLOutcome]]:
    """Run the full 420-configuration sweep; return (best, all outcomes)."""
    gt_rows = pair.ground_truth.collect()
    gt_pairs = {(r["e1"], r["e2"]) for r in gt_rows}
    gt_e1 = {r["e1"] for r in gt_rows}

    sims = pair_similarities(pair, candidates, *NGRAM_SIZES).collect()
    all_outcomes: list[BSLOutcome] = []
    for n in NGRAM_SIZES:
        rows = [r for r in sims if r["n"] == n]
        for m in MEASURES:
            scored = [
                (r["e1"], r["e2"], float(r[m]))
                for r in rows
                if r[m] is not None and r[m] > 0.0
            ]
            all_outcomes.extend(_sweep(umc_frontier(scored), gt_pairs, gt_e1, n, m))
    best = max(all_outcomes, key=lambda o: (o.f1, -o.threshold))
    return best, all_outcomes
