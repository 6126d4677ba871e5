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
single Spark pass over one candidate plan. The grams carry their size
``n``, and one table holds both KBs' weighted grams with each document's
per-(entity, n) gram count, weight sums and norms as window columns.
Each candidate's two ends join that table once; the grams both ends
share are aggregated per (n, e1, e2) into sufficient statistics
(|common|, dot products, Sum-min, Sum-(w1+w2) per weighting) beside the
two documents' norms. ``run_bsl`` collects that once and splits it by n
on the driver. The threshold sweep then reuses one UMC frontier per
scored config (see :mod:`repro.baselines.umc`). Pairs with zero
similarity are never fed to UMC — accepting a 0-similarity pair is
meaningless even at threshold 0.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.baselines.umc import umc_frontier
from repro.blocking.tokenize import entity_ngrams
from repro.eval.metrics import gt_sets, on_gt_e1, prf
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
# partitioning) mostly cannot decide a threshold or a UMC tie (ties fall to
# UMC's (e1, e2) tie-break). A value within that noise of a 12-decimal
# boundary still moves by 1e-12 with the order, as on BBCmusic and YAGO.
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


# Per-(kb, eid, n) statistics of a document, attached to each of its grams:
# gram count, sum of weights and L2 norm, per weighting.
_NORMS = ("c", "s_tf", "s_ti", "nrm_tf", "nrm_ti")


def _weighted_grams(pair: KBPair, sizes: tuple[int, ...]) -> DataFrame:
    """(kb, eid, n, gram, w_tf, w_ti, <_NORMS>); IDF over the union corpus.

    A gram's document frequency is its number of per-entity rows in both
    KBs, counted by one window over their union. Ids are local to each KB,
    so counting distinct (gram, eid) would merge an E1 and an E2 entity
    that share an id. IDF is keyed by the gram alone: its token count
    fixes its n. The document statistics are a second window, over
    (kb, eid, n), so the table is read once by the scoring join.
    """
    n_docs = pair.kb1.n_entities() + pair.kb2.n_entities()
    df = F.count("*").over(Window.partitionBy("gram"))
    doc = Window.partitionBy("kb", "eid", "n")
    weighted = (
        entity_ngrams(pair.kb1, *sizes).withColumn("kb", F.lit(1))
        .unionByName(entity_ngrams(pair.kb2, *sizes).withColumn("kb", F.lit(2)))
        .select(
            "kb",
            "eid",
            "n",
            "gram",
            F.col("tf").cast("double").alias("w_tf"),
            (F.col("tf") * F.log2(1.0 + F.lit(float(n_docs)) / df)).alias("w_ti"),
        )
    )
    return weighted.select(
        "*",
        F.count("*").over(doc).alias("c"),
        F.sum("w_tf").over(doc).alias("s_tf"),
        F.sum("w_ti").over(doc).alias("s_ti"),
        F.sqrt(F.sum(F.col("w_tf") ** 2).over(doc)).alias("nrm_tf"),
        F.sqrt(F.sum(F.col("w_ti") ** 2).over(doc)).alias("nrm_ti"),
    )


def pair_similarities(pair: KBPair, candidates: DataFrame, *sizes: int) -> DataFrame:
    """(n, e1, e2, <7 similarity columns>) for each n-gram size in
    ``sizes`` and each candidate pair sharing >=1 gram of that size.

    Each candidate is split into its two ends, (kb=1, e1) and (kb=2, e2),
    and both join the weighted grams at once; a gram both ends have is a
    (n, e1, e2, gram) group of two rows, whose per-side columns are taken
    apart with ``max(when(kb = ...))``. The document statistics are
    constant per (n, e1, e2), so they are grouping keys of the final sum.
    """
    ends = candidates.select(
        "e1",
        "e2",
        F.inline(F.array(
            F.struct(F.lit(1).alias("kb"), F.col("e1").alias("eid")),
            F.struct(F.lit(2).alias("kb"), F.col("e2").alias("eid")),
        )),
    )
    side = {
        f"{c}{k}": F.max(F.when(F.col("kb") == k, F.col(c)))
        for k in (1, 2)
        for c in ("w_tf", "w_ti", *_NORMS)
    }
    shared = (
        ends.join(_weighted_grams(pair, sizes), ["kb", "eid"])
        .groupBy("n", "e1", "e2", "gram")
        .agg(F.count("*").alias("ends"), *(e.alias(c) for c, e in side.items()))
        .filter("ends = 2")
    )
    common = shared.groupBy(
        "n", "e1", "e2", *(f"{c}{k}" for k in (1, 2) for c in _NORMS)
    ).agg(
        F.count("*").alias("cnt"),
        F.sum(F.col("w_tf1") * F.col("w_tf2")).alias("dot_tf"),
        F.sum(F.col("w_ti1") * F.col("w_ti2")).alias("dot_ti"),
        F.sum(F.least("w_tf1", "w_tf2")).alias("min_tf"),
        F.sum(F.least("w_ti1", "w_ti2")).alias("min_ti"),
        F.sum(F.col("w_tf1") + F.col("w_tf2")).alias("both_tf"),
        F.sum(F.col("w_ti1") + F.col("w_ti2")).alias("both_ti"),
    )
    sims = {
        "jaccard": F.col("cnt") / (F.col("c1") + F.col("c2") - F.col("cnt")),
        "cosine_tf": F.col("dot_tf") / (F.col("nrm_tf1") * F.col("nrm_tf2")),
        "cosine_tfidf": F.col("dot_ti") / (F.col("nrm_ti1") * F.col("nrm_ti2")),
        "gen_jaccard_tf": F.col("min_tf") / (F.col("s_tf1") + F.col("s_tf2") - F.col("min_tf")),
        "gen_jaccard_tfidf": F.col("min_ti") / (F.col("s_ti1") + F.col("s_ti2") - F.col("min_ti")),
        "sigma_tf": F.col("both_tf") / (F.col("s_tf1") + F.col("s_tf2")),
        "sigma_tfidf": F.col("both_ti") / (F.col("s_ti1") + F.col("s_ti2")),
    }
    return common.select(
        "n", "e1", "e2", *(F.round(sims[m], SIM_DECIMALS).alias(m) for m in MEASURES)
    )


def _sweep(
    frontier: list[tuple], gt_pairs: set, gt_e1: set, n: int, measure: str
) -> list[BSLOutcome]:
    """Evaluate every threshold against one UMC frontier (prefix property)."""
    out = []
    for t in THRESHOLDS:
        tp, n_out = on_gt_e1(((e1, e2) for e1, e2, s in frontier if s >= t), gt_pairs, gt_e1)
        out.append(BSLOutcome(n, measure, t, *prf(tp, n_out, len(gt_pairs))))
    return out


def run_bsl(pair: KBPair, candidates: DataFrame) -> tuple[BSLOutcome, list[BSLOutcome]]:
    """Run the full 420-configuration sweep; return (best, all outcomes)."""
    gt_pairs, gt_e1 = gt_sets(pair.ground_truth)

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
