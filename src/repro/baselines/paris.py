"""Simplified PARIS [10] — probabilistic, functionality-driven, iterative.

PARIS (Suchanek et al., PVLDB 2011) aligns instances by (i) seeding
equivalences from shared literal values, weighted by how selective the
value is, (ii) estimating relation alignments from current matches, and
(iii) propagating match probabilities along aligned relations, weighted
by the relations' *functionality* (how close they are to single-valued).
We reproduce that skeleton in a fixed number of fixed-point iterations:

  seed:   P0(x,x') = 1 - prod over shared literal values v of
                     (1 - 1/(f1(v) * f2(v)))
  align:  a(r,r')  = matched-edge overlap of r and r', normalized by
                     translatable (both-endpoints-matched) edges
  prop:   two directions, as in PARIS:
          forward  — matched subjects imply matching objects, weighted
                     by a * fun(r) * fun(r')        ("if r(x,y) is a
                     function ... then y, y' are considered matches",
                     the paper's own summary of [10]);
          backward — matched objects imply matching subjects, weighted
                     by a * fun_inv(r) * fun_inv(r') (inverse
                     functionality: does the object identify the
                     subject?). Hub objects have fun_inv ~ 0, which is
                     what stops them from flooding the propagation.
          P(x,x') = 1 - (1 - P0) * prod over edge-pair evidence e of
                    (1 - weight(e) * P(neighbor pair))

followed by a greedy one-to-one assignment of pairs with P >= 0.5
(``ITERATIONS`` = 5 rounds at most, ``THRESHOLD`` = 0.5). Relation pairs
whose total weight cannot influence the result (a * w * w' < 0.02, the
same floor used to prune the pair table) are dropped before the joins.

f1(v) and f2(v), the numbers of entities per KB that carry the non-blank
value v, are the block sizes of the literal values' block index, the one
count of block sizes MinoanER's blocking reads too
(:func:`repro.blocking.token_blocking.block_index`).
fun and fun_inv are driver arithmetic over the per-predicate counts of
:attr:`repro.kb.schema.KB.predicate_stats`, which MinoanER's importance
reads too. Each KB's (x, r, y) edge table is selected once. The
alignment has one row per relation pair, so each iteration collects it
once: an empty alignment ends the loop, and both directions' weights
are computed on the driver, which keeps the alignment out of the
propagation plan.

This keeps exactly the two properties the paper's comparison relies on
(DESIGN.md §3): it thrives on functional relations and exact literals
(YAGO-IMDb), and collapses when whole-string literal equality is rare
and schemata are structurally heterogeneous (BBCmusic-DBpedia) —
"Unlike our approach, PARIS cannot deal with structural heterogeneity."
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.umc import umc_df
from repro.blocking.token_blocking import block_index
from repro.kb.schema import KB, KBPair

# Literal values shared by too many entity pairs are no evidence at all
# (PARIS likewise ignores over-frequent literals) and would only blow up
# the seed join.
MAX_VALUE_PAIRS = 1_000


def _norm_literals(kb: KB) -> DataFrame:
    """(eid, token) — each entity's distinct trimmed literal values; a
    value that is blank after trimming is no evidence."""
    # PARIS compares literals *exactly* (modulo surrounding whitespace):
    # no case folding, no tokenization. This is the documented reason it
    # "cannot deal with structural heterogeneity" — formatting differences
    # between KBs (case, qualifiers, language tags) destroy its seeds,
    # while MinoanER's token-level evidence survives them.
    return (
        kb.literals()
        .select("eid", F.trim(F.col("obj")).alias("token"))
        .filter(F.col("token") != "")
        .distinct()
    )


def seed_probabilities(pair: KBPair) -> DataFrame:
    """(e1, e2, p) from exact shared literal values; f1(v) and f2(v) are
    the n1/n2 of their block index."""
    l1 = _norm_literals(pair.kb1)
    l2 = _norm_literals(pair.kb2)
    vals = (
        block_index(l1, l2)
        .filter(F.col("n1") * F.col("n2") <= MAX_VALUE_PAIRS)
        .select(F.col("key").alias("token"), (1.0 / (F.col("n1") * F.col("n2"))).alias("ev"))
    )
    return (
        l1.withColumnRenamed("eid", "e1")
        .join(vals, "token")
        .join(l2.withColumnRenamed("eid", "e2"), "token")
        .groupBy("e1", "e2")
        .agg((1.0 - F.exp(F.sum(F.log1p(-F.col("ev") * 0.999999)))).alias("p"))
    )


def functionality(kb: KB) -> dict[str, tuple[float, float]]:
    """pred -> (fun, finv) per relation: #subjects / #triples and
    #distinct objects / #triples, from :attr:`KB.predicate_stats`."""
    return {
        r["pred"]: (r["n_e"] / r["n_t"], r["n_obj"] / r["n_t"])
        for r in kb.predicate_stats
        if r["is_rel"]
    }


def _relation_alignment(rel1: DataFrame, rel2: DataFrame, matched: DataFrame) -> DataFrame:
    """(r1, r2, a) — overlap of relation edges under ``matched``.

    ``rel1`` and ``rel2`` are the KBs' (x1, r1, y1) and (x2, r2, y2) edges.
    ``matched`` holds every (e1, e2) pair with p >= THRESHOLD, so an
    entity may appear in several pairs; an edge pair r1(x,y), r2(x',y')
    is an overlap hit when x~x' and y~y'.
    """
    m_src = matched.toDF("x1", "x2")
    m_dst = matched.toDF("y1", "y2")
    overlap = (
        rel1.join(m_src, "x1")
        .join(rel2, "x2")
        .join(m_dst, ["y1", "y2"], "left_semi")
        .groupBy("r1", "r2")
        .agg(F.count("*").alias("common"))
    )
    # PARIS's subsumption probabilities condition on *translatable* edges:
    # the denominator counts only edges whose subject and object are both
    # matched. Normalizing by all edges would let unmatched entities
    # (the vast majority at web scale) dilute every alignment to ~0.
    n1 = (
        rel1.join(m_src.select("x1"), "x1", "left_semi")
        .join(m_dst.select("y1"), "y1", "left_semi")
        .groupBy("r1")
        .agg(F.count("*").alias("n1"))
    )
    n2 = (
        rel2.join(m_src.select("x2"), "x2", "left_semi")
        .join(m_dst.select("y2"), "y2", "left_semi")
        .groupBy("r2")
        .agg(F.count("*").alias("n2"))
    )
    return (
        overlap.join(n1, "r1")
        .join(n2, "r2")
        .select(
            "r1",
            "r2",
            (F.col("common") / F.least("n1", "n2")).alias("a"),
        )
        .filter(F.col("a") > 0)
    )


def _release_checkpoint(df: DataFrame) -> None:
    """Drop the blocks of a localCheckpoint(); ``df.unpersist()`` does not
    reach the RDD behind it."""
    df._jdf.queryExecution().analyzed().rdd().unpersist(False)


ITERATIONS = 5
THRESHOLD = 0.5
WEIGHT_FLOOR = 0.02


def run_paris(pair: KBPair) -> DataFrame:
    """Iterate seed -> align -> propagate; return matched (e1, e2, sim)."""
    spark = pair.kb1.triples.sparkSession
    seeds = seed_probabilities(pair).cache()
    probs = seeds
    try:
        fun1, fun2 = functionality(pair.kb1), functionality(pair.kb2)
        rel1 = pair.kb1.relations().toDF("x1", "r1", "y1")
        rel2 = pair.kb2.relations().toDF("x2", "r2", "y2")
        for _ in range(ITERATIONS):
            confident = probs.filter(F.col("p") >= THRESHOLD).select("e1", "e2")
            align = _relation_alignment(rel1, rel2, confident).collect()
            if not align:
                break
            # forward weight a * fun * fun', backward a * finv * finv'
            weights = spark.createDataFrame(
                [
                    (r1, r2, a * fun1[r1][0] * fun2[r2][0], a * fun1[r1][1] * fun2[r2][1])
                    for r1, r2, a in align
                ],
                "r1 string, r2 string, fwd double, bwd double",
            )
            src_p = probs.toDF("x1", "x2", "pn")
            dst_p = probs.toDF("y1", "y2", "pn")
            # forward: matched subject pair (x1,x2) -> evidence for the
            # object pair (y1,y2) of aligned functional relations
            fwd = (
                rel1.join(src_p, "x1")
                .join(weights.filter(F.col("fwd") >= WEIGHT_FLOOR), "r1")
                .join(rel2, ["r2", "x2"])
                .select(
                    F.col("y1").alias("e1"), F.col("y2").alias("e2"),
                    (F.col("fwd") * F.col("pn")).alias("ev"),
                )
            )
            # backward: matched object pair (y1,y2) -> evidence for the
            # subject pair, damped by inverse functionality (hub objects
            # identify nothing)
            bwd = (
                rel1.join(dst_p, "y1")
                .join(weights.filter(F.col("bwd") >= WEIGHT_FLOOR), "r1")
                .join(rel2, ["r2", "y2"])
                .select(
                    F.col("x1").alias("e1"), F.col("x2").alias("e2"),
                    (F.col("bwd") * F.col("pn")).alias("ev"),
                )
            )
            evidence = (
                fwd.unionByName(bwd)
                .groupBy("e1", "e2")
                .agg(F.exp(F.sum(F.log1p(-F.least(F.col("ev"), F.lit(0.999999))))).alias("keep"))
            )
            checkpoint = (
                seeds.toDF("e1", "e2", "p0")
                .join(evidence, ["e1", "e2"], "outer")
                .fillna({"p0": 0.0, "keep": 1.0})
                .select(
                    "e1", "e2", (1.0 - (1.0 - F.col("p0")) * F.col("keep")).alias("p")
                )
                # negligible probabilities can never reach the acceptance
                # threshold in the remaining iterations; pruning them bounds
                # the pair table
                .filter(F.col("p") >= 0.02)
                # truncate the lineage: without this the alignment-evidence
                # self-reference makes the plan tree grow geometrically per
                # iteration and the driver OOMs just *printing* it
                .localCheckpoint()
            )
            if probs is not seeds:
                _release_checkpoint(probs)
            probs = checkpoint
        scored = probs.filter(F.col("p") >= THRESHOLD).toDF("e1", "e2", "sim")
        return umc_df(scored, THRESHOLD)
    finally:
        if probs is not seeds:
            _release_checkpoint(probs)
        seeds.unpersist()
