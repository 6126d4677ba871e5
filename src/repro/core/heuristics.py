"""The four threshold-free matching heuristics H1-H4 (paper, Section III).

H1 lives in :mod:`repro.blocking.name_blocking` (it *is* name blocking);
this module implements H2 (value), H3 (rank aggregation), H4
(reciprocity) and the neighbor similarity they share. All are pure
DataFrame -> DataFrame transformations.

H2-H4 read the same per-entity candidate lists, ranked by valueSim and
by neighborNSim. H3 and H4 each join both lists into one
``(e1, e2, sim, nsim)`` table and rank it in one pass per side; a pair
missing from a list has a null score, which ranks last and is never in
the top. One rule breaks every tie: score desc, then the other side's id
asc (:func:`_ranking`). The two neighbor ranks cover different pairs:
H3 left-joins the nsim > 0 rows onto its candidates, so it ranks only
pairs *co-occurring* in a B_T block; H4 full-outer-joins them, so it
ranks every pair with nsim > 0.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F


def neighbor_similarities(
    value_sims: DataFrame, nbrs1: DataFrame, nbrs2: DataFrame
) -> DataFrame:
    """neighborNSim(e_i, e_j) = sum valueSim(n_i, n_j) over top-relation
    neighbors of each side.

    ``nbrs1``/``nbrs2`` are (eid, nbr) from
    :func:`repro.core.relations.top_neighbors`. Neighbor pairs that never
    co-occur in a block have valueSim 0 and contribute nothing, so the
    inner joins are exact.
    """
    vs = value_sims.select(
        F.col("e1").alias("n1"), F.col("e2").alias("n2"), "sim"
    )
    m1 = nbrs1.select(F.col("eid").alias("e1"), F.col("nbr").alias("n1"))
    m2 = nbrs2.select(F.col("eid").alias("e2"), F.col("nbr").alias("n2"))
    return (
        vs.join(m1, "n1")
        .join(m2, "n2")
        .groupBy("e1", "e2")
        .agg(F.sum("sim").alias("nsim"))
    )


# A count over the whole partition framed on a rank's window shares its sort.
_WHOLE_PARTITION = (Window.unboundedPreceding, Window.unboundedFollowing)


def _ranking(side: str, *scores: str) -> Window:
    """Per-``side`` entity order: each score desc, nulls last, then the
    other side's id asc."""
    other = "e2" if side == "e1" else "e1"
    return Window.partitionBy(side).orderBy(
        *(F.desc_nulls_last(s) for s in scores), F.asc(other)
    )


def _exclude(df: DataFrame, matched: DataFrame | None, col: str) -> DataFrame:
    """Drop rows whose ``col`` entity appears in ``matched[col]``."""
    if matched is None:
        return df
    return df.join(matched.select(col).distinct(), col, "left_anti")


def h2_matches(value_sims: DataFrame, matched: DataFrame | None = None) -> DataFrame:
    """(e1, e2) — for each unmatched E1 entity, its best co-occurring E2
    entity, kept iff v_max >= 1 (shares a pair-unique token, or many
    infrequent ones).

    Only the E1-side iteration is restricted ("goes through the blocks of
    every entity e_i of the smaller KB that hasn't been matched by H1");
    candidate E2 entities are never consumed — MinoanER does not enforce
    a 1-1 mapping, which is exactly what makes it robust where Unique
    Mapping Clustering is not.
    """
    return (
        _exclude(value_sims, matched, "e1")
        .withColumn("rn", F.row_number().over(_ranking("e1", "sim")))
        .filter((F.col("rn") == 1) & (F.col("sim") >= 1.0))
        .select("e1", "e2")
    )


def h3_matches(
    value_sims: DataFrame,
    neighbor_sims: DataFrame,
    matched: DataFrame | None = None,
    theta: float = 0.6,
) -> DataFrame:
    """(e1, e2) — threshold-free rank aggregation for entities whose value
    similarity alone was not conclusive.

    For each unmatched E1 entity, its co-occurring candidates are ranked
    twice — by valueSim and by non-zero neighborNSim — the normalized
    ranks are aggregated with weights theta / (1 - theta), and the top-1
    candidate becomes its match. As in H2, only the E1-side iteration is
    restricted to unmatched descriptions; E2 candidates are not consumed.
    """

    def normalized_rank(score: str) -> Column:
        # (K - rank + 1)/K over the K candidates with a score; null for the rest
        w = _ranking("e1", score)
        k = F.count(score).over(w.rowsBetween(*_WHOLE_PARTITION))
        return F.when(F.col(score).isNotNull(), (k - F.row_number().over(w) + 1) / k)

    score_v = normalized_rank("sim")
    score_n = F.coalesce(normalized_rank("nsim"), F.lit(0.0))
    return (
        _exclude(value_sims, matched, "e1")
        .join(neighbor_sims.filter("nsim > 0"), ["e1", "e2"], "left")
        .withColumn("agg", F.lit(theta) * score_v + F.lit(1 - theta) * score_n)
        .withColumn("rn", F.row_number().over(_ranking("e1", "agg", "sim")))
        .filter("rn = 1")
        .select("e1", "e2")
    )


def h4_filter(
    matches: DataFrame,
    value_sims: DataFrame,
    neighbor_sims: DataFrame,
    k: int = 15,
) -> DataFrame:
    """Reciprocity: keep <e_i, e_j> only if e_j is among e_i's top-K value
    OR neighbor candidates AND vice versa.

    ``value_sims`` and ``neighbor_sims`` hold one row per (e1, e2), so the
    inner join keeps each match once. A left-semi join would do the same,
    but Spark pushes it below the union ``matches`` usually is and ranks
    the table once per heuristic.
    """

    def top_k(side: str, score: str) -> Column:
        rank = F.row_number().over(_ranking(side, score))
        return F.col(score).isNotNull() & (rank <= k)

    ok1, ok2 = (top_k(side, "sim") | top_k(side, "nsim") for side in ("e1", "e2"))
    reciprocal = (
        value_sims.join(neighbor_sims.filter("nsim > 0"), ["e1", "e2"], "full")
        .withColumn("ok", ok1 & ok2)
        .filter("ok")
        .select("e1", "e2")
    )
    return matches.join(reciprocal, ["e1", "e2"])
