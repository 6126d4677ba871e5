"""The four threshold-free matching heuristics H1-H4 (paper, Section III).

H1 lives in :mod:`repro.blocking.name_blocking`: its pairs are the 1x1
blocks of the name block index. This module implements H2 (value), H3
(rank aggregation), H4 (reciprocity) and the neighbor similarity they
share. All are pure DataFrame -> DataFrame transformations.

H2-H4 read the same per-entity candidate lists, ranked by valueSim and
by neighborNSim, and :func:`ranked_candidates` builds them once: one
``(e1, e2, sim, nsim)`` table, the full outer join of valueSim, the
nsim > 0 rows and the pairs already matched, ranked in one window pass
per side. A pair missing from a list has a null score, which ranks last
and is never in the top. One rule breaks every tie: score desc, then the
other side's id asc (:func:`_ranking`). Each row carries a label, the
heuristic that proposes the pair (H1 for a matched pair, H2, H3 or
none), and H4's verdict; :func:`h2_matches` and :func:`h3_matches`
filter on the label and :func:`h4_filter` on the verdict. One table
serves all three because:

- excluding the matched E1 entities drops whole E1 partitions, so no E1
  entity's ranks depend on the exclusion, and H4's E2-side ranks span the
  whole table, as H4 judges every proposal;
- an E1 entity outside H1 is an H2 match exactly when its largest
  valueSim is >= 1 (its best candidate has it), so H3 ranks the entities
  outside H1 whose largest valueSim is < 1, whether or not H4 keeps their
  H2 pick;
- H3 ranks the neighbor evidence of *co-occurring* pairs only (the nsim
  of pairs with a valueSim), H4 that of every pair with nsim > 0.
"""
from __future__ import annotations

import functools

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


def _normalized_rank(score: str) -> Column:
    """(K - rank + 1)/K of a pair in its E1 entity's list by ``score``,
    over the K pairs with a score; null for the rest."""
    w = _ranking("e1", score)
    k = F.count(score).over(w.rowsBetween(*_WHOLE_PARTITION))
    return F.when(F.col(score).isNotNull(), (k - F.row_number().over(w) + 1) / k)


def _top(side: str, score: str, k: int) -> Column:
    """The pair has a ``score`` and is among its ``side`` entity's top ``k``."""
    rank = F.row_number().over(_ranking(side, score))
    return F.col(score).isNotNull() & (rank <= k)


def ranked_candidates(
    value_sims: DataFrame,
    neighbor_sims: DataFrame | None = None,
    matched: DataFrame | None = None,
    theta: float = 0.6,
    k: int = 15,
) -> DataFrame:
    """(e1, e2, heuristic, ok) — the one ranked table.

    One row per pair in ``value_sims``, in the nsim > 0 rows of
    ``neighbor_sims`` or in ``matched``; a score the pair lacks is null.
    ``heuristic`` labels the pair that proposes it, null for the rest:

    - ``H1``: the pair is in ``matched``; no other pair of its E1 entity
      is labelled;
    - ``H2``: the pair is its E1 entity's best by valueSim, with valueSim >= 1;
    - ``H3``: the pair co-occurs and tops its E1 entity's rank aggregate
      (weights theta / 1 - theta), and that entity's best valueSim is < 1,
      so H2 and H3 never label the same entity.

    ``ok`` is H4 reciprocity: each side has the other among its top ``k``
    by valueSim or by nsim.
    """
    none = F.lit(None).cast("double")

    def rows(df: DataFrame, sim: Column, nsim: Column, is_matched: bool) -> DataFrame:
        return df.select(
            "e1", "e2", sim.alias("sim"), nsim.alias("nsim"), F.lit(is_matched).alias("matched")
        )

    parts = [rows(value_sims, F.col("sim"), none, False)]
    if neighbor_sims is not None:
        parts.append(rows(neighbor_sims.filter("nsim > 0"), none, F.col("nsim"), False))
    if matched is not None:
        parts.append(rows(matched, none, none, True))
    # The full outer join of the sources on (e1, e2), as one aggregate:
    # each source holds a pair at most once, so max() takes its one score.
    # Grouped within E1 partitions, which the E1-side ranks read next.
    t = (
        functools.reduce(DataFrame.unionByName, parts)
        .repartition("e1")
        .groupBy("e1", "e2")
        .agg(*(F.max(c).alias(c) for c in ("sim", "nsim", "matched")))
    )
    # H3 ranks the neighbor evidence of co-occurring pairs only
    t = t.withColumn("h3_nsim", F.when(F.col("sim").isNotNull(), F.col("nsim")))
    by_value = _ranking("e1", "sim")
    e1_whole = by_value.rowsBetween(*_WHOLE_PARTITION)
    t = t.select(
        "e1", "e2", "sim", "nsim", "matched",
        (~F.max("matched").over(e1_whole)).alias("open"),
        ((F.row_number().over(by_value) == 1) & (F.col("sim") >= 1.0)).alias("h2"),
        (F.max("sim").over(e1_whole) < 1.0).alias("value_open"),
        (
            F.lit(theta) * _normalized_rank("sim")
            + F.lit(1 - theta) * F.coalesce(_normalized_rank("h3_nsim"), F.lit(0.0))
        ).alias("agg"),
        (_top("e1", "sim", k) | _top("e1", "nsim", k)).alias("ok1"),
    )
    # every E1-side rank before the E2 side's, so the table shuffles once per side
    h3 = (
        F.col("value_open")
        & F.col("agg").isNotNull()
        & (F.row_number().over(_ranking("e1", "agg", "sim")) == 1)
    )
    heuristic = (
        F.when(F.col("matched"), "H1")
        .when(F.col("open") & F.col("h2"), "H2")
        .when(F.col("open") & h3, "H3")
    )
    t = t.select("*", heuristic.alias("heuristic"))
    ok = F.col("ok1") & (_top("e2", "sim", k) | _top("e2", "nsim", k))
    return t.select("e1", "e2", "heuristic", ok.alias("ok"))


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
        ranked_candidates(value_sims, matched=matched)
        .filter("heuristic = 'H2'")
        .select("e1", "e2")
    )


def h3_matches(
    value_sims: DataFrame,
    neighbor_sims: DataFrame,
    matched: DataFrame | None = None,
    theta: float = 0.6,
) -> DataFrame:
    """(e1, e2) — threshold-free rank aggregation for entities whose value
    similarity alone was not conclusive: E1 entities outside ``matched``
    whose best valueSim is < 1, so H2 does not match them.

    For each such entity, its co-occurring candidates are ranked twice —
    by valueSim and by non-zero neighborNSim — the normalized ranks are
    aggregated with weights theta / (1 - theta), and the top-1 candidate
    becomes its match. As in H2, only the E1-side iteration is restricted
    to unmatched descriptions; E2 candidates are not consumed.
    """
    return (
        ranked_candidates(value_sims, neighbor_sims, matched, theta)
        .filter("heuristic = 'H3'")
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

    The ranked table holds one row per (e1, e2), so the inner join keeps
    each match once.
    """
    ok = ranked_candidates(value_sims, neighbor_sims, k=k).filter("ok")
    return matches.join(ok.select("e1", "e2"), ["e1", "e2"])
