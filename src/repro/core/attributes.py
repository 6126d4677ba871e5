"""Predicate importance and automatic entity-name discovery (for H1).

importance(p) = harmonic mean of
  support(p)          = |{e : p in e}| / |E|
  discriminability(p) = |distinct objects of p| / |{e : p in e}|

The paper uses this one formula twice: over literal attributes, whose k
most important per KB provide the values that serve as entity *names*
(no rdfs:label or schema knowledge required), and over relations, whose
N most important define the neighborhoods of H3
(:mod:`repro.core.relations`). ``rdf:type`` triples are excluded
(DESIGN.md §6).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kb.schema import KB


def importance(triples: DataFrame, obj_col: str, n_entities: int) -> DataFrame:
    """(pred, support, discriminability, importance) of each predicate of
    the (eid, pred, ``obj_col``) ``triples`` of a KB with ``n_entities``."""
    per_pred = triples.groupBy("pred").agg(
        F.countDistinct("eid").alias("n_e"),
        F.countDistinct(obj_col).alias("n_obj"),
    )
    support = F.col("n_e") / F.lit(float(n_entities))
    discr = F.col("n_obj") / F.col("n_e")
    return per_pred.select(
        "pred",
        support.alias("support"),
        discr.alias("discriminability"),
        (2 * support * discr / (support + discr)).alias("importance"),
    )


def top_predicates(importances: DataFrame, n: int) -> list[str]:
    """The n predicates with the highest importance (ties by name, stable)."""
    rows = (
        importances.orderBy(F.desc("importance"), F.asc("pred")).limit(n).collect()
    )
    return [r["pred"] for r in rows]


def entity_names(kb: KB, k: int = 2) -> DataFrame:
    """(eid, name) — normalized literal values of the top-k name attributes.

    An entity may expose several names (one per name attribute / value).
    Normalization mirrors tokenization casing so that name equality is
    insensitive to case and surrounding whitespace.
    """
    lits = kb.literals()
    attrs = top_predicates(importance(lits, "obj", kb.n_entities()), k)
    return (
        lits.filter(F.col("pred").isin(attrs))
        .select("eid", F.trim(F.lower(F.col("obj"))).alias("name"))
        .distinct()
    )
