"""Predicate importance and automatic entity-name discovery (for H1).

importance(p) = harmonic mean of
  support(p)          = |{e : p in e}| / |E|
  discriminability(p) = |distinct objects of p| / |{e : p in e}|

The paper uses this one formula twice: over literal attributes, whose k
most important per KB provide the values that serve as entity *names*
(no rdfs:label or schema knowledge required), and over relations, whose
N most important define the neighborhoods of H3
(:mod:`repro.core.relations`). Both read the counts of
:attr:`repro.kb.schema.KB.predicate_stats`, one pass per KB kept on the
driver, so ranking is plain arithmetic here. ``rdf:type`` triples are
excluded (DESIGN.md §6).
"""
from __future__ import annotations

from typing import NamedTuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kb.schema import KB


class Importance(NamedTuple):
    """One predicate's importance and the two factors it is made of."""

    pred: str
    support: float
    discriminability: float
    importance: float


def importance(kb: KB, relations: bool = False) -> list[Importance]:
    """The importance of each literal attribute of ``kb``, or of each of its
    relations."""
    n_entities = float(kb.n_entities())
    out = []
    for r in kb.predicate_stats:
        if r["is_rel"] == relations:
            support = r["n_e"] / n_entities
            discr = r["n_obj"] / r["n_e"]
            out.append(
                Importance(r["pred"], support, discr, 2 * support * discr / (support + discr))
            )
    return out


def top_predicates(kb: KB, n: int, relations: bool = False) -> list[str]:
    """The n attributes (or relations) of ``kb`` with the highest
    importance (ties by name)."""
    ranked = sorted(importance(kb, relations), key=lambda p: (-p.importance, p.pred))
    return [p.pred for p in ranked[:n]]


def entity_names(kb: KB, k: int = 2) -> DataFrame:
    """(eid, name) — normalized literal values of the top-k name attributes.

    An entity may expose several names (one per name attribute / value).
    Normalization mirrors tokenization casing so that name equality is
    insensitive to case and surrounding whitespace.
    """
    return (
        kb.literals()
        .filter(F.col("pred").isin(top_predicates(kb, k)))
        .select("eid", F.trim(F.lower(F.col("obj"))).alias("name"))
        .distinct()
    )
