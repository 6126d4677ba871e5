"""Top-neighbor extraction (for H3).

The N globally most important relations per KB — the importance of
:mod:`repro.core.attributes`, over object properties — define each
entity's ``topNneighbors``: the objects it is connected to through one of
those N relations. No schema alignment: each KB ranks its own relations
from its own statistics.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.attributes import top_predicates
from repro.kb.schema import KB


def top_neighbors(kb: KB, n: int = 3) -> DataFrame:
    """(eid, nbr) — distinct neighbors through the top-n relations."""
    top = top_predicates(kb, n, relations=True)
    return kb.relations().filter(F.col("pred").isin(top)).select("eid", "nbr").distinct()
