"""KB substrate: RDF-ish triples as Spark DataFrames.

An entity description is a URI-identifiable set of attribute-value pairs
(paper, Section I). We represent a Knowledge Base as a single triples
DataFrame with columns:

- ``eid``    (long)    — subject entity id, local to the KB
- ``pred``   (string)  — predicate, prefixed with a namespace (``ns0:a3``)
- ``obj``    (string)  — object: a literal string, or the string form of a
  neighbor entity id when ``is_rel`` is true
- ``is_rel`` (boolean) — true iff the object is another entity of this KB

``rdf:type`` triples are encoded with ``pred == TYPE_PRED`` and
``is_rel=False``; they are excluded from the "attributes" statistics and
from name-attribute selection (DESIGN.md §6).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import Column, DataFrame, Row, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

TYPE_PRED = "rdf:type"

TRIPLE_SCHEMA = T.StructType(
    [
        T.StructField("eid", T.LongType(), False),
        T.StructField("pred", T.StringType(), False),
        T.StructField("obj", T.StringType(), False),
        T.StructField("is_rel", T.BooleanType(), False),
    ]
)

GT_SCHEMA = T.StructType(
    [
        T.StructField("e1", T.LongType(), False),
        T.StructField("e2", T.LongType(), False),
    ]
)


def _neighbor_id() -> Column:
    """A relation object as an entity id: null, not an error under ANSI
    mode, when the object string is no integer."""
    return F.col("obj").try_cast("long")


@dataclass(frozen=True)
class KB:
    """One knowledge base: a name tag ('E1'/'E2') and its triples."""

    tag: str
    triples: DataFrame

    def entities(self) -> DataFrame:
        """Distinct entity ids (as subjects)."""
        return self.triples.select("eid").distinct()

    def n_entities(self) -> int:
        """|E|, counted on first use only: a KB's triples never change."""
        return self._n_entities

    @cached_property
    def _n_entities(self) -> int:
        return self.entities().count()

    @cached_property
    def predicate_stats(self) -> tuple[Row, ...]:
        """One (is_rel, pred, n_e, n_obj, n_t) row per predicate of the
        literals and relations: its distinct subjects, distinct objects and
        triples, a relation's objects counted as entity ids (``nbr``) and
        its triples as the edges of :meth:`relations`. One pass, on first
        use only."""
        rel, nbr = F.col("is_rel"), _neighbor_id()
        kept = F.when(rel, nbr.isNotNull()).otherwise(F.col("pred") != TYPE_PRED)
        obj = F.when(rel, nbr.cast("string")).otherwise(F.col("obj"))
        return tuple(
            self.triples.filter(kept)
            .groupBy("is_rel", "pred")
            .agg(
                F.countDistinct("eid").alias("n_e"),
                F.countDistinct(obj).alias("n_obj"),
                F.count("*").alias("n_t"),
            )
            .collect()
        )

    def n_triples(self) -> int:
        return self.triples.count()

    def literals(self) -> DataFrame:
        """Literal triples excluding rdf:type — the value space of H2."""
        return self.triples.filter(
            (~F.col("is_rel")) & (F.col("pred") != TYPE_PRED)
        )

    def relations(self) -> DataFrame:
        """Object-property triples with the object as an entity id; a
        triple whose object is not an id is no edge."""
        return (
            self.triples.filter("is_rel")
            .select("eid", "pred", _neighbor_id().alias("nbr"))
            .filter(F.col("nbr").isNotNull())
        )

    def types(self) -> DataFrame:
        """rdf:type assertions: (eid, type literal)."""
        return self.triples.filter(F.col("pred") == TYPE_PRED).select(
            "eid", F.col("obj").alias("type")
        )


@dataclass(frozen=True)
class KBPair:
    """A clean-clean ER task: two KBs plus the ground-truth matches.

    ``ground_truth`` has columns (e1, e2) — ids in kb1 / kb2 respectively.
    Each entity appears in at most one ground-truth pair (clean KBs).
    """

    name: str
    kb1: KB
    kb2: KB
    ground_truth: DataFrame

    def n_matches(self) -> int:
        return self.ground_truth.count()


def kb_from_rows(
    spark: SparkSession, tag: str, rows: list[tuple[int, str, str, bool]]
) -> KB:
    """Build a KB from (eid, pred, obj, is_rel) tuples — test helper."""
    return KB(tag, spark.createDataFrame(rows, schema=TRIPLE_SCHEMA))


def pair_from_rows(
    spark: SparkSession,
    name: str,
    rows1: list[tuple[int, str, str, bool]],
    rows2: list[tuple[int, str, str, bool]],
    gt: list[tuple[int, int]],
) -> KBPair:
    """Build a KBPair from literal tuples — test helper."""
    return KBPair(
        name,
        kb_from_rows(spark, "E1", rows1),
        kb_from_rows(spark, "E2", rows2),
        spark.createDataFrame(gt, schema=GT_SCHEMA),
    )
