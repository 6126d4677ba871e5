"""The one blocking of a KB pair, which ``match()``, the BSL candidates
and :func:`block_stats` read, and its block statistics (Table II).

|B_N|, |B_T|  : number of cross-KB blocks in each collection
||B_N||, ||B_T||: aggregate comparisons (sum over blocks of n1*n2)
|E1|x|E2|     : brute-force comparison count
P / R / F1    : quality of the *distinct* candidate pairs of B_N u B_T
                (after Block Purging of B_T) against the ground truth —
                precision in percent, as in the paper.
"""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking import name_blocking, purging
from repro.blocking.token_blocking import block_index, candidate_pairs, collection_size
from repro.blocking.tokenize import entity_tokens
from repro.eval.metrics import prf
from repro.kb.schema import KBPair


@dataclass(frozen=True)
class Blocking:
    """The per-KB (eid, token) ``tokens`` and ``names`` (name keys) of a
    pair, its (key, n1, n2) token block ``index`` B_T and the ``kept``
    blocks of B_T, of at most ``threshold`` comparisons each, with the
    purging budget a share of ``cartesian`` = |E1|·|E2|."""

    tokens: tuple[DataFrame, DataFrame]
    index: DataFrame
    kept: DataFrame
    threshold: int
    names: tuple[DataFrame, DataFrame]
    cartesian: int

    def candidates(self) -> DataFrame:
        """(e1, e2) — the distinct candidate pairs of B_N u purged B_T."""
        return (
            candidate_pairs(*self.tokens, self.kept.select("key"))
            .unionByName(candidate_pairs(*self.names))
            .distinct()
        )

    def collected_candidates(self) -> DataFrame:
        """:meth:`candidates`, collected into a DataFrame that outlives the block."""
        rows = self.candidates().toPandas()
        return self.kept.sparkSession.createDataFrame(rows, schema="e1 long, e2 long")


@contextmanager
def block_pair(
    pair: KBPair, k: int = 2, budget_factor: float = purging.DEFAULT_BUDGET_FACTOR
) -> Iterator[Blocking]:
    """The :class:`Blocking` of ``pair`` inside a ``with`` block. The tokens
    and the token index, which every reader reads twice, are cached until
    the block exits, even if it raises; the name keys are not cached."""
    tokens = entity_tokens(pair.kb1).cache(), entity_tokens(pair.kb2).cache()
    index = block_index(*tokens).cache()
    try:
        cartesian = pair.kb1.n_entities() * pair.kb2.n_entities()
        kept, threshold = purging.purge(index, cartesian, budget_factor)
        names = name_blocking.name_keys(pair, k)
        yield Blocking(tokens, index, kept, threshold, names, cartesian)
    finally:
        for df in (index, *tokens):
            df.unpersist()


def block_quality(candidates: DataFrame, gt: DataFrame) -> dict:
    """Pair-completeness / pair-quality of a candidate (e1, e2) set; the
    candidates and the hits among them are counted by one left join."""
    row = (
        candidates.join(gt.withColumn("hit", F.lit(True)), ["e1", "e2"], "left")
        .agg(F.count("*").alias("n"), F.count("hit").alias("hits"))
        .first()
    )
    p, r, f1 = prf(row["hits"], row["n"], gt.count())
    return {"precision": p, "recall": r, "f1": f1}


def block_stats(pair: KBPair) -> dict:
    """Compute a full Table II column for one dataset."""
    with block_pair(pair) as b:
        n_bn, c_bn = collection_size(block_index(*b.names))
        n_bt, c_bt = collection_size(b.kept)
        q = block_quality(b.candidates(), pair.ground_truth)
    return {
        "dataset": pair.name,
        "|BN|": n_bn,
        "|BT|": n_bt,
        "||BN||": c_bn,
        "||BT||": c_bt,
        "|E1|*|E2|": b.cartesian,
        "purge_threshold": b.threshold,
        **q,
    }
