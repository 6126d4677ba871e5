"""Block statistics — reproduces Table II rows.

|B_N|, |B_T|  : number of cross-KB blocks in each collection
||B_N||, ||B_T||: aggregate comparisons (sum over blocks of n1*n2)
|E1|x|E2|     : brute-force comparison count
P / R / F1    : quality of the *distinct* candidate pairs of B_N u B_T
                (after Block Purging of B_T) against the ground truth —
                precision in percent, as in the paper.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking import name_blocking, purging, token_blocking
from repro.blocking.tokenize import entity_tokens
from repro.kb.schema import KBPair


def block_quality(candidates: DataFrame, gt: DataFrame) -> dict:
    """Pair-completeness / pair-quality of a candidate (e1, e2) set; the
    candidates and the hits among them are counted by one left join."""
    row = (
        candidates.join(gt.withColumn("hit", F.lit(True)), ["e1", "e2"], "left")
        .agg(F.count("*").alias("n"), F.count("hit").alias("hits"))
        .first()
    )
    n_cand, hits = row["n"], row["hits"]
    n_gt = gt.count()
    precision = 100.0 * hits / n_cand if n_cand else 0.0
    recall = 100.0 * hits / n_gt if n_gt else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def candidates(
    tokens: tuple[DataFrame, DataFrame],
    kept: DataFrame,
    names: tuple[DataFrame, DataFrame],
) -> DataFrame:
    """(e1, e2) — the distinct candidate pairs of B_N u purged B_T.

    ``tokens`` and ``names`` are the pair's per-KB (eid, token) token and
    name-key DataFrames; ``kept`` is the purged B_T index.
    """
    return (
        token_blocking.candidate_pairs(*tokens, kept.select("key"))
        .unionByName(token_blocking.candidate_pairs(*names))
        .distinct()
    )


def block_stats(
    pair: KBPair, *, k: int = 2,
    budget_factor: float = purging.DEFAULT_BUDGET_FACTOR,
) -> dict:
    """Compute a full Table II column for one dataset.

    The tokens, the token block index and the name keys are cached for
    the call, as in ``match()``, and released before it returns.
    """
    tokens = entity_tokens(pair.kb1).cache(), entity_tokens(pair.kb2).cache()
    index = token_blocking.block_index(*tokens).cache()
    cartesian = pair.kb1.n_entities() * pair.kb2.n_entities()
    bt, threshold = purging.purge(index, cartesian, budget_factor)
    names = tuple(df.cache() for df in name_blocking.name_keys(pair, k))
    n_bn, c_bn = token_blocking.collection_size(token_blocking.block_index(*names))
    n_bt, c_bt = token_blocking.collection_size(bt)
    q = block_quality(candidates(tokens, bt, names), pair.ground_truth)
    for df in (index, *tokens, *names):
        df.unpersist()
    return {
        "dataset": pair.name,
        "|BN|": n_bn,
        "|BT|": n_bt,
        "||BN||": c_bn,
        "||BT||": c_bt,
        "|E1|*|E2|": cartesian,
        "purge_threshold": threshold,
        **q,
    }
