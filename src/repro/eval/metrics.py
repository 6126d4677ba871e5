"""Matching-quality metrics, scored on the driver.

The paper reports precision/recall/F1 "with respect to the descriptions
in the first KB appearing in the ground truth": output pairs whose E1
entity is not in the ground truth are ignored for precision, and recall
divides by |ground truth|.
"""
from __future__ import annotations

from collections.abc import Iterable

from pyspark.sql import DataFrame


def prf(tp: int, n_out: int, n_gt: int) -> tuple[float, float, float]:
    """(P, R, F1) in percent from (tp, |output|, |ground truth|)."""
    p = 100.0 * tp / n_out if n_out else 0.0
    r = 100.0 * tp / n_gt if n_gt else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def gt_sets(gt: DataFrame) -> tuple[set, set]:
    """The (e1, e2) pairs of a ground truth and its E1 entities."""
    pairs = {(r["e1"], r["e2"]) for r in gt.collect()}
    return pairs, {e1 for e1, _ in pairs}


def on_gt_e1(pairs: Iterable[tuple], gt_pairs: set, gt_e1: set) -> tuple[int, int]:
    """(tp, |output|) of the distinct (e1, e2) ``pairs`` on GT E1 entities."""
    out = {(e1, e2) for e1, e2 in pairs if e1 in gt_e1}
    return len(out & gt_pairs), len(out)


def precision_recall_f1(matches: DataFrame, gt: DataFrame) -> dict:
    """P/R/F1 (in percent) of an (e1, e2) match set against (e1, e2) GT."""
    gt_pairs, gt_e1 = gt_sets(gt)
    tp, n_out = on_gt_e1(matches.select("e1", "e2").collect(), gt_pairs, gt_e1)
    p, r, f1 = prf(tp, n_out, len(gt_pairs))
    return {"precision": p, "recall": r, "f1": f1, "tp": tp, "output": n_out}
