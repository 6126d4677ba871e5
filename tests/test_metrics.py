"""Tests for evaluation metrics (repro.eval.metrics)."""
import pytest

from repro.baselines import bsl
from repro.eval.metrics import gt_sets, precision_recall_f1


def _df(spark, rows):
    return spark.createDataFrame(rows, "e1 long, e2 long")


def test_perfect(spark):
    gt = _df(spark, [(1, 11), (2, 12)])
    m = precision_recall_f1(_df(spark, [(1, 11), (2, 12)]), gt)
    assert m["precision"] == 100.0 and m["recall"] == 100.0 and m["f1"] == 100.0


def test_half_recall(spark):
    gt = _df(spark, [(1, 11), (2, 12)])
    m = precision_recall_f1(_df(spark, [(1, 11)]), gt)
    assert m["precision"] == 100.0
    assert m["recall"] == 50.0
    assert m["f1"] == pytest.approx(2 * 100 * 50 / 150)


def test_wrong_pair_with_gt_e1_hurts_precision(spark):
    gt = _df(spark, [(1, 11), (2, 12)])
    m = precision_recall_f1(_df(spark, [(1, 11), (2, 99)]), gt)
    assert m["precision"] == 50.0 and m["recall"] == 50.0


def test_non_gt_e1_excluded(spark):
    """Pairs whose E1 entity is outside the ground truth are ignored —
    'with respect to the descriptions in the first KB appearing in the
    ground truth' (paper, Section IV)."""
    gt = _df(spark, [(1, 11)])
    m = precision_recall_f1(_df(spark, [(1, 11), (7, 99), (8, 98)]), gt)
    assert m["precision"] == 100.0 and m["output"] == 1


def test_empty_output(spark):
    gt = _df(spark, [(1, 11)])
    m = precision_recall_f1(_df(spark, []), gt)
    assert m == {"precision": 0.0, "recall": 0.0, "f1": 0.0, "tp": 0, "output": 0}


def test_duplicates_counted_once(spark):
    gt = _df(spark, [(1, 11)])
    m = precision_recall_f1(_df(spark, [(1, 11), (1, 11)]), gt)
    assert m["output"] == 1 and m["tp"] == 1


def test_extra_columns_tolerated(spark):
    gt = _df(spark, [(1, 11)])
    out = spark.createDataFrame([(1, 11, "H1")], "e1 long, e2 long, heuristic string")
    m = precision_recall_f1(out, gt)
    assert m["f1"] == 100.0


@pytest.mark.parametrize("n_pairs", [1, 3, 7, 12])
def test_sweep_and_precision_recall_f1_agree(spark, n_pairs):
    """BSL's threshold-0 outcome over a UMC frontier and
    precision_recall_f1 over the same pairs share one definition: their
    P/R/F1 are bit-equal, including pairs off the ground truth's E1."""
    gt = _df(spark, [(i, 100 + i) for i in range(9)])
    # every third pair is wrong, and the E1 of pair 9 and above is not in GT
    frontier = [(i, 100 + i if i % 3 else 200 + i, 1.0 - i / 100) for i in range(n_pairs)]
    outcome = bsl._sweep(frontier, *gt_sets(gt), 1, "jaccard")[0]
    m = precision_recall_f1(_df(spark, [(e1, e2) for e1, e2, _ in frontier]), gt)
    assert outcome.threshold == 0.0
    got = [float.hex(getattr(outcome, k)) for k in ("precision", "recall", "f1")]
    assert got == [float.hex(m[k]) for k in ("precision", "recall", "f1")]
