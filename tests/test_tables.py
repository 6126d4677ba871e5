"""Smoke tests for the table harnesses (repro.eval.tables).

Full-scale Table II/III runs live in the jobs and benchmarks; here the
harness plumbing is exercised on the smallest dataset.
"""
import pandas as pd
import pytest

from jobs import table3_evaluation
from repro.eval import tables


def test_paper_constants_cover_all_datasets():
    for d in ("restaurant", "rexa_dblp", "bbcmusic_dbpedia", "yago_imdb"):
        assert d in tables.PAPER_TABLE1
        assert d in tables.PAPER_TABLE2
        for method in tables.PAPER_TABLE3.values():
            assert d in method


def test_paper_table3_values():
    assert tables.PAPER_TABLE3["MinoanER"]["yago_imdb"] == (91.02, 90.57, 90.79)
    assert tables.PAPER_TABLE3["BSL"]["bbcmusic_dbpedia"] == (85.20, 36.09, 50.70)
    assert tables.PAPER_TABLE3["PARIS"]["bbcmusic_dbpedia"] == (19.40, 0.29, 0.51)
    # "-" rows (not reported in the paper) are None
    assert tables.PAPER_TABLE3["SiGMa"]["bbcmusic_dbpedia"] is None


def test_table1_harness(spark):
    df = tables.table1(spark, datasets=["restaurant"])
    assert isinstance(df, pd.DataFrame) and len(df) == 1
    row = df.iloc[0]
    assert row["dataset"] == "restaurant"
    assert row["E1 entities"] == 339 and row["matches"] == 89


def test_table2_harness(spark):
    df = tables.table2(spark, datasets=["restaurant"])
    row = df.iloc[0]
    assert row["recall"] >= 99.0
    assert row["|E1|*|E2|"] == 339 * 2256


def test_table3_harness_minoaner_only(spark):
    df = tables.table3(spark, datasets=["restaurant"], methods=("MinoanER",))
    row = df.iloc[0]
    assert row["method"] == "MinoanER"
    assert row["f1"] >= 97.0


# Spark jobs of one evaluate_dataset with all three methods on Restaurant,
# with |E| known and the predicate statistics not yet computed. Blocking
# once for MinoanER and again for BSL, and scoring MinoanER and PARIS with
# Spark plans, took 266-269; one blocking for both and scoring on the
# driver took 232-234; one ranked candidate table for H2-H4, one
# predicate-statistics pass for both KBs and a token block index built by
# one aggregate took 217-219; partitioning each keyed table once by the key
# its readers join and group on takes 203-205. PARIS's own count varies by
# a few between runs, hence two jobs over the largest count measured.
EVALUATE_JOB_BUDGET = 207


@pytest.fixture(scope="module")
def evaluate_trace(fresh_restaurant, job_trace):
    """One evaluate_dataset with every method on fresh KB objects over
    Restaurant's triples, run in its own job group: (its result, its job
    ids, the persisted RDD ids before and after it)."""
    pair = fresh_restaurant()
    return job_trace("test-evaluate-jobs", lambda: tables.evaluate_dataset(pair))


def test_evaluate_dataset_all_methods(evaluate_trace):
    out, _, _, _ = evaluate_trace
    assert list(out) == ["MinoanER", "BSL", "PARIS"]
    assert out["MinoanER"]["f1"] >= 97.0
    assert out["BSL"]["f1"] >= 99.0
    assert out["PARIS"]["f1"] >= 80.0


def test_evaluate_dataset_job_budget(evaluate_trace):
    _, jobs, _, _ = evaluate_trace
    assert len(jobs) <= EVALUATE_JOB_BUDGET, len(jobs)


def test_evaluate_dataset_releases_its_caches(evaluate_trace):
    """The shared blocking and every cache of the methods are released."""
    _, _, before, after = evaluate_trace
    assert after == before


def test_table3_job_rejects_unknown_method(spark):
    """An unknown method name raises instead of printing an empty table."""
    with pytest.raises(ValueError, match="Minoaner.*known: MinoanER, BSL, PARIS"):
        table3_evaluation.main(["restaurant", "--methods", "Minoaner"])


def test_table3_job_usage_on_missing_value(capsys):
    """A trailing --methods without a value exits with a usage message."""
    with pytest.raises(SystemExit) as exc:
        table3_evaluation.main(["restaurant", "--methods"])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_format_side_by_side(spark):
    df = tables.table1(spark, datasets=["restaurant"])
    text = tables.format_side_by_side(df, "Table I")
    assert "measured" in text and "paper-reported" in text
