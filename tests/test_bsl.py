"""Tests for the BSL baseline (repro.baselines.bsl)."""
import hashlib
import math

import pytest
from pyspark.sql import functions as F

from repro.baselines import bsl
from repro.blocking.stats import block_pair
from repro.eval.tables import bsl_candidates
from repro.kb.schema import pair_from_rows


def test_420_configurations():
    """3 n-gram sizes x 7 similarity configs x 20 thresholds = 420 —
    the only factorization matching the paper's count (DESIGN.md §6)."""
    assert len(bsl.NGRAM_SIZES) * len(bsl.MEASURES) * len(bsl.THRESHOLDS) == 420


def test_thresholds_grid():
    assert bsl.THRESHOLDS[0] == 0.0 and bsl.THRESHOLDS[-1] == 0.95
    assert len(bsl.THRESHOLDS) == 20


@pytest.fixture(scope="module")
def simple_pair(spark):
    # entity 1: tokens {a, b}; entity 9: {a, b}; entity 8: {a, c}
    rows1 = [(1, "p", "a b", False)]
    rows2 = [(9, "q", "a b", False), (8, "q", "a c", False)]
    return pair_from_rows(spark, "t", rows1, rows2, [(1, 9)])


@pytest.fixture(scope="module")
def simple_sims(spark, simple_pair):
    cands = spark.createDataFrame([(1, 9), (1, 8)], "e1 long, e2 long")
    rows = bsl.pair_similarities(simple_pair, cands, 1).collect()
    return {(r.e1, r.e2): r for r in rows}


def test_jaccard(simple_sims):
    assert simple_sims[(1, 9)].jaccard == pytest.approx(1.0)      # {a,b} vs {a,b}
    assert simple_sims[(1, 8)].jaccard == pytest.approx(1 / 3)    # {a,b} vs {a,c}


def test_cosine_tf(simple_sims):
    assert simple_sims[(1, 9)].cosine_tf == pytest.approx(1.0)
    assert simple_sims[(1, 8)].cosine_tf == pytest.approx(0.5)


def test_gen_jaccard_tf(simple_sims):
    # sum min / (S1 + S2 - sum min): (1,8): 1 / (2 + 2 - 1)
    assert simple_sims[(1, 8)].gen_jaccard_tf == pytest.approx(1 / 3)
    assert simple_sims[(1, 9)].gen_jaccard_tf == pytest.approx(1.0)


def test_sigma_tf(simple_sims):
    # shared weight fraction: (1,8): (1+1) / (2+2)
    assert simple_sims[(1, 8)].sigma_tf == pytest.approx(0.5)
    assert simple_sims[(1, 9)].sigma_tf == pytest.approx(1.0)


def test_cosine_tfidf_downweights_common_gram(simple_sims):
    """'a' occurs in all 3 entities, 'b' in 2: idf(a) < idf(b), so the
    (1,9) pair is unaffected (identical vectors -> 1.0) while (1,8)'s
    cosine drops below its TF value."""
    assert simple_sims[(1, 9)].cosine_tfidf == pytest.approx(1.0)
    assert simple_sims[(1, 8)].cosine_tfidf < simple_sims[(1, 8)].cosine_tf


def test_tfidf_weights_match_formula(spark, simple_pair):
    cands = spark.createDataFrame([(1, 8)], "e1 long, e2 long")
    r = bsl.pair_similarities(simple_pair, cands, 1).first()
    idf_a = math.log2(1 + 3 / 3)   # 'a' in all 3 entities
    idf_b = math.log2(1 + 3 / 2)   # 'b' in entities 1 and 9
    idf_c = math.log2(1 + 3 / 1)   # 'c' only in entity 8
    expected = (idf_a * idf_a) / (
        math.hypot(idf_a, idf_b) * math.hypot(idf_a, idf_c)
    )
    assert r.cosine_tfidf == pytest.approx(expected)


def test_overlapping_kb_ids(spark):
    """KB ids are local to each KB: shifting every E2 id by +100 leaves
    every similarity unchanged, so an E1 and an E2 entity sharing an id
    still count as two documents for IDF."""
    rows1 = [(1, "p", "a b", False), (2, "p", "b c d", False)]
    rows2 = [(1, "q", "a b", False), (2, "q", "a c", False), (3, "q", "c d", False)]
    cands = [(e1, e2) for e1 in (1, 2) for e2 in (1, 2, 3)]

    def sims(offset):
        shifted = [(eid + offset, *rest) for eid, *rest in rows2]
        pair = pair_from_rows(spark, "t", rows1, shifted, [])
        df = spark.createDataFrame(
            [(e1, e2 + offset) for e1, e2 in cands], "e1 long, e2 long"
        )
        rows = bsl.pair_similarities(pair, df, 1).collect()
        return {(r.e1, r.e2 - offset): [r[m] for m in bsl.MEASURES] for r in rows}

    assert sims(0) == sims(100)


def test_bigram_similarity(spark, simple_pair):
    cands = spark.createDataFrame([(1, 9), (1, 8)], "e1 long, e2 long")
    rows = {(r.e1, r.e2): r for r in bsl.pair_similarities(simple_pair, cands, 2).collect()}
    assert rows[(1, 9)].jaccard == pytest.approx(1.0)   # "a b" == "a b"
    assert (1, 8) not in rows                           # no shared bigram


def test_all_sizes_equal_single_size_calls(spark):
    """The one-pass result, filtered to n, equals each single-size call."""
    rows1 = [(1, "p", "a b c d", False), (2, "p", "b c d e", False)]
    rows2 = [(11, "q", "a b c x", False), (12, "q", "b c d e", False), (13, "q", "c d", False)]
    pair = pair_from_rows(spark, "t", rows1, rows2, [])
    cands = spark.createDataFrame(
        [(e1, e2) for e1 in (1, 2) for e2 in (11, 12, 13)], "e1 long, e2 long"
    )
    together = bsl.pair_similarities(pair, cands, *bsl.NGRAM_SIZES).collect()
    for n in bsl.NGRAM_SIZES:
        alone = bsl.pair_similarities(pair, cands, n).collect()
        assert alone and all(r.n == n for r in alone)
        assert sorted(tuple(r) for r in together if r.n == n) == sorted(map(tuple, alone))


def test_tf_counts_repetition(spark):
    rows1 = [(1, "p", "x x y", False)]
    rows2 = [(9, "q", "x y y", False)]
    pair = pair_from_rows(spark, "t", rows1, rows2, [])
    cands = pair.ground_truth.sparkSession.createDataFrame([(1, 9)], "e1 long, e2 long")
    r = bsl.pair_similarities(pair, cands, 1).first()
    # dot = 2*1 + 1*2 = 4; norms = sqrt(5) each
    assert r.cosine_tf == pytest.approx(4 / 5)


@pytest.fixture(scope="module")
def simple_bsl(spark, simple_pair):
    return bsl.run_bsl(simple_pair, spark.createDataFrame([(1, 9), (1, 8)], "e1 long, e2 long"))


def test_sweep_prefix_property_used(simple_bsl):
    best, outcomes = simple_bsl
    assert len(outcomes) == 420
    assert best.f1 == max(o.f1 for o in outcomes)
    # the (1,9) pair is a perfect match under unigram jaccard
    assert best.f1 == 100.0


@pytest.fixture(scope="module")
def restaurant_bsl(restaurant_pair):
    """One BSL sweep on Restaurant, shared by the tests below."""
    return bsl.run_bsl(restaurant_pair, bsl_candidates(restaurant_pair))


def test_run_bsl_on_restaurant(restaurant_bsl):
    """Paper Table III: BSL achieves perfect F1 on Restaurant thanks to
    its strongly similar matches."""
    best, outcomes = restaurant_bsl
    assert best.f1 >= 99.0
    assert len(outcomes) == 420
    assert all(0 <= o.precision <= 100 and 0 <= o.recall <= 100 for o in outcomes)


# --------------------------------------------------------- golden outcomes
# Recorded with rounded similarities, before scoring moved to one pass over
# all n-gram sizes, and never edited since: the 420 outcomes must stay
# byte-identical, not just the best F1.
GOLDEN_OUTCOMES = {
    "simple": "f6994d6adeffa40e",
    "toy": "8701599a4e31c987",
    "restaurant": "bf1323ce6603680e",
}


def _lines_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _digest(outcomes) -> str:
    return _lines_digest(
        f"{o.n},{o.measure},{o.threshold},"
        f"{o.precision.hex()},{o.recall.hex()},{o.f1.hex()}"
        for o in outcomes
    )


def test_golden_outcomes(simple_bsl, toy_pair, restaurant_bsl):
    got = {
        "simple": _digest(simple_bsl[1]),
        "toy": _digest(bsl.run_bsl(toy_pair, bsl_candidates(toy_pair))[1]),
        "restaurant": _digest(restaurant_bsl[1]),
    }
    assert got == GOLDEN_OUTCOMES


# ----------------------------------------- golden candidates and similarities
# Recorded before the scoring plan read the weighted grams once and the
# candidate plan joined the purged keys once: the sorted candidate pairs
# and the sorted (n, e1, e2, float.hex of the 7 similarities) rows, seed 42.
GOLDEN_CANDIDATES = {"toy": "9f7dacc88fc949d9", "restaurant": "6aa1690ff95214a0"}
GOLDEN_SIMILARITIES = {"toy": "1fbdfe3792b4e3ba", "restaurant": "b25c3c6643003444"}


@pytest.mark.parametrize("name", ["toy", "restaurant"])
def test_golden_candidates_and_similarities(request, name):
    pair = request.getfixturevalue(f"{name}_pair")
    cands = bsl_candidates(pair).cache()
    pairs = sorted((r.e1, r.e2) for r in cands.collect())
    sims = sorted(
        (r.n, r.e1, r.e2, *(r[m].hex() for m in bsl.MEASURES))
        for r in bsl.pair_similarities(pair, cands, *bsl.NGRAM_SIZES).collect()
    )
    cands.unpersist()
    got = (
        _lines_digest(f"{e1},{e2}" for e1, e2 in pairs),
        _lines_digest(",".join(map(str, r)) for r in sims),
    )
    assert got == (GOLDEN_CANDIDATES[name], GOLDEN_SIMILARITIES[name])


def test_bsl_shuffle_partition_invariance(spark, restaurant_pair, restaurant_bsl):
    """The 420 outcomes do not depend on spark.sql.shuffle.partitions."""
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    got = {}
    try:
        for n in (1, 8, 37):
            if str(n) == saved:  # the shared sweep ran at this setting
                got[n] = _digest(restaurant_bsl[1])
                continue
            spark.conf.set(key, str(n))
            cands = bsl_candidates(restaurant_pair)
            got[n] = _digest(bsl.run_bsl(restaurant_pair, cands)[1])
    finally:
        spark.conf.set(key, saved)
    assert got[1] == got[8] == got[37]


# Spark jobs of one run_bsl(pair, bsl_candidates(pair)) on Restaurant with
# |E| known. Reading the weighted grams once per join side and once per
# norm table, and building the purged index once per token table, took
# 53; one weighted-gram table with window norms and one key join took 36
# over an uncached candidate plan, and take 34 over candidates collected
# from the cached token index.
BSL_JOB_BUDGET = 34


def test_bsl_job_budget(fresh_restaurant, job_trace):
    pair = fresh_restaurant()
    _, jobs, _, _ = job_trace(
        "test-bsl-jobs", lambda: bsl.run_bsl(pair, bsl_candidates(pair))
    )
    assert len(jobs) <= BSL_JOB_BUDGET, len(jobs)


def test_bsl_candidates_releases_its_caches(spark, fresh_restaurant, job_trace):
    """bsl_candidates leaves no persisted RDD behind, and the blocking
    releases its caches when the body of its ``with`` block raises."""
    pair = fresh_restaurant()
    _, _, before, after = job_trace("test-bsl-candidates", lambda: bsl_candidates(pair))
    assert after == before

    persisted = spark.sparkContext._jsc.getPersistentRDDs
    with pytest.raises(RuntimeError, match="body failed"):
        with block_pair(pair) as b:
            b.index.count()
            assert set(persisted().keys()) > before
            raise RuntimeError("body failed")
    assert set(persisted().keys()) == before
