"""Tests for the simplified PARIS baseline (repro.baselines.paris)."""
import hashlib

import pytest
from pyspark.sql import functions as F

from repro.baselines import paris
from repro.kb.schema import kb_from_rows, pair_from_rows


def test_seed_unique_shared_literal(spark):
    pair = pair_from_rows(
        spark, "t",
        [(1, "p", "only-here", False)],
        [(9, "q", "only-here", False)],
        [(1, 9)],
    )
    seeds = paris.seed_probabilities(pair).collect()
    assert len(seeds) == 1
    r = seeds[0]
    assert (r.e1, r.e2) == (1, 9) and r.p > 0.99


def test_seed_frequency_weighted(spark):
    # "dup" is carried by two KB2 entities -> each pair gets ~1/2
    pair = pair_from_rows(
        spark, "t",
        [(1, "p", "dup", False)],
        [(8, "q", "dup", False), (9, "q", "dup", False)],
        [],
    )
    seeds = {(r.e1, r.e2): r.p for r in paris.seed_probabilities(pair).collect()}
    assert seeds[(1, 8)] == pytest.approx(0.5, abs=1e-4)
    assert seeds[(1, 9)] == pytest.approx(0.5, abs=1e-4)


def test_seed_case_sensitive(spark):
    """PARIS compares literals exactly — 'Acme' != 'acme' (the formatting
    heterogeneity that sinks it on BBCmusic-DBpedia)."""
    pair = pair_from_rows(
        spark, "t", [(1, "p", "Acme", False)], [(9, "q", "acme", False)], []
    )
    assert paris.seed_probabilities(pair).count() == 0


def test_blank_literals_are_no_evidence(spark):
    """Values that are blank after trimming ("  " and " ") are not a
    shared literal, so they seed nothing and PARIS matches nothing."""
    pair = pair_from_rows(
        spark, "t",
        [(1, "p", "  ", False), (2, "p", "left", False)],
        [(11, "q", " ", False), (12, "q", "right", False)],
        [],
    )
    assert paris.seed_probabilities(pair).count() == 0
    assert paris.run_paris(pair).count() == 0


def test_seed_overfrequent_value_ignored(spark):
    rows1 = [(i, "p", "stop", False) for i in range(40)]
    rows2 = [(100 + i, "q", "stop", False) for i in range(40)]
    pair = pair_from_rows(spark, "t", rows1, rows2, [])
    assert paris.seed_probabilities(pair).count() == 0  # 1600 > MAX_VALUE_PAIRS


def test_functionality(spark):
    kb = kb_from_rows(
        spark, "E1",
        [
            (1, "f", "2", True), (2, "f", "3", True),       # functional
            (1, "m", "2", True), (1, "m", "3", True),       # 1 subject, 2 edges
        ],
    )
    fun = {pred: f for pred, (f, _) in paris.functionality(kb).items()}
    assert fun["f"] == pytest.approx(1.0)
    assert fun["m"] == pytest.approx(0.5)


def _rel_pair(spark):
    """Three seed pairs + one pair only reachable via propagation.

    KB1: 1 -(r)-> 2, 4 -(r)-> 3;  KB2: 11 -(s)-> 12, 14 -(s)-> 13.
    Literals seed (1,11), (2,12) and (4,14). The edge pair 1->2 / 11->12
    (all endpoints seeded) aligns r with s; the functional forward step
    then infers (3,13) from the seeded sources (4,14).
    """
    rows1 = [
        (1, "n", "seed-one", False), (2, "n", "seed-two", False),
        (3, "n", "kb1-only", False), (4, "n", "seed-four", False),
        (1, "r", "2", True), (4, "r", "3", True),
    ]
    rows2 = [
        (11, "n", "seed-one", False), (12, "n", "seed-two", False),
        (13, "n", "kb2-only", False), (14, "n", "seed-four", False),
        (11, "s", "12", True), (14, "s", "13", True),
    ]
    return pair_from_rows(
        spark, "t", rows1, rows2, [(1, 11), (2, 12), (3, 13), (4, 14)]
    )


def test_relation_alignment(spark):
    pair = _rel_pair(spark)
    matched = spark.createDataFrame([(1, 11), (2, 12)], "e1 long, e2 long")
    rel1 = pair.kb1.relations().toDF("x1", "r1", "y1")
    rel2 = pair.kb2.relations().toDF("x2", "r2", "y2")
    al = {(r.r1, r.r2): r.a for r in paris._relation_alignment(rel1, rel2, matched).collect()}
    assert al[("r", "s")] == pytest.approx(1.0)


def test_functionality_inverse(spark):
    kb = kb_from_rows(
        spark, "E1",
        [(1, "m", "9", True), (2, "m", "9", True)],  # hub object
    )
    _, finv = paris.functionality(kb)["m"]
    assert finv == pytest.approx(0.5)


# Spark jobs of one run_paris on _rel_pair. Two functionality plans per
# KB, the relation tables rebuilt in every alignment, an isEmpty() job per
# iteration and the alignment planned again through both weight tables
# took 344; functionality from the predicate statistics and one collected
# alignment per iteration take 178.
PARIS_JOB_BUDGET = 185


@pytest.fixture(scope="module")
def rel_pair_trace(spark, job_trace):
    """One run_paris on _rel_pair, run in its own job group: (its matches,
    its job ids, the persisted RDD ids before and after it)."""
    pair = _rel_pair(spark)
    return job_trace(
        "test-paris-jobs", lambda: {(r.e1, r.e2) for r in paris.run_paris(pair).collect()}
    )


def test_propagation_finds_structural_match(rel_pair_trace):
    got, _, _, _ = rel_pair_trace
    assert {(1, 11), (2, 12), (4, 14)} <= got
    assert (3, 13) in got, "forward propagation along aligned functional relations"


def test_paris_job_budget(rel_pair_trace):
    _, jobs, _, _ = rel_pair_trace
    assert len(jobs) <= PARIS_JOB_BUDGET, len(jobs)


def test_paris_releases_its_checkpoints(rel_pair_trace):
    """The seed cache and every iteration's localCheckpoint() are released
    before run_paris returns."""
    _, _, before, after = rel_pair_trace
    assert after == before


def test_paris_releases_its_caches_when_a_step_raises(spark, monkeypatch):
    """The seed cache and the last checkpoint are released when the UMC
    step raises."""
    pair = _rel_pair(spark)
    persisted = spark.sparkContext._jsc.getPersistentRDDs
    before = set(persisted().keys())

    def failing(scored, threshold):
        assert set(persisted().keys()) > before
        raise RuntimeError("umc failed")

    monkeypatch.setattr(paris, "umc_df", failing)
    with pytest.raises(RuntimeError, match="umc failed"):
        paris.run_paris(pair)
    assert set(persisted().keys()) == before


def test_no_relations_means_seeds_only(spark):
    pair = pair_from_rows(
        spark, "t",
        [(1, "p", "val-a", False), (2, "p", "lonely1", False)],
        [(9, "q", "val-a", False), (8, "q", "lonely2", False)],
        [(1, 9)],
    )
    got = {(r.e1, r.e2) for r in paris.run_paris(pair).collect()}
    assert got == {(1, 9)}


def test_one_to_one_output(spark):
    pair = pair_from_rows(
        spark, "t",
        [(1, "p", "same", False), (2, "p", "same", False)],
        [(9, "q", "same", False)],
        [],
    )
    out = paris.run_paris(pair)
    assert out.count() <= 1


# ------------------------------------------------------ golden match sets
# Recorded before PARIS read the shared predicate statistics (seed 42,
# scale 1): a refactor is correct only if it keeps every pair and every
# bit of its probability.
GOLDEN = {
    # preset: (rows, digest of the sorted (e1, e2, float.hex(sim)) list)
    "restaurant": (81, "c7539feee4c85b39"),
    "bbcmusic_dbpedia": (6, "ad19adec9e65cde4"),
}


def _digest(rows) -> str:
    text = "\n".join(f"{e1},{e2},{sim.hex()}" for e1, e2, sim in sorted(rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def runs():
    """One run_paris per preset, shared by every test of this module:
    (the matches, their (e1, e2, sim) rows)."""
    cache = {}

    def run(pair):
        if pair.name not in cache:
            out = paris.run_paris(pair)
            cache[pair.name] = (out, [tuple(r) for r in out.collect()])
        return cache[pair.name]

    return run


@pytest.mark.parametrize("pair_name", ["restaurant_pair", "bbc_pair"])
def test_golden_matches(runs, request, pair_name):
    pair = request.getfixturevalue(pair_name)
    _, rows = runs(pair)
    assert (len(rows), _digest(rows)) == GOLDEN[pair.name]


def test_paris_shuffle_partition_invariance(spark, runs, restaurant_pair):
    """The matches and their probabilities do not depend on
    spark.sql.shuffle.partitions."""
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    got = {}
    try:
        for n in (1, 37):
            spark.conf.set(key, str(n))
            got[n] = sorted(map(tuple, paris.run_paris(restaurant_pair).collect()))
    finally:
        spark.conf.set(key, saved)
    assert got[1] == got[37] == sorted(runs(restaurant_pair)[1])


def test_paris_collapses_on_bbc(runs, bbc_pair):
    """Paper Table III: PARIS F1 = 0.51 on BBCmusic-DBpedia — byte-exact
    literal equality is almost nonexistent, so it has no seeds."""
    from repro.eval.metrics import precision_recall_f1

    m = precision_recall_f1(runs(bbc_pair)[0], bbc_pair.ground_truth)
    assert m["f1"] < 15.0
