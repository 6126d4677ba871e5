"""End-to-end MinoanER tests (repro.core.minoaner).

The quality bands assert the *shape* of Table III (DESIGN.md §5): which
method wins where, within a tolerance that absorbs synthetic-data noise.
"""
import hashlib

import pytest

from repro.core.minoaner import MinoanERConfig, match
from repro.eval.metrics import precision_recall_f1
from repro.kb import datasets
from repro.kb.schema import pair_from_rows


def test_config_defaults_match_paper():
    cfg = MinoanERConfig()
    assert (cfg.K, cfg.N, cfg.k, cfg.theta) == (15, 3, 2, 0.6)


def test_toy_end_to_end(toy_pair):
    res = match(toy_pair)
    got = {(r.e1, r.e2) for r in res.matches.collect()}
    # all three GT pairs found, each by its designed heuristic
    by_h = {(r.e1, r.e2): r.heuristic for r in res.matches.collect()}
    assert by_h[(1, 101)] == "H1"
    assert by_h[(2, 102)] == "H2"
    assert by_h[(3, 103)] == "H3"
    m = precision_recall_f1(res.matches, toy_pair.ground_truth)
    assert m["recall"] == 100.0 and m["precision"] == 100.0


def test_counts_consistent(toy_pair):
    res = match(toy_pair)
    assert res.counts["total"] == res.matches.count()
    assert res.counts["total"] == sum(res.counts[h] for h in ("H1", "H2", "H3"))
    for h in ("H1", "H2", "H3"):
        assert res.proposed[h] - res.rejected[h] == res.counts[h]


def test_output_schema(toy_pair):
    res = match(toy_pair)
    assert res.matches.columns == ["e1", "e2", "heuristic"]


def test_at_most_one_match_per_e1_from_h2_h3(toy_pair):
    res = match(toy_pair)
    per_e1 = (
        res.matches.filter("heuristic != 'H1'")
        .groupBy("e1")
        .count()
        .filter("count > 1")
    )
    assert per_e1.count() == 0


def test_deterministic(toy_pair):
    a = sorted(map(tuple, match(toy_pair).matches.collect()))
    b = sorted(map(tuple, match(toy_pair).matches.collect()))
    assert a == b


# ------------------------------------------------------ degenerate inputs
# All-ties inputs: a change in null or tie ordering changes these results.
def test_fewer_literal_attributes_than_k(spark):
    """One literal attribute per KB, below k=2 name attributes: H1 takes
    the unique shared name, H2 the pair sharing two pair-unique tokens."""
    rows1 = [(1, "ns0:name", "Acme Corp", False), (2, "ns0:name", "Beta Qux", False)]
    rows2 = [
        (101, "ns1:label", "acme corp", False),
        (102, "ns1:label", "Beta Company Qux", False),
    ]
    pair = pair_from_rows(spark, "one_attr", rows1, rows2, [(1, 101), (2, 102)])
    got = {tuple(r) for r in match(pair).matches.collect()}
    assert got == {(1, 101, "H1"), (2, 102, "H2")}


def test_every_entity_shares_one_token(spark):
    """Each entity's only cross-KB token is the one all ten share: no name
    is unique, valueSim 1/log2(26) < 1 and every neighbor list is empty,
    so H3 breaks the all-way tie by the lowest E2 id for every E1 entity."""
    rows1 = [(i, "ns0:name", f"shared a{i}", False) for i in range(1, 6)]
    rows2 = [(100 + i, "ns1:label", f"shared b{i}", False) for i in range(1, 6)]
    pair = pair_from_rows(spark, "one_token", rows1, rows2, [])
    got = {tuple(r) for r in match(pair).matches.collect()}
    assert got == {(i, 101, "H3") for i in range(1, 6)}


# ------------------------------------------------------ golden match sets
# Recorded before the statistics refactor (seed 42, scale 1) and never
# edited since: a refactor is correct only if it keeps the exact match
# set. The F1 floors alone would not catch a changed tie-break.
GOLDEN = {
    # preset: (H1, H2, H3) counts, digest of the sorted (e1, e2, heuristic) list
    "restaurant": ((88, 251, 0), "32dc6fe957205b9f"),
    "bbcmusic_dbpedia": ((86, 505, 352), "5fd26b3398211021"),
    "rexa_dblp": ((113, 188, 134), "3423b810348d32fc"),
    "yago_imdb": ((874, 4147, 609), "ae0a21ea6aca0fb2"),
}


def _digest(rows) -> str:
    text = "\n".join(f"{e1},{e2},{h}" for e1, e2, h in sorted(rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def runs():
    """One match() per preset, shared by every test of this module."""
    cache = {}

    def run(pair):
        if pair.name not in cache:
            res = match(pair)
            cache[pair.name] = (
                res,
                [tuple(r) for r in res.matches.collect()],
                precision_recall_f1(res.matches, pair.ground_truth),
            )
        return cache[pair.name]

    return run


def _check_golden(run, pair, f1_floor: float) -> dict:
    """The preset's F1 band, per-heuristic counts and exact match set."""
    res, rows, m = run(pair)
    counts, digest = GOLDEN[pair.name]
    assert m["f1"] >= f1_floor
    assert (res.counts["H1"], res.counts["H2"], res.counts["H3"]) == counts
    assert _digest(rows) == digest
    return m


# ------------------------------------------------------------ Table III bands
def test_restaurant_quality(runs, restaurant_pair):
    """Paper: 100 / 100 / 100."""
    _check_golden(runs, restaurant_pair, 97.0)


def test_rexa_quality(runs, rexa_pair):
    """Paper: P 96.74, R 95.34, F1 96.04."""
    m = _check_golden(runs, rexa_pair, 92.0)
    assert m["precision"] >= 90.0 and m["recall"] >= 90.0


def test_bbc_quality(runs, bbc_pair):
    """Paper: P 91.44, R 88.55, F1 89.97 — the heterogeneous dataset
    where MinoanER's schema-agnostic evidence is the differentiator."""
    _check_golden(runs, bbc_pair, 85.0)


def test_yago_quality(runs, yago_pair):
    """Paper: P 91.02, R 90.57, F1 90.79."""
    _check_golden(runs, yago_pair, 86.0)


def test_all_heuristics_contribute_on_heterogeneous_data(runs, bbc_pair):
    """On BBCmusic-DBpedia every evidence channel matters: names alone,
    values alone, or neighbors alone would all miss a chunk of matches."""
    res, _, _ = runs(bbc_pair)
    assert res.counts["H1"] > 0
    assert res.counts["H2"] > 0
    assert res.counts["H3"] > 0


def test_yago_small_scale_heuristic_counts(spark):
    """YAGO at scale 0.1 (seed 42): Block Purging keeps only the 1x1 token
    blocks, so every co-occurring pair has valueSim 1 or more and H2 takes
    every E1 entity outside H1 that has a candidate, leaving H3 none. No
    ground-truth pair co-occurs in a kept block, so H1's 87 pairs have no
    valueSim or neighborNSim list entry and H4 rejects all 87; H2's 416
    pairs pass H4 and none is correct."""
    pair = datasets.load(spark, "yago_imdb", scale=0.1, seed=42)
    res = match(pair)
    assert res.proposed == {"H1": 87, "H2": 416, "H3": 0}
    assert res.rejected == {"H1": 87, "H2": 0, "H3": 0}
    assert res.counts == {"H1": 0, "H2": 416, "H3": 0, "total": 416}
    assert precision_recall_f1(res.matches, pair.ground_truth)["tp"] == 0


# ------------------------------------------------------------- invariance
@pytest.mark.parametrize("pair_name", ["toy_pair", "restaurant_pair"])
def test_shuffle_partition_invariance(spark, request, pair_name):
    """The match set does not depend on spark.sql.shuffle.partitions."""
    pair = request.getfixturevalue(pair_name)
    key = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(key)
    got = {}
    try:
        for n in (1, 8, 37):
            spark.conf.set(key, str(n))
            got[n] = sorted(map(tuple, match(pair).matches.collect()))
    finally:
        spark.conf.set(key, saved)
    assert got[1] == got[8] == got[37]


# ------------------------------------------------------------- job budget
# Spark jobs of one match() on Restaurant with |E| known and the predicate
# statistics not yet computed. Ranking names and relations with a
# distinct-count plan each, building the token block index twice and
# joining a name block index back for H1 took 66; one statistics pass per
# KB, one cached block index and H1 from name-block counts took 48 with the
# name keys cached, and 46 with them read once, uncached. Ranking H2, H3
# and H4 from one candidate table, counting both KBs' predicates in one
# pass and the token block index in one aggregate take 31.
MATCH_JOB_BUDGET = 31


@pytest.fixture(scope="module")
def restaurant_match_trace(fresh_restaurant, job_trace):
    """One match() on fresh KB objects over Restaurant's triples, run in
    its own job group: (its job ids, the persisted RDD ids before and
    after it)."""
    pair = fresh_restaurant()
    _, jobs, before, after = job_trace("test-match-jobs", lambda: match(pair))
    return jobs, before, after


def test_match_job_budget(restaurant_match_trace):
    jobs, _, _ = restaurant_match_trace
    assert len(jobs) <= MATCH_JOB_BUDGET, len(jobs)


def test_match_releases_its_caches(restaurant_match_trace):
    """Every DataFrame match() caches is unpersisted before it returns."""
    _, before, after = restaurant_match_trace
    assert after == before
