"""Tests for H2/H3/H4 and neighborNSim (repro.core.heuristics)."""
import math

import pytest
from pyspark.sql import functions as F

from repro.blocking.name_blocking import h1_matches
from repro.blocking.tokenize import entity_tokens
from repro.core import heuristics
from repro.core.relations import top_neighbors
from repro.core.value_sim import value_similarities


def _vs(spark, rows):
    return spark.createDataFrame(rows, "e1 long, e2 long, sim double")


def _ns(spark, rows):
    return spark.createDataFrame(rows, "e1 long, e2 long, nsim double")


@pytest.fixture(scope="module")
def toy_ctx(toy_pair):
    t1 = entity_tokens(toy_pair.kb1)
    t2 = entity_tokens(toy_pair.kb2)
    vs = value_similarities(t1, t2).cache()
    ns = heuristics.neighbor_similarities(
        vs, top_neighbors(toy_pair.kb1), top_neighbors(toy_pair.kb2)
    ).cache()
    return toy_pair, vs, ns


# ---------------------------------------------------------------- H1
def test_h1_exact_unique_name_only(toy_ctx):
    pair, _, _ = toy_ctx
    got = {(r.e1, r.e2) for r in h1_matches(pair).collect()}
    assert got == {(1, 101)}


# ---------------------------------------------------------------- H2
def test_h2_requires_vmax_at_least_one(spark):
    vs = _vs(spark, [(1, 11, 0.9), (2, 12, 1.0), (3, 13, 5.0)])
    got = {(r.e1, r.e2) for r in heuristics.h2_matches(vs).collect()}
    assert got == {(2, 12), (3, 13)}


def test_h2_takes_top_candidate_only(spark):
    vs = _vs(spark, [(1, 11, 2.0), (1, 12, 3.0), (1, 13, 1.5)])
    got = {(r.e1, r.e2) for r in heuristics.h2_matches(vs).collect()}
    assert got == {(1, 12)}


def test_h2_tie_breaks_by_candidate_id(spark):
    vs = _vs(spark, [(1, 12, 2.0), (1, 11, 2.0)])
    got = {(r.e1, r.e2) for r in heuristics.h2_matches(vs).collect()}
    assert got == {(1, 11)}


def test_h2_skips_matched_e1_but_not_e2(spark):
    vs = _vs(spark, [(1, 11, 2.0), (2, 11, 3.0)])
    matched = spark.createDataFrame([(1, 99)], "e1 long, e2 long")
    got = {(r.e1, r.e2) for r in heuristics.h2_matches(vs, matched).collect()}
    # e1=1 is consumed; e2=11 is NOT consumed (no 1-1 constraint)
    assert got == {(2, 11)}


def test_h2_on_toy(toy_ctx):
    pair, vs, _ = toy_ctx
    h1 = h1_matches(pair)
    got = {(r.e1, r.e2) for r in heuristics.h2_matches(vs, h1).collect()}
    assert got == {(2, 102)}


# ---------------------------------------------------------------- neighborNSim
def test_neighbor_sim_sums_over_neighbor_pairs(spark):
    vs = _vs(spark, [(10, 20, 0.5), (11, 21, 0.25)])
    nbrs1 = spark.createDataFrame([(1, 10), (1, 11)], "eid long, nbr long")
    nbrs2 = spark.createDataFrame([(2, 20), (2, 21)], "eid long, nbr long")
    got = heuristics.neighbor_similarities(vs, nbrs1, nbrs2).collect()
    assert len(got) == 1
    assert (got[0].e1, got[0].e2) == (1, 2)
    assert got[0].nsim == pytest.approx(0.75)


def test_neighbor_sim_toy(toy_ctx):
    pair, vs, ns = toy_ctx
    vals = {(r.e1, r.e2): r.nsim for r in ns.collect()}
    # nbrs(3) = {1}, nbrs(103) = {101}: nsim = valueSim(1, 101)
    assert vals[(3, 103)] == pytest.approx(2 + 1 / math.log2(3))
    # nbrs(2) = {1}, nbrs(102) = {101}: same
    assert vals[(2, 102)] == pytest.approx(2 + 1 / math.log2(3))
    assert (3, 104) not in vals   # 104 has no neighbors


# ---------------------------------------------------------------- H3
def test_h3_top1_by_aggregated_rank(spark):
    # e1=1: value ranks: 11 (0.9) > 12 (0.5); neighbor list: only 12.
    # theta=0.6: 11 -> 0.6*1.0 = 0.6; 12 -> 0.6*0.5 + 0.4*1.0 = 0.7
    vs = _vs(spark, [(1, 11, 0.9), (1, 12, 0.5)])
    ns = _ns(spark, [(1, 12, 3.0)])
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, ns, theta=0.6).collect()}
    assert got == {(1, 12)}


def test_h3_theta_one_is_value_only(spark):
    vs = _vs(spark, [(1, 11, 0.9), (1, 12, 0.5)])
    ns = _ns(spark, [(1, 12, 3.0)])
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, ns, theta=0.999).collect()}
    assert got == {(1, 11)}


def test_h3_neighbor_list_restricted_to_cooccurring(spark):
    # (1,13) has neighbor evidence but no value co-occurrence -> not a
    # candidate ("sorts the entities co-occurring with it in blocks")
    vs = _vs(spark, [(1, 11, 0.9)])
    ns = _ns(spark, [(1, 13, 9.0)])
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, ns).collect()}
    assert got == {(1, 11)}


def test_h3_one_match_per_unmatched_e1(spark):
    vs = _vs(spark, [(1, 11, 0.2), (1, 12, 0.1), (2, 11, 0.3)])
    ns = _ns(spark, [])
    got = heuristics.h3_matches(vs, ns)
    assert got.count() == 2
    assert got.select("e1").distinct().count() == 2


def test_h3_excludes_matched_e1(spark):
    vs = _vs(spark, [(1, 11, 0.2), (2, 12, 0.3)])
    matched = spark.createDataFrame([(1, 11)], "e1 long, e2 long")
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, _ns(spark, []), matched).collect()}
    assert got == {(2, 12)}


def test_h3_zero_nsim_rows_ignored(spark):
    vs = _vs(spark, [(1, 11, 0.9), (1, 12, 0.5)])
    ns = _ns(spark, [(1, 12, 0.0)])   # zero neighbor sim: not in the list
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, ns).collect()}
    assert got == {(1, 11)}


def test_h3_tied_nsim_breaks_by_lower_id(spark):
    # 12 leads on value, 11 and 12 tie on nsim: the tie ranks 11 first, and
    # with theta=0.3 that neighbor rank decides.
    # 11 -> 0.3*0.5 + 0.7*1.0 = 0.85; 12 -> 0.3*1.0 + 0.7*0.5 = 0.65
    vs = _vs(spark, [(1, 11, 0.5), (1, 12, 0.9)])
    ns = _ns(spark, [(1, 11, 2.0), (1, 12, 2.0)])
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, ns, theta=0.3).collect()}
    assert got == {(1, 11)}


def test_h3_toy_recovers_pair_3(toy_ctx):
    pair, vs, ns = toy_ctx
    h1 = h1_matches(pair)
    h2 = heuristics.h2_matches(vs, h1)
    matched = h1.unionByName(h2)
    got = {(r.e1, r.e2) for r in heuristics.h3_matches(vs, ns, matched).collect()}
    # 3 -> 103 via neighbor evidence; distractor 4 also gets a top-1
    assert (3, 103) in got
    assert all(e1 in (3, 4) for e1, _ in got)


# ---------------------------------------------------------------- H4
def test_h4_keeps_reciprocal_pairs(spark):
    vs = _vs(spark, [(1, 11, 2.0)])
    matches = spark.createDataFrame([(1, 11, "H2")], "e1 long, e2 long, heuristic string")
    kept = heuristics.h4_filter(matches, vs, _ns(spark, []), k=15)
    assert kept.count() == 1


def test_h4_discards_nonreciprocal(spark):
    # e2=11's top-1 value candidates do not include e1=1 when k=1
    vs = _vs(spark, [(1, 11, 2.0), (2, 11, 5.0)])
    matches = spark.createDataFrame([(1, 11, "H2")], "e1 long, e2 long, heuristic string")
    kept = heuristics.h4_filter(matches, vs, _ns(spark, []), k=1)
    assert kept.count() == 0


def test_h4_neighbor_list_rescues(spark):
    # value side fails at k=1, but the pair tops e2's neighbor list
    vs = _vs(spark, [(1, 11, 2.0), (2, 11, 5.0)])
    ns = _ns(spark, [(1, 11, 1.0)])
    matches = spark.createDataFrame([(1, 11, "H2")], "e1 long, e2 long, heuristic string")
    kept = heuristics.h4_filter(matches, vs, ns, k=1)
    assert kept.count() == 1


def test_h4_both_directions_required(spark):
    # reciprocity must hold from e1's side too
    vs = _vs(spark, [(1, 11, 2.0), (1, 12, 5.0)])
    matches = spark.createDataFrame([(1, 11, "H2")], "e1 long, e2 long, heuristic string")
    kept = heuristics.h4_filter(matches, vs, _ns(spark, []), k=1)
    assert kept.count() == 0


def test_h4_keeps_columns(spark):
    vs = _vs(spark, [(1, 11, 2.0)])
    matches = spark.createDataFrame([(1, 11, "H1")], "e1 long, e2 long, heuristic string")
    kept = heuristics.h4_filter(matches, vs, _ns(spark, []), k=15)
    assert kept.columns == ["e1", "e2", "heuristic"]


@pytest.mark.parametrize("scored", ["value", "neighbor"])
def test_h4_k1_ties_keep_lower_ids(spark, scored):
    # e1=1 ties 11 and 12, e2=11 ties 1 and 2: at k=1 each side keeps its
    # lower id, so only (1, 11) is reciprocal. The ties sit in one list at
    # a time; the other is empty.
    tied = [(1, 11, 2.0), (1, 12, 2.0), (2, 11, 2.0)]
    vs = _vs(spark, tied if scored == "value" else [])
    ns = _ns(spark, tied if scored == "neighbor" else [])
    matches = spark.createDataFrame(
        [(e1, e2, "H2") for e1, e2, _ in tied], "e1 long, e2 long, heuristic string"
    )
    kept = heuristics.h4_filter(matches, vs, ns, k=1)
    assert {(r.e1, r.e2) for r in kept.collect()} == {(1, 11)}
