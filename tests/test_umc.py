"""Tests for Unique Mapping Clustering (repro.baselines.umc)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.umc import umc_df, umc_frontier


def _greedy_at(pairs, t):
    """Reference UMC at threshold t, written independently of umc.py."""
    used1, used2, out = set(), set(), []
    for e1, e2, sim in sorted(pairs, key=lambda p: (-p[2], p[0], p[1])):
        if sim < t or e1 in used1 or e2 in used2:
            continue
        used1.add(e1)
        used2.add(e2)
        out.append((e1, e2, sim))
    return out


def test_greedy_order():
    pairs = [(1, 11, 0.9), (2, 11, 0.8), (2, 12, 0.7)]
    got = umc_frontier(pairs)
    assert got == [(1, 11, 0.9), (2, 12, 0.7)]


def test_threshold_prunes(spark):
    scored = spark.createDataFrame(
        [(1, 11, 0.9), (2, 12, 0.3)], "e1 long, e2 long, sim double"
    )
    assert [tuple(r) for r in umc_df(scored, 0.5).collect()] == [(1, 11, 0.9)]


def test_one_to_one():
    pairs = [(1, 11, 0.9), (1, 12, 0.8), (2, 11, 0.7), (2, 12, 0.6)]
    got = umc_frontier(pairs)
    assert got == [(1, 11, 0.9), (2, 12, 0.6)]


def test_tie_break_deterministic():
    pairs = [(2, 12, 0.5), (1, 11, 0.5), (1, 12, 0.5)]
    assert umc_frontier(pairs) == [(1, 11, 0.5), (2, 12, 0.5)]


def test_empty():
    assert umc_frontier([]) == []


def test_frontier_sorted_desc():
    front = umc_frontier([(1, 11, 0.2), (2, 12, 0.9), (3, 13, 0.5)])
    sims = [s for _, _, s in front]
    assert sims == sorted(sims, reverse=True)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 20), st.integers(100, 120),
            st.floats(0, 1, allow_nan=False),
        ),
        max_size=60,
    ),
    st.floats(0, 1, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_prefix_property(pairs, t):
    """UMC at threshold t == threshold-0 frontier truncated at t.

    This is the property the BSL sweep and ``umc_df`` rely on to evaluate
    any threshold from one greedy run. The reference skips sub-threshold
    pairs inside the greedy loop, so they can never claim an entity.
    """
    assert _greedy_at(pairs, t) == [p for p in umc_frontier(pairs) if p[2] >= t]


@given(
    st.lists(
        st.tuples(
            st.integers(0, 10), st.integers(100, 110),
            st.floats(0, 1, allow_nan=False),
        ),
        max_size=40,
    )
)
@settings(max_examples=80, deadline=None)
def test_one_to_one_property(pairs):
    got = umc_frontier(pairs)
    assert len({e1 for e1, _, _ in got}) == len(got)
    assert len({e2 for _, e2, _ in got}) == len(got)


def test_umc_df_roundtrip(spark):
    scored = spark.createDataFrame(
        [(1, 11, 0.9), (2, 11, 0.8)], "e1 long, e2 long, sim double"
    )
    got = {(r.e1, r.e2) for r in umc_df(scored, 0.5).collect()}
    assert got == {(1, 11)}
