"""Definition 1, (H1 v H2 v H3) ^ H4, against a DuckDB oracle.

The proposals ``resolve()`` collects, every pair H1, H2 or H3 proposes
with H4's verdict, are read from one ranked table over the intermediates
``match()`` builds (valueSim, neighborNSim and H1, cached here). The
oracle recomputes H2, H3 and H4 from the same intermediates, one by one,
as plain SQL window queries with the same tie-breaks: score desc, then the
other side's id asc; H3 breaks aggregate ties by valueSim desc first. The
tiny-pair tests at the end pin how the heuristics compose through
``match()``.

The plan-shape budgets below count the Exchange and Sort nodes of H1,
valueSim, the ranked table, H3, H4, the one-pass BSL scoring plan and the
BSL candidates.
"""
import pytest
from pyspark.sql import DataFrame

from repro.baselines import bsl
from repro.blocking import name_blocking
from repro.blocking.stats import block_pair
from repro.core import heuristics, relations, value_sim
from repro.core.minoaner import MinoanERConfig, match, proposals
from repro.eval.tables import bsl_candidates
from repro.kb.schema import pair_from_rows
from repro.oracle import assert_equivalent

CFG = MinoanERConfig()


def _rank(partition: str, order: str) -> str:
    return f"ROW_NUMBER() OVER (PARTITION BY {partition} ORDER BY {order})"


def _normalized_rank(partition: str, order: str) -> str:
    """(K - rank + 1)/K, both operands cast to DOUBLE as Spark divides."""
    k = f"COUNT(*) OVER (PARTITION BY {partition})"
    return (
        f"CAST({k} - {_rank(partition, order)} + 1 AS DOUBLE) / CAST({k} AS DOUBLE)"
    )


def _top_k(table: str, score: str, side: str, other: str) -> str:
    return f"""
        SELECT e1, e2 FROM (
            SELECT e1, e2, {_rank(side, f"{score} DESC, {other}")} AS r FROM {table}
        ) WHERE r <= {CFG.K}"""


_ORACLE_SQL = f"""
WITH
nz AS (SELECT e1, e2, nsim FROM nsims WHERE nsim > 0),
h2 AS (
    SELECT e1, e2 FROM (
        SELECT e1, e2, sim, {_rank("e1", "sim DESC, e2")} AS r
        FROM vsims WHERE e1 NOT IN (SELECT e1 FROM h1)
    ) WHERE r = 1 AND sim >= 1
),
cands AS (
    SELECT e1, e2, sim FROM vsims
    WHERE e1 NOT IN (SELECT e1 FROM h1 UNION SELECT e1 FROM h2)
),
by_value AS (
    SELECT e1, e2, sim, {_normalized_rank("e1", "sim DESC, e2")} AS score_v
    FROM cands
),
by_nbr AS (
    SELECT e1, e2, {_normalized_rank("e1", "nsim DESC, e2")} AS score_n
    FROM (SELECT c.e1, c.e2, n.nsim FROM cands c
          JOIN nz n ON c.e1 = n.e1 AND c.e2 = n.e2)
),
scored AS (
    SELECT v.e1, v.e2, v.sim,
           CAST({CFG.theta!r} AS DOUBLE) * v.score_v
           + CAST({1 - CFG.theta!r} AS DOUBLE) * COALESCE(b.score_n, CAST(0 AS DOUBLE))
           AS agg
    FROM by_value v LEFT JOIN by_nbr b ON v.e1 = b.e1 AND v.e2 = b.e2
),
h3 AS (
    SELECT e1, e2 FROM (
        SELECT e1, e2, {_rank("e1", "agg DESC, sim DESC, e2")} AS r FROM scored
    ) WHERE r = 1
),
proposed AS (
    SELECT e1, e2, 'H1' AS heuristic FROM h1
    UNION ALL SELECT e1, e2, 'H2' FROM h2
    UNION ALL SELECT e1, e2, 'H3' FROM h3
),
ok1 AS ({_top_k("vsims", "sim", "e1", "e2")} UNION {_top_k("nz", "nsim", "e1", "e2")}),
ok2 AS ({_top_k("vsims", "sim", "e2", "e1")} UNION {_top_k("nz", "nsim", "e2", "e1")})
SELECT p.e1, p.e2, p.heuristic,
       EXISTS (SELECT 1 FROM ok1 o WHERE o.e1 = p.e1 AND o.e2 = p.e2)
       AND EXISTS (SELECT 1 FROM ok2 o WHERE o.e1 = p.e1 AND o.e2 = p.e2) AS ok
FROM proposed p
"""


@pytest.fixture(
    scope="module", params=["toy_pair", "restaurant_pair", "bbc_pair"]
)
def stages(request):
    """The cached inputs of H2-H4 for one pair, built as ``match()`` does,
    and the plan shapes of H1, valueSim and neighborNSim over their own
    cached inputs."""
    pair = request.getfixturevalue(request.param)
    with block_pair(pair, CFG.k, CFG.budget_factor) as b:
        nk = tuple(df.cache() for df in b.names)
        for df in nk:
            df.count()  # a materialized cache may tell the planner its partitioning
        vsims = value_sim.value_similarities(*b.tokens, b.kept)
        h1 = name_blocking.h1_matches(pair, CFG.k, nk)
        shapes = {"h1": _plan_shape(h1), "value_sim": _plan_shape(vsims)}
        vsims, h1 = vsims.cache(), h1.cache()
        nsims = heuristics.neighbor_similarities(
            vsims,
            relations.top_neighbors(pair.kb1, CFG.N),
            relations.top_neighbors(pair.kb2, CFG.N),
        )
        shapes["nsim"] = _plan_shape(nsims)
        nsims = nsims.cache()
        for df in (vsims, nsims, h1):
            df.count()
        yield pair, vsims, nsims, h1, shapes
        for df in (vsims, nsims, h1, *nk):
            df.unpersist()


def test_definition1_vs_oracle(stages):
    """The proposals resolve() collects, each with H4's verdict."""
    pair, vsims, nsims, h1, _ = stages
    got = proposals(vsims, nsims, h1, CFG)
    if pair.name == "bbcmusic_dbpedia":
        # the preset where H3 contributes (352 matches at seed 42)
        assert got.filter("ok AND heuristic = 'H3'").count() == 352
    assert_equivalent(got, _ORACLE_SQL, vsims=vsims, nsims=nsims, h1=h1)


def _plan_shape(df: DataFrame) -> tuple[int, int]:
    """(Exchange, Sort) node counts of ``df``'s physical plan before
    adaptive execution re-plans it; a cached input is a leaf scan."""
    shuffles = sorts = 0
    todo = [df._jdf.queryExecution().executedPlan()]
    while todo:
        node = todo.pop()
        if node.nodeName() == "AdaptiveSparkPlan":
            todo.append(node.executedPlan())
            continue
        shuffles += node.nodeName() == "Exchange"
        sorts += node.nodeName() == "Sort"
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return shuffles, sorts


# (Exchange, Sort) budget of each stage's own plan over materialized
# cached inputs: the name keys for H1; the tokens and the purged block
# index that Block Purging read for valueSim; valueSim for neighborNSim,
# beside the uncached neighbor lists; valueSim, neighborNSim and H1 for
# the ranked table resolve() collects, and for H3 and H4, each read from
# that table alone. Ranking each candidate list separately took (9, 12)
# for H3 and (20, 33) for H4; ranking one joined table per heuristic took
# H3 (4, 7) and H4 (4, 8) over a cached H2, both again in resolve().
# Joining the singles of a name block index back to both name-key tables
# took (7, 6) for H1, and rebuilding the token block index to join the
# kept keys took (7, 6) for valueSim (Restaurant). Hash-partitioning the
# tokens, name keys and neighbor lists by the (entity, key) pair, not the
# key their readers join on, took (3, 2) for H1 and valueSim and (7, 4)
# for neighborNSim.
PLAN_BUDGET = {
    "h1": (1, 2), "value_sim": (1, 0), "nsim": (5, 4),
    "ranked": (2, 6), "h3": (4, 7), "h4": (4, 8),
}


def test_blocking_plan_shape_within_budget(stages):
    """H1 counts name blocks and valueSim weighs the purged index, each
    without building a block index again; neither shuffles its cached
    keyed input, and neighborNSim shuffles no neighbor list twice."""
    *_, shapes = stages
    for stage, (shuffles, sorts) in shapes.items():
        budget = PLAN_BUDGET[stage]
        assert shuffles <= budget[0] and sorts <= budget[1], (stage, shapes[stage])


def test_plan_shape_within_budget(stages):
    """A machine-independent guard on how often the ranked table that
    resolve() collects, and H3 and H4 read from it alone, shuffle and sort."""
    _, vsims, nsims, h1, _ = stages
    h2 = heuristics.h2_matches(vsims, h1).cache()
    h2.count()
    matched = h1.unionByName(h2)
    h3 = heuristics.h3_matches(vsims, nsims, matched, CFG.theta)
    shapes = {
        "ranked": _plan_shape(proposals(vsims, nsims, h1, CFG)),
        "h3": _plan_shape(h3),
        "h4": _plan_shape(heuristics.h4_filter(matched, vsims, nsims, CFG.K)),
    }
    h2.unpersist()
    for stage, (shuffles, sorts) in shapes.items():
        budget = PLAN_BUDGET[stage]
        assert shuffles <= budget[0] and sorts <= budget[1], (stage, shapes[stage])


# (Exchange, Sort) budget of scoring every BSL n-gram size in one plan
# over a materialized cached candidate set, on Restaurant. Scoring one
# size per plan, with IDF joined to each KB's grams, took (29, 16) per
# size, three plans per sweep; reading the weighted grams four times (both
# join sides and two per-entity norm tables) took (21, 12); shuffling the
# grams by (eid, n, gram), the documents by (kb, eid, n) and the shared
# grams by (n, e1, e2, gram) again before each reader took (8, 4), and
# shuffling each KB's grams by gram apart took (5, 3).
BSL_PLAN_BUDGET = (4, 3)
# (Exchange, Sort) budget of the B_N u purged B_T candidate plan over the
# tokens and token index the blocking cached, on Restaurant. Uncached, it
# took (18, 8) when the purged keys were joined to both token tables, so
# the purged index was built twice, and (14, 6) when joined to one; with
# the tokens and name keys partitioned by (eid, key), not by key, (8, 4).
CANDIDATES_PLAN_BUDGET = (4, 2)


def test_bsl_plan_shape_within_budget(restaurant_pair):
    """One plan scores all three n-gram sizes; guard how often it
    shuffles and sorts."""
    cands = bsl_candidates(restaurant_pair).cache()
    cands.count()
    shape = _plan_shape(bsl.pair_similarities(restaurant_pair, cands, *bsl.NGRAM_SIZES))
    cands.unpersist()
    assert shape[0] <= BSL_PLAN_BUDGET[0] and shape[1] <= BSL_PLAN_BUDGET[1], shape


def test_candidates_plan_shape_within_budget(restaurant_pair):
    """The candidate plan reads the token index the blocking cached."""
    with block_pair(restaurant_pair, CFG.k, CFG.budget_factor) as b:
        shape = _plan_shape(b.candidates())
    assert shape[0] <= CANDIDATES_PLAN_BUDGET[0] and shape[1] <= CANDIDATES_PLAN_BUDGET[1], shape


# ------------------------------------------------ Definition 1 on tiny pairs
# Each pair isolates one rule of how the heuristics compose. Every E1 and
# E2 literal attribute is a name attribute (k = 2), so only the values
# written equal on both sides form a 1-1 name block.
def _tiny_match(spark, rows1, rows2, cfg=CFG) -> set:
    pair = pair_from_rows(spark, "tiny", rows1, rows2, [])
    return {tuple(r) for r in match(pair, cfg).matches.collect()}


def test_best_value_sim_of_exactly_one_is_h2(spark):
    """The token "uniq" is in one entity per KB: valueSim
    1/log2(1*1 + 1) = 1.0 exactly, which is H2's bound, not H3's."""
    got = _tiny_match(
        spark, [(1, "ns0:name", "uniq alpha", False)], [(101, "ns1:label", "uniq beta", False)]
    )
    assert got == {(1, 101, "H2")}


def test_h1_entity_gets_no_h2_or_h3_pick(spark):
    """E1 entity 1 shares the unique name "acme corp" with 101 (valueSim 2)
    and three pair-unique tokens with 102 (valueSim 3): H1 matches it, and
    neither H2 nor H3 proposes its better-valued pair."""
    rows1 = [(1, "ns0:name", "acme corp", False), (1, "ns0:desc", "qux zap zip one", False)]
    rows2 = [
        (101, "ns1:label", "acme corp", False),
        (102, "ns1:label", "other co", False),
        (102, "ns1:info", "zip zap qux two", False),
    ]
    assert _tiny_match(spark, rows1, rows2) == {(1, 101, "H1")}


def test_neighbor_only_evidence_gets_no_h3_pick(spark):
    """3 and 103 share no token, but their neighbors 1 and 101 match, so
    neighborNSim(3, 103) > 0: H3 ranks co-occurring candidates only, and 3
    has none."""
    rows1 = [
        (1, "ns0:name", "acme corp", False),
        (3, "ns0:name", "gamma", False),
        (3, "ns0:rel", "1", True),
    ]
    rows2 = [
        (101, "ns1:label", "acme corp", False),
        (103, "ns1:label", "delta", False),
        (103, "ns1:link", "101", True),
    ]
    assert _tiny_match(spark, rows1, rows2) == {(1, 101, "H1")}


def test_h2_pick_rejected_by_h4_does_not_fall_through_to_h3(spark):
    """At K = 1, H2 proposes (1, 101) (valueSim 1.0) and H4 rejects it:
    101's best is 2 (valueSim 2). Had H3 ranked entity 1, the neighbor
    evidence of (1, 102) (its neighbors 2 and 101 match) would have made
    (1, 102) a reciprocal H3 match."""
    rows1 = [
        (1, "ns0:name", "one uniq", False),
        (1, "ns0:desc", "shr x1", False),
        (1, "ns0:rel", "2", True),
        (2, "ns0:name", "two aa bb", False),
        (3, "ns0:name", "three shr", False),
    ]
    rows2 = [
        (101, "ns1:label", "uniq aa bb", False),
        (102, "ns1:label", "shr y2", False),
        (102, "ns1:link", "101", True),
    ]
    got = _tiny_match(spark, rows1, rows2, MinoanERConfig(K=1))
    assert got == {(2, 101, "H2")}
