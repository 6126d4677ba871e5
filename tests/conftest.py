"""Shared fixtures for the test suite: the toy pair and the presets."""
import pytest

from repro.kb import datasets
from repro.kb.schema import KB, KBPair, pair_from_rows


@pytest.fixture(scope="session")
def toy_pair(spark):
    """A tiny hand-built KB pair where every heuristic is hand-checkable.

    KB1 (E1): entities 1-4.  KB2 (E2): entities 101-105.
    Ground truth: (1,101), (2,102), (3,103).

    - 1/101 share the (case-insensitively) unique name "acme corp":
      the only 1-1 cross-KB name block -> H1 matches exactly this pair.
      valueSim(1,101) = w(acme) + w(corp) + w(zeta) = 1 + 1 + 1/log2(3).
    - 2/102 share the pair-unique tokens "qux" and "beta" (valueSim = 2,
      v_max >= 1 -> H2) but their names differ as strings.
    - 3/103 share only "common" (EF 2x3 -> w = 1/log2(7), v_max < 1) and
      are linked to 1/101 respectively -> only H3's neighbor evidence
      (nsim = valueSim(1,101)) separates 103 from 104/105.
    - 4 and 104/105 are unmatched distractors carrying "common".
    """
    rows1 = [
        (1, "ns0:name", "Acme Corp", False),
        (1, "ns0:desc", "zeta other1", False),
        (1, "ns0:rel", "3", True),
        (2, "ns0:name", "Beta LLC", False),
        (2, "ns0:desc", "qux alpha1", False),
        (2, "ns0:rel", "1", True),
        (3, "ns0:name", "Gamma Inc", False),
        (3, "ns0:desc", "common stuff1", False),
        (3, "ns0:rel", "1", True),
        (4, "ns0:name", "Delta Ltd", False),
        (4, "ns0:desc", "common stuff2", False),
        (4, "rdf:type", "org", False),
    ]
    rows2 = [
        (101, "ns1:label", "acme corp", False),
        (101, "ns1:info", "zeta also", False),
        (101, "ns1:link", "103", True),
        (102, "ns1:label", "Beta Company", False),
        (102, "ns1:info", "beta7 qux", False),
        (102, "ns1:link", "101", True),
        (103, "ns1:label", "Gmma Incorporated", False),
        (103, "ns1:info", "common things", False),
        (103, "ns1:link", "101", True),
        (104, "ns1:label", "Epsilon GmbH", False),
        (104, "ns1:info", "common matter", False),
        (105, "ns1:label", "Zeta-Zeta AG", False),
        (105, "ns1:info", "common issue", False),
        (105, "rdf:type", "org", False),
    ]
    gt = [(1, 101), (2, 102), (3, 103)]
    return pair_from_rows(spark, "toy", rows1, rows2, gt)


def _preset(spark, name):
    return datasets.load(spark, name, scale=1.0, seed=42)


@pytest.fixture(scope="session")
def restaurant_pair(spark):
    return _preset(spark, "restaurant")


@pytest.fixture(scope="session")
def rexa_pair(spark):
    return _preset(spark, "rexa_dblp")


@pytest.fixture(scope="session")
def bbc_pair(spark):
    return _preset(spark, "bbcmusic_dbpedia")


@pytest.fixture(scope="session")
def yago_pair(spark):
    return _preset(spark, "yago_imdb")


@pytest.fixture(scope="session")
def fresh_restaurant(restaurant_pair):
    """A factory of Restaurant pairs over new KB objects, so no statistic a
    KB caches carries over except |E|, which each new KB has counted. The
    preset's own caches (triples, ground truth) are materialized."""
    p = restaurant_pair

    def make() -> KBPair:
        pair = KBPair(p.name, KB(p.kb1.tag, p.kb1.triples),
                      KB(p.kb2.tag, p.kb2.triples), p.ground_truth)
        for kb in (pair.kb1, pair.kb2):
            kb.n_entities()
        p.ground_truth.count()
        return pair

    return make


@pytest.fixture(scope="session")
def job_trace(spark):
    """``job_trace(group, fn)`` runs ``fn()`` in its own job group and
    returns (its result, its job ids, the persisted RDD ids before and
    after it)."""
    sc = spark.sparkContext

    def run(group: str, fn):
        before = set(sc._jsc.getPersistentRDDs().keys())
        sc.setJobGroup(group, group)
        try:
            out = fn()
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        after = set(sc._jsc.getPersistentRDDs().keys())
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return out, sc.statusTracker().getJobIdsForGroup(group), before, after

    return run
