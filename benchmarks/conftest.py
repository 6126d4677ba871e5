"""Benchmark fixtures: one generated KBPair per dataset per session."""
import os

import pytest

from repro.kb.datasets import load


@pytest.fixture(scope="session")
def pairs(spark):
    """All four presets at benchmark scale (the default repro scale —
    SF-style scaling is available via BENCH_SCALE)."""
    scale = float(os.environ.get("BENCH_SCALE", "1.0"))
    return {
        name: load(spark, name, scale=scale, seed=42)
        for name in ("restaurant", "rexa_dblp", "bbcmusic_dbpedia", "yago_imdb")
    }
