"""Harnesses that reproduce the paper's Tables I, II and III.

Each ``tableN`` function runs the corresponding experiment on the four
synthetic dataset presets and returns a pandas DataFrame with the same
rows the paper reports; ``PAPER_TABLE*`` hold the published numbers so
EXPERIMENTS.md (and the jobs' stdout) can show paper vs measured side
by side. SiGMa / LINDA / RiMOM rows of Table III are paper-reported
only — the authors themselves copied them from the original
publications rather than running those systems (DESIGN.md §3).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.bsl import run_bsl
from repro.baselines.paris import run_paris
from repro.blocking.stats import block_pair, block_stats
from repro.core.minoaner import MinoanERConfig, resolve
from repro.eval.metrics import precision_recall_f1
from repro.kb.datasets import DATASET_ORDER, load
from repro.kb.schema import KBPair
from repro.kb.stats import dataset_stats

# ---------------------------------------------------------------- paper data
PAPER_TABLE1 = {
    "restaurant": {"E1 entities": 339, "E2 entities": 2256, "E1 triples": 1130,
                   "E2 triples": 7519, "E1 avg_tokens": 20.44, "E2 avg_tokens": 20.61,
                   "E1 attributes": 7, "E2 attributes": 7, "E1 relations": 2,
                   "E2 relations": 2, "E1 types": 3, "E2 types": 3,
                   "E1 vocabularies": 2, "E2 vocabularies": 2, "matches": 89},
    "rexa_dblp": {"E1 entities": 18492, "E2 entities": 2650832, "E1 triples": 87519,
                  "E2 triples": 14936373, "E1 avg_tokens": 40.71, "E2 avg_tokens": 59.24,
                  "E1 attributes": 114, "E2 attributes": 145, "E1 relations": 103,
                  "E2 relations": 123, "E1 types": 4, "E2 types": 11,
                  "E1 vocabularies": 4, "E2 vocabularies": 4, "matches": 1309},
    "bbcmusic_dbpedia": {"E1 entities": 58793, "E2 entities": 256602,
                         "E1 triples": 456304, "E2 triples": 8044247,
                         "E1 avg_tokens": 81.19, "E2 avg_tokens": 324.75,
                         "E1 attributes": 27, "E2 attributes": 10953,
                         "E1 relations": 9, "E2 relations": 953,
                         "E1 types": 4, "E2 types": 59801,
                         "E1 vocabularies": 4, "E2 vocabularies": 6, "matches": 22770},
    "yago_imdb": {"E1 entities": 5208100, "E2 entities": 5328774,
                  "E1 triples": 27547595, "E2 triples": 47843680,
                  "E1 avg_tokens": 15.56, "E2 avg_tokens": 12.49,
                  "E1 attributes": 65, "E2 attributes": 29,
                  "E1 relations": 4, "E2 relations": 13,
                  "E1 types": 11767, "E2 types": 15,
                  "E1 vocabularies": 3, "E2 vocabularies": 1, "matches": 56683},
}

PAPER_TABLE2 = {
    "restaurant": {"|BN|": 83, "|BT|": 625, "||BN||": 83, "||BT||": 1.80e3,
                   "|E1|*|E2|": 7.65e5, "precision": 4.95, "recall": 100.0, "f1": 9.43},
    "rexa_dblp": {"|BN|": 15912, "|BT|": 22297, "||BN||": 6.71e7, "||BT||": 6.54e8,
                  "|E1|*|E2|": 4.90e10, "precision": 1.81e-4, "recall": 99.77, "f1": 3.62e-4},
    "bbcmusic_dbpedia": {"|BN|": 28844, "|BT|": 54380, "||BN||": 1.25e7, "||BT||": 1.73e8,
                         "|E1|*|E2|": 1.51e10, "precision": 0.01, "recall": 99.83, "f1": 0.02},
    "yago_imdb": {"|BN|": 580518, "|BT|": 495973, "||BN||": 6.59e6, "||BT||": 2.28e10,
                  "|E1|*|E2|": 2.78e13, "precision": 2.46e-4, "recall": 99.35, "f1": 4.92e-4},
}

# method -> dataset -> (precision, recall, f1); None = not reported ("-")
PAPER_TABLE3 = {
    "SiGMa": {"restaurant": (99, 94, 97), "rexa_dblp": (97, 90, 94),
              "bbcmusic_dbpedia": None, "yago_imdb": (98, 85, 91)},
    "LINDA": {"restaurant": (100, 63, 77), "rexa_dblp": None,
              "bbcmusic_dbpedia": None, "yago_imdb": None},
    "RiMOM": {"restaurant": (86, 77, 81), "rexa_dblp": (80, 72, 76),
              "bbcmusic_dbpedia": None, "yago_imdb": None},
    "PARIS": {"restaurant": (95, 88, 91), "rexa_dblp": (93.95, 89, 91.41),
              "bbcmusic_dbpedia": (19.40, 0.29, 0.51), "yago_imdb": (94, 90, 92)},
    "BSL": {"restaurant": (100, 100, 100), "rexa_dblp": (96.57, 83.96, 89.82),
            "bbcmusic_dbpedia": (85.20, 36.09, 50.70), "yago_imdb": (11.68, 4.87, 6.88)},
    "MinoanER": {"restaurant": (100, 100, 100), "rexa_dblp": (96.74, 95.34, 96.04),
                 "bbcmusic_dbpedia": (91.44, 88.55, 89.97), "yago_imdb": (91.02, 90.57, 90.79)},
}

# -------------------------------------------------------------- experiments

METHODS = ("MinoanER", "BSL", "PARIS")  # the Table III rows run locally


def _load_all(
    spark: SparkSession, scale: float, seed: int, datasets: list[str] | None
) -> dict[str, KBPair]:
    return {n: load(spark, n, scale=scale, seed=seed) for n in datasets or DATASET_ORDER}


def table1(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 42,
    datasets: list[str] | None = None,
) -> pd.DataFrame:
    """Dataset statistics of the synthetic presets (Table I)."""
    rows = [dataset_stats(p) for p in _load_all(spark, scale, seed, datasets).values()]
    return pd.DataFrame(rows)


def table2(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 42,
    datasets: list[str] | None = None,
) -> pd.DataFrame:
    """Block statistics (Table II)."""
    rows = [block_stats(p) for p in _load_all(spark, scale, seed, datasets).values()]
    return pd.DataFrame(rows)


def bsl_candidates(pair: KBPair, cfg: MinoanERConfig = MinoanERConfig()) -> DataFrame:
    """The BSL input: the collected candidates of a blocking of its own
    (fewer rows than the similarities ``run_bsl`` collects from them)."""
    with block_pair(pair, cfg.k, cfg.budget_factor) as b:
        return b.collected_candidates()


def evaluate_dataset(pair: KBPair, methods: tuple[str, ...] = METHODS) -> dict[str, dict]:
    """P/R/F1 of every locally-run method on one dataset (Table III cell).
    MinoanER and BSL read one blocking, as in the paper."""
    if unknown := [m for m in methods if m not in METHODS]:
        raise ValueError(f"unknown methods {unknown}; known: {', '.join(METHODS)}")
    cfg = MinoanERConfig()
    out: dict[str, dict] = {}
    if {"MinoanER", "BSL"} & set(methods):
        with block_pair(pair, cfg.k, cfg.budget_factor) as b:
            if "MinoanER" in methods:
                res = resolve(pair, b, cfg)
                m = precision_recall_f1(res.matches, pair.ground_truth)
                out["MinoanER"] = {**m, "counts": res.counts}
            if "BSL" in methods:
                candidates = b.collected_candidates()
    if "BSL" in methods:
        best, _ = run_bsl(pair, candidates)
        out["BSL"] = {
            "precision": best.precision, "recall": best.recall, "f1": best.f1,
            "config": f"n={best.n} {best.measure} t={best.threshold}",
        }
    if "PARIS" in methods:
        out["PARIS"] = precision_recall_f1(run_paris(pair), pair.ground_truth)
    return out


def table3(
    spark: SparkSession, *, scale: float = 1.0, seed: int = 42,
    datasets: list[str] | None = None, methods: tuple[str, ...] = METHODS,
) -> pd.DataFrame:
    """Matching quality of the locally-run methods (Table III)."""
    rows = []
    for name, pair in _load_all(spark, scale, seed, datasets).items():
        for method, m in evaluate_dataset(pair, methods).items():
            rows.append(
                {"dataset": name, "method": method,
                 "precision": round(m["precision"], 2),
                 "recall": round(m["recall"], 2), "f1": round(m["f1"], 2),
                 "detail": m.get("config") or m.get("counts", "")}
            )
    return pd.DataFrame(rows)


def format_side_by_side(measured: pd.DataFrame, table: str) -> str:
    """Render measured rows next to the paper's numbers for the jobs/README."""
    lines = [f"== {table}: measured (synthetic presets) =="]
    lines.append(measured.to_string(index=False))
    lines.append(f"\n== {table}: paper-reported ==")
    paper = {"Table I": PAPER_TABLE1, "Table II": PAPER_TABLE2, "Table III": PAPER_TABLE3}[table]
    lines.append(pd.DataFrame(paper).to_string())
    return "\n".join(lines)
