"""Reproduce Table I (dataset statistics) on the synthetic presets.

    python jobs/table1_dataset_stats.py [dataset ...]
"""
import sys

from repro.eval.tables import format_side_by_side, table1
from repro.session import get_spark


def main(datasets=None) -> None:
    spark = get_spark("table1")
    df = table1(spark, datasets=datasets)
    print(format_side_by_side(df, "Table I"))


if __name__ == "__main__":
    main(sys.argv[1:] or None)
