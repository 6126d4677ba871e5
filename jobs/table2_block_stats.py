"""Reproduce Table II (block statistics) on the synthetic presets.

    python jobs/table2_block_stats.py [dataset ...]
"""
import sys

from repro.eval.tables import format_side_by_side, table2
from repro.session import get_spark


def main(datasets=None) -> None:
    spark = get_spark("table2")
    df = table2(spark, datasets=datasets)
    print(format_side_by_side(df, "Table II"))


if __name__ == "__main__":
    main(sys.argv[1:] or None)
