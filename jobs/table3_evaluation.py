"""Reproduce Table III (matching quality: MinoanER, BSL, simplified
PARIS) on the synthetic presets. SiGMa/LINDA/RiMOM rows are
paper-reported only (DESIGN.md §3); their numbers are printed from
``PAPER_TABLE3`` for side-by-side comparison.

    python jobs/table3_evaluation.py [dataset ...] [--methods M1,M2]
"""
import argparse

from repro.eval.tables import METHODS, format_side_by_side, table3
from repro.session import get_spark


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Reproduce Table III.")
    parser.add_argument("datasets", nargs="*", help="presets (default: all four)")
    parser.add_argument(
        "--methods", default=",".join(METHODS),
        help=f"comma-separated subset of {','.join(METHODS)}",
    )
    args = parser.parse_args(argv)
    spark = get_spark("table3")
    df = table3(spark, datasets=args.datasets or None, methods=tuple(args.methods.split(",")))
    print(format_side_by_side(df, "Table III"))


if __name__ == "__main__":
    main()
