"""Reproduce Table III (matching quality: MinoanER, BSL, simplified
PARIS) on the synthetic presets. SiGMa/LINDA/RiMOM rows are
paper-reported only (DESIGN.md §3); their numbers are printed from
``PAPER_TABLE3`` for side-by-side comparison.

    python jobs/table3_evaluation.py [dataset ...] [--methods M1,M2]
"""
import sys

from repro.eval.tables import format_side_by_side, table3
from repro.session import get_spark


def main(argv=None) -> None:
    argv = argv if argv is not None else sys.argv[1:]
    methods = ("MinoanER", "BSL", "PARIS")
    datasets = []
    it = iter(argv)
    for a in it:
        if a == "--methods":
            methods = tuple(next(it).split(","))
        else:
            datasets.append(a)
    spark = get_spark("table3")
    df = table3(spark, datasets=datasets or None, methods=methods)
    print(format_side_by_side(df, "Table III"))


if __name__ == "__main__":
    main()
