import os
import sys

import pytest
from pyspark.sql import SparkSession

from repro.session import get_spark


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, built by
    :func:`repro.session.get_spark` as the jobs build theirs."""
    s = get_spark("repro")
    # One line in the test output that tells whether the cgroup
    # derivation of the driver memory saw the real limit.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
