"""The one SparkSession builder, shared by the test fixture and the jobs.

Local mode, broadcast joins off (so the shuffle paths the tests exercise
are the ones the jobs run), Arrow on, and 8 shuffle partitions, as the
datasets are laptop-scale; the driver JVM logs to stderr. ``SPARK_MASTER``
(default ``local[*]``), ``SPARK_DRIVER_MEM`` and
``SPARK_SHUFFLE_PARTITIONS`` override them.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

# The JVM's unified logging (GC warnings, say) goes to stderr, so that a
# job's stdout holds only what the job prints.
JVM_LOG_OPTIONS = "-Xlog:disable -Xlog:all=warning:stderr:uptime,level,tags"

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def _driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else ~75% of the cgroup v2/v1 memory
    limit, else 48g; ``_SPARK_DRIVER_MEM_SRC`` records which applied.

    A missing or unbounded limit (v2's "max", v1's ~9.2e18 "unlimited")
    counts as absent, so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in _CGROUP_LIMITS:
        try:
            gib = int(open(p).read()) / (1 << 30)
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}"
            return f"{max(1, int(gib * 0.75))}g"
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def get_spark(app: str) -> SparkSession:
    """The session. spark.driver.memory is read only when the driver JVM
    launches, so master and driver memory go into ``PYSPARK_SUBMIT_ARGS``
    (unless already set) before the first session starts."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_memory())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--driver-java-options '{JVM_LOG_OPTIONS}' "
        "pyspark-shell",
    )
    spark = (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
