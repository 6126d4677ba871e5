"""Tests for the one session builder (repro.session)."""


def test_jvm_logs_to_stderr(spark):
    """The driver JVM starts with its default unified logging (warnings to
    stdout) cleared and warnings sent to stderr, so a GC warning cannot
    land in a job's printed table."""
    bean = spark._jvm.java.lang.management.ManagementFactory.getRuntimeMXBean()
    args = [str(a) for a in bean.getInputArguments()]
    assert [a for a in args if a.startswith("-Xlog")] == [
        "-Xlog:disable",
        "-Xlog:all=warning:stderr:uptime,level,tags",
    ], args
