"""MinoanER benchmark: end-to-end and per-stage numbers for ``match()``
and the BSL baseline.

    python3 perfbench/run.py --workload restaurant-match --seed 1 \
        --seconds 1 --trace 0

One process, one Spark ``local[N]`` session with the settings the jobs and
tests use. The seed goes to the KB-pair generator only; the program under
test receives the generated ``KBPair``. ``--trace 0`` times operations from
outside and prints the end-to-end metrics, their CPU seconds scaled by the
host speed that ``host_probe.py`` samples beside them. ``--trace 1`` runs one
operation, then rebuilds it stage by stage (see ``stage_trace.py``) and
prints the per-layer metrics. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the settings. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from host_probe import HostProbe

if TYPE_CHECKING:
    from stage_trace import CpuClock, Tracer

ROOT = Path(__file__).resolve().parent.parent

# workload -> (preset, scale, operation, F1 floor). The floors are those of
# benchmarks/bench_table3.py. Why each workload was chosen: README.md.
WORKLOADS = {
    "restaurant-match": ("restaurant", 1.0, "match", 97.0),
    "restaurant-bsl": ("restaurant", 1.0, "bsl", 99.0),
}

CORES = min(2, os.cpu_count() or 1)
DRIVER_MEMORY = "4g"
SHUFFLE_PARTITIONS = "8"
SETUP_REPEATS = 3

ALL_FIELDS = ("s", "cpu_s", "jobs", "tasks", "rows", "shuffles", "sorts")
# traced stage -> the fields reported for it; the last two stages are
# driver-side Python, with no plan and at most one small job
STAGES = {
    **dict.fromkeys([
        "blocking.tokenize", "kb.n_entities", "blocking.token_blocking",
        "blocking.purging", "core.value_sim", "core.relations",
        "core.heuristics.neighbor_sim", "blocking.name_blocking",
        "core.heuristics.h2", "core.heuristics.h3", "core.heuristics.h4",
        "core.minoaner", "blocking.candidates", "baselines.bsl.score",
        "baselines.paris.seed",
    ], ALL_FIELDS),
    "baselines.umc": ("s", "cpu_s", "rows"),
    "baselines.bsl": ("s", "cpu_s", "jobs", "rows"),
}
UNITS = {"s": "s", "cpu_s": "s", "jobs": "count", "tasks": "count", "rows": "count",
         "shuffles": "count", "sorts": "count", "kept_ratio": "ratio"}


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def start_session(work: Path):
    """Launch the driver JVM and return the SparkSession.

    Spark's scratch space, the JVM's and Python's temp files all go under
    ``work`` so that the run writes nothing outside the checkout.
    """
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "local")
    # Read by both JVMs that spark-submit starts: no hsperfdata files under
    # /tmp, and JIT compiler threads that never exit, so that CpuClock can
    # subtract their CPU time.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-XX:-UsePerfData -XX:-UseDynamicNumberOfCompilerThreads -Djava.io.tmpdir={tmp}"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> float:
    """Stop Spark, wait for the driver JVM to exit; return its peak RSS in MB.

    The JVM is this process's child and exits when its stdin closes, so
    once it has been reaped the kernel's peak RSS of children is its own.
    """
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def generate(spark, preset: str, scale: float, seed: int):
    """Generate the KB pair and materialise its cached DataFrames."""
    from repro.kb.datasets import load

    pair = load(spark, preset, scale=scale, seed=seed)
    for df in (pair.kb1.triples, pair.kb2.triples, pair.ground_truth):
        df.count()
    return pair


def release(pair) -> None:
    for df in (pair.kb1.triples, pair.kb2.triples, pair.ground_truth):
        df.unpersist()


def jobs_in_group(sc, group: str) -> int:
    from stage_trace import wait_for_listeners

    wait_for_listeners(sc)
    return len(sc.statusTracker().getJobIdsForGroup(group))


def run_match(pair) -> tuple[list, Callable[[], float]]:
    """One ``match()``: its sorted (e1, e2, heuristic) set and a function
    giving its F1."""
    from repro.core.minoaner import match
    from repro.eval.metrics import precision_recall_f1

    res = match(pair)
    got = sorted((r["e1"], r["e2"], r["heuristic"]) for r in res.matches.collect())
    return got, lambda: precision_recall_f1(res.matches, pair.ground_truth)["f1"]


def run_bsl(pair) -> tuple[list, Callable[[], float]]:
    """One BSL sweep over the blocking candidates: all outcomes, in order,
    and a function giving the best F1."""
    from repro.baselines.bsl import run_bsl
    from repro.eval.tables import bsl_candidates

    best, outcomes = run_bsl(pair, bsl_candidates(pair))
    return outcomes, lambda: best.f1


OPERATIONS = {"match": run_match, "bsl": run_bsl}


@dataclass(frozen=True)
class OpCost:
    """What one successful operation cost."""

    start: float      # time.perf_counter() when it started
    wall_s: float
    cpu_s: float      # JVM + Python driver, JIT compiler and GC threads excluded
    jit_cpu_s: float
    gc_cpu_s: float
    py_cpu_s: float   # the Python driver alone
    jobs: int


class Operations:
    """Runs one workload's operation on one pair and checks every result.

    Each operation's result (``match()``'s sorted match set, or all of
    BSL's outcomes) must equal that of the run's first operation, and the
    first one's F1 must reach the floor. An operation that raises or fails
    a check counts as failed.
    """

    def __init__(self, spark, pair, kind: str, floor: float, cpu: CpuClock):
        self.spark, self.pair, self.cpu = spark, pair, cpu
        self.op, self.floor = OPERATIONS[kind], floor
        self.done: list[OpCost | None] = []  # None: the op failed
        self.reference: list | None = None
        self.f1: float | None = None

    @property
    def attempted(self) -> int:
        return len(self.done)

    @property
    def failed(self) -> int:
        return self.done.count(None)

    def run_one(self) -> None:
        sc = self.spark.sparkContext
        i = self.attempted
        group = f"op:{i}"
        try:
            sc.setJobGroup(group, f"operation {i}")
            t0, c0, p0 = time.perf_counter(), self.cpu.breakdown(), time.process_time()
            got, f1 = self.op(self.pair)
            wall, c1 = time.perf_counter() - t0, self.cpu.breakdown()
            py_cpu = time.process_time() - p0
            all_cpu, jit, gc = (b - a for a, b in zip(c0, c1))
            sc.setJobGroup("check", "correctness check")
            if self.reference is None:
                self.reference, self.f1 = got, f1()
            ok = got == self.reference and self.f1 >= self.floor
            if not ok:
                log(f"op {i}: check failed (same result: {got == self.reference}, "
                    f"F1 {self.f1:.2f} vs floor {self.floor})")
        except Exception:  # one failed operation must not end the run
            log(f"op {i} raised:\n{traceback.format_exc()}")
            ok = False
        if not ok:
            self.done.append(None)
            return
        cost = OpCost(t0, wall, all_cpu - jit - gc, jit, gc, py_cpu, jobs_in_group(sc, group))
        self.done.append(cost)
        log(f"op {i}: {wall:.3f} s wall, {all_cpu:.3f} s CPU of which JIT {jit:.3f} s "
            f"and GC {gc:.3f} s, {cost.jobs} jobs")


def git_sha() -> str:
    """The checkout's commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def settings(args, spark, preset: str, scale: float, kind: str) -> dict:
    conf = spark.sparkContext.getConf()
    jvm = spark.sparkContext._jvm
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "adaptive": spark.conf.get("spark.sql.adaptive.enabled"),
        "driver_memory": conf.get("spark.driver.memory", DRIVER_MEMORY),
        "spark": spark.version,
        "java": jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "workload": args.workload,
        "preset": preset,
        "operation": kind,
        "scale": scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(ops: Operations, setup_s: float, n_entities: int, probe: HostProbe) -> dict:
    """``setup_s`` is already scaled to the reference host speed."""
    cold = ops.done[0]
    cold_cpu = cold.cpu_s * probe.scale(cold.start, cold.start + cold.wall_s)
    return {
        "cold_op_norm_cpu_s": metric(cold_cpu, "s"),
        "entities_per_norm_cpu_s": metric(n_entities / cold_cpu, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "spark_jobs": metric(cold.jobs, "count"),
        "f1": metric(ops.f1, "%"),
        "ok_ops": metric(100.0 * (ops.attempted - ops.failed) / ops.attempted, "%"),
    }


def per_layer(tracer, extra: dict) -> dict:
    out = {}
    for name, fields in STAGES.items():
        stage = tracer.stages.get(name)
        if stage is None:
            continue
        for f in fields:
            out[f"{name}.{f}"] = metric(getattr(stage, f), UNITS[f])
        if stage.kept_ratio is not None:
            out[f"{name}.kept_ratio"] = metric(stage.kept_ratio, UNITS["kept_ratio"])
    out.update(extra)
    return out


def trace_stages(spark, pair, kind: str, ops: Operations) -> tuple[Tracer, float, int]:
    """Run every stage-by-stage rebuild, the workload's own operation first.

    Returns the tracer, the tracer's overhead on the own operation and the
    number of trace faults: a rebuilt result that differs from the untraced
    operation's, or a stage function that is gone.
    """
    from stage_trace import Tracer, traced_bsl, traced_match, traced_paris_seed

    tracer = Tracer(spark, ops.cpu)
    rebuilds = {"match": traced_match, "bsl": traced_bsl}
    faults = 0
    overhead_s = 0.0
    for k in [kind] + [k for k in rebuilds if k != kind]:
        try:
            got = rebuilds[k](tracer, pair)
            if k == kind and got != ops.reference:
                faults += 1
                log(f"trace fault: the stage-by-stage {k} result differs "
                    "from the untraced one")
        except Exception:  # a missing stage function is a trace fault, not a failed op
            faults += 1
            log(f"trace fault in the {k} stages:\n{traceback.format_exc()}")
        if k == kind:
            overhead_s = tracer.overhead_s
    try:
        traced_paris_seed(tracer, pair)
    except Exception:
        faults += 1
        log(f"trace fault in the PARIS seed stage:\n{traceback.format_exc()}")
    return tracer, overhead_s, faults


def run(args, work: Path) -> dict:
    preset, scale, kind, floor = WORKLOADS[args.workload]
    with HostProbe() as probe:
        t0, p0 = time.perf_counter(), time.process_time()
        spark = start_session(work)
        try:
            result = measure(args, spark, probe, t0, p0, preset, scale, kind, floor)
        finally:
            rss_mb = stop_session(spark)
    log(f"driver JVM peak RSS {rss_mb:.0f} MB")
    if args.trace and result["metrics"]:
        result["metrics"]["driver.peak_rss_mb"] = metric(rss_mb, "MB")
    return result


def measure(args, spark, probe: HostProbe, t0: float, p0: float, preset: str,
            scale: float, kind: str, floor: float) -> dict:
    """Set up and run the operations; ``t0``/``p0`` are the wall clock and
    Python CPU clock read just before the session started."""
    from pyspark import SparkContext
    from stage_trace import CpuClock

    cpu = CpuClock(SparkContext._gateway.proc.pid)
    # the JVM started at 0 CPU seconds, so this is all the session start cost
    session_cpu, session_s = cpu() - p0, time.perf_counter() - t0
    spark.sparkContext.setJobGroup("setup", "set-up")
    gen_cpu, gen_wall, pair = [], [], None
    for _ in range(SETUP_REPEATS):
        if pair is not None:
            release(pair)
        t, c = time.perf_counter(), cpu()
        pair = generate(spark, preset, scale, args.seed)
        gen_wall.append(time.perf_counter() - t)
        gen_cpu.append(cpu() - c)
    n_entities = pair.kb1.n_entities() + pair.kb2.n_entities()
    print("settings " + json.dumps(settings(args, spark, preset, scale, kind)), flush=True)
    log(f"setup: session {session_s:.3f} s wall, {session_cpu:.3f} s CPU; generation "
        f"{', '.join(f'{w:.3f}' for w in gen_wall)} s wall, "
        f"{', '.join(f'{c:.3f}' for c in gen_cpu)} s CPU")

    setup_end = time.perf_counter()

    ops = Operations(spark, pair, kind, floor, cpu)
    start = time.perf_counter()
    ops.run_one()  # cold: the first operation in a fresh session
    while not args.trace and time.perf_counter() - start < args.seconds:
        ops.run_one()
    probe.stop()
    setup_s = (session_cpu + statistics.median(gen_cpu)) * probe.scale(t0, setup_end)

    metrics: dict = {}
    cold = ops.done[0]
    if args.trace and ops.failed == 0:
        tracer, overhead_s, faults = trace_stages(spark, pair, kind, ops)
        metrics = per_layer(tracer, {
            "kb.generate.s": metric(statistics.median(gen_wall), "s"),
            "kb.generate.cpu_s": metric(statistics.median(gen_cpu), "s"),
            "driver.cpu_s": metric(cold.cpu_s, "s"),
            "driver.py_cpu_s": metric(cold.py_cpu_s, "s"),
            "driver.jit_cpu_s": metric(cold.jit_cpu_s, "s"),
            "driver.gc_cpu_s": metric(cold.gc_cpu_s, "s"),
            "host.probe_ms": metric(
                1e3 * probe.probe_s(cold.start, cold.start + cold.wall_s), "ms"),
            "trace.overhead_s": metric(overhead_s, "s"),
            "trace.faults": metric(faults, "count"),
        })
    elif not args.trace and cold is not None:
        metrics = end_to_end(ops, setup_s, n_entities, probe)
    correct = ops.failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
            "metrics": metrics}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        log(f"  {name:44s} {m['value']:>14.4f} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
