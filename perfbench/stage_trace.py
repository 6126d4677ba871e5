"""Outside-in stage tracing for the MinoanER benchmark.

The traced pipelines call the public functions that
:func:`repro.core.minoaner.match` and :func:`repro.baselines.bsl.run_bsl`
call, in the same order, but run each stage to completion inside a span.
A span records its self time and self CPU time (minus the spans nested in
it); its Spark jobs are tagged with a job group and read back from the
status tracker, and the Exchange and Sort nodes of the stage's output plan
are counted.

Only what ``match()`` caches is cached here, so a later stage recomputes
exactly what it recomputes inside ``match()``. Counting an uncached
stage's rows therefore costs an extra job, which shows in that stage's
``.jobs`` and in the tracer's ``overhead_s``.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines import bsl, paris
from repro.baselines.umc import umc_frontier
from repro.blocking import name_blocking, purging, token_blocking
from repro.blocking.tokenize import entity_tokens
from repro.core import heuristics, relations, value_sim
from repro.core.minoaner import MinoanERConfig
from repro.eval.tables import bsl_candidates
from repro.kb.schema import KBPair


def plan_shape(df: DataFrame) -> tuple[int, int]:
    """(Exchange, Sort) node counts of ``df``'s physical plan.

    The plan is the one Spark builds before adaptive execution re-plans at
    run time, so the counts do not depend on the machine or on timing. A
    cached input is a leaf scan here: the stage that cached it counted its
    plan, and it does not run again.
    """
    shuffles = sorts = 0
    todo = [df._jdf.queryExecution().executedPlan()]
    while todo:
        node = todo.pop()
        name = node.nodeName()
        if name == "AdaptiveSparkPlan":
            todo.append(node.executedPlan())
            continue
        shuffles += name == "Exchange"
        sorts += name == "Sort"
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return shuffles, sorts


class CpuClock:
    """CPU seconds used so far by the Python driver and the driver JVM.

    In local mode the JVM runs the tasks too, so this is all the work an
    operation costs. Unlike wall time it does not grow when the host gives
    a virtual machine's CPUs to other machines (steal time). Calling the
    clock gives the CPU time of the threads that run the program: all but
    the JVM's JIT compiler and garbage collector threads, whose share
    follows compile and heap-sizing timing more than the program.
    ``breakdown()`` gives all three. Reads ``/proc``, so Linux only.

    The JVM must run with ``-XX:-UseDynamicNumberOfCompilerThreads``, so
    that no compiler thread exits and takes its CPU time with it.
    """

    _TICK = os.sysconf("SC_CLK_TCK")

    def __init__(self, jvm_pid: int):
        self._stat = f"/proc/{jvm_pid}/stat"
        self._tasks = f"/proc/{jvm_pid}/task"

    @classmethod
    def _ticks(cls, stat: str) -> float:
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / cls._TICK

    def breakdown(self) -> tuple[float, float, float]:
        """(all CPU, JIT compiler threads' CPU, GC threads' CPU) so far."""
        with open(self._stat) as f:
            total = self._ticks(f.read()) + time.process_time()
        jit = gc = 0.0
        for tid in os.listdir(self._tasks):
            try:
                with open(f"{self._tasks}/{tid}/stat") as f:
                    stat = f.read()
            except OSError:  # the thread ended after listdir
                continue
            name = stat[stat.index("(") + 1 : stat.rindex(")")]
            if name.startswith(("C1 Compiler", "C2 Compiler")):
                jit += self._ticks(stat)
            elif name.startswith(("GC Thread", "G1 ")):
                gc += self._ticks(stat)
        return total, jit, gc

    def __call__(self) -> float:
        total, jit, gc = self.breakdown()
        return total - jit - gc


@dataclass
class Stage:
    """Accumulated measurements of one named stage."""

    s: float = 0.0
    cpu_s: float = 0.0
    jobs: int = 0
    tasks: int = 0
    rows: int = 0
    shuffles: int = 0
    sorts: int = 0
    kept_ratio: float | None = None


def _group(name: str) -> str:
    return f"trace:{name}"


class Tracer:
    """Spans keyed by stage name; a repeated name accumulates.

    ``overhead_s`` sums the wall time of the work the tracer adds and the
    traced program would not do: planning a stage only to read its shape,
    counting rows of a stage the program does not cache (it is computed
    again downstream), and reading the status tracker.
    """

    def __init__(self, spark, cpu: CpuClock):
        self.sc = spark.sparkContext
        self.cpu = cpu
        self.stages: dict[str, Stage] = {}
        # [name, wall seconds, CPU seconds] spent in spans nested in an open one
        self._open: list[list] = []
        self._jobs_seen: set[int] = set()
        self._stages_seen: set[int] = set()
        self.overhead_s = 0.0

    @contextmanager
    def _added(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.overhead_s += time.perf_counter() - t0

    def shape(self, stage: Stage, df: DataFrame) -> None:
        """Add ``df``'s plan shape to the stage's counts."""
        with self._added():
            sh, so = plan_shape(df)
        stage.shuffles += sh
        stage.sorts += so

    def materialize(self, stage: Stage, df: DataFrame, cache: bool = False) -> DataFrame:
        """Count ``df``'s plan shape and rows; cache it first if the program does.

        Counting a cached DataFrame builds the cache the program builds at
        its first use; counting an uncached one is extra work.
        """
        self.shape(stage, df)
        if cache:
            df = df.cache()
            stage.rows += df.count()
        else:
            with self._added():
                stage.rows += df.count()
        return df

    @contextmanager
    def span(self, name: str):
        stage = self.stages.setdefault(name, Stage())
        self._open.append([name, 0.0, 0.0])
        self.sc.setJobGroup(_group(name), name)
        t0, c0 = time.perf_counter(), self.cpu()
        try:
            yield stage
        finally:
            wall, cpu = time.perf_counter() - t0, self.cpu() - c0
            _, nested_wall, nested_cpu = self._open.pop()
            stage.s += wall - nested_wall
            stage.cpu_s += cpu - nested_cpu
            if self._open:
                self._open[-1][1] += wall
                self._open[-1][2] += cpu
                self.sc.setJobGroup(_group(self._open[-1][0]), self._open[-1][0])
            else:
                self.sc.setJobGroup("trace", "between spans")

    def settle(self) -> None:
        """Attribute finished Spark jobs and their tasks to the spans.

        The status tracker is fed asynchronously by the listener bus, so it
        is drained first. Call this after each pipeline: the tracker keeps
        only the most recent 1000 jobs and stages.
        """
        with self._added():
            self._settle()

    def _settle(self) -> None:
        wait_for_listeners(self.sc)
        st = self.sc.statusTracker()
        for name, stage in self.stages.items():
            for jid in st.getJobIdsForGroup(_group(name)):
                if jid in self._jobs_seen:
                    continue
                self._jobs_seen.add(jid)
                stage.jobs += 1
                info = st.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    if sid in self._stages_seen:
                        continue
                    self._stages_seen.add(sid)
                    si = st.getStageInfo(sid)
                    stage.tasks += si.numCompletedTasks if si else 0


def wait_for_listeners(sc) -> None:
    """Block until the status store has seen every finished job."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def traced_match(
    tracer: Tracer, pair: KBPair, cfg: MinoanERConfig = MinoanERConfig()
) -> list[tuple]:
    """``match()`` stage by stage; returns its sorted (e1, e2, heuristic) set."""
    spark = pair.kb1.triples.sparkSession
    with tracer.span("core.minoaner") as whole:
        with tracer.span("blocking.tokenize") as st:
            t1 = tracer.materialize(st, entity_tokens(pair.kb1), cache=True)
            t2 = tracer.materialize(st, entity_tokens(pair.kb2), cache=True)
        with tracer.span("kb.n_entities") as st:
            for kb in (pair.kb1, pair.kb2):
                tracer.shape(st, kb.entities())
            n1, n2 = pair.kb1.n_entities(), pair.kb2.n_entities()
            st.rows = n1 + n2
        with tracer.span("blocking.token_blocking") as st:
            index = tracer.materialize(st, token_blocking.block_index(t1, t2))
        with tracer.span("blocking.purging") as st:
            bt, _ = purging.purge(index, n1 * n2, cfg.budget_factor)
            tracer.materialize(st, bt)
            st.kept_ratio = st.rows / tracer.stages["blocking.token_blocking"].rows
        with tracer.span("core.value_sim") as st:
            vsims = tracer.materialize(
                st, value_sim.value_similarities(t1, t2, bt.select("key")), cache=True
            )
        with tracer.span("core.relations") as st:
            nbrs1 = tracer.materialize(st, relations.top_neighbors(pair.kb1, cfg.N))
            nbrs2 = tracer.materialize(st, relations.top_neighbors(pair.kb2, cfg.N))
        with tracer.span("core.heuristics.neighbor_sim") as st:
            nsims = tracer.materialize(
                st, heuristics.neighbor_similarities(vsims, nbrs1, nbrs2), cache=True
            )
        with tracer.span("blocking.name_blocking") as st:
            nk = name_blocking.name_keys(pair, cfg.k)
            for df in nk:
                tracer.shape(st, df)
            nk = (nk[0].cache(), nk[1].cache())
            h1 = tracer.materialize(
                st,
                name_blocking.h1_matches(pair, cfg.k, nk)
                .withColumn("heuristic", F.lit("H1")),
                cache=True,
            )
        with tracer.span("core.heuristics.h2") as st:
            h2 = tracer.materialize(
                st,
                heuristics.h2_matches(vsims, h1).withColumn("heuristic", F.lit("H2")),
                cache=True,
            )
        with tracer.span("core.heuristics.h3") as st:
            matched_12 = h1.select("e1", "e2").unionByName(h2.select("e1", "e2"))
            h3 = tracer.materialize(
                st,
                heuristics.h3_matches(vsims, nsims, matched_12, cfg.theta)
                .withColumn("heuristic", F.lit("H3")),
            )
        with tracer.span("core.heuristics.h4") as st:
            proposed = h1.unionByName(h2).unionByName(h3)
            final = heuristics.h4_filter(proposed, vsims, nsims, cfg.K)
            tracer.shape(st, final)
            rows = final.collect()
            st.rows = len(rows)
            n_proposed = sum(
                tracer.stages[name].rows for name in
                ("blocking.name_blocking", "core.heuristics.h2", "core.heuristics.h3")
            )
            st.kept_ratio = st.rows / n_proposed if n_proposed else 1.0
        out = spark.createDataFrame(
            [(r["e1"], r["e2"], r["heuristic"]) for r in rows],
            schema="e1 long, e2 long, heuristic string",
        )
        for df in (vsims, nsims, t1, t2, h1, h2, *nk):
            df.unpersist()
        whole.rows = len(rows)
    tracer.settle()
    return sorted(tuple(r) for r in out.collect())


def traced_bsl(
    tracer: Tracer, pair: KBPair, cfg: MinoanERConfig = MinoanERConfig()
) -> list[bsl.BSLOutcome]:
    """``run_bsl(pair, bsl_candidates(pair))`` stage by stage; returns all
    its outcomes, in ``run_bsl``'s order."""
    with tracer.span("blocking.candidates") as st:
        cands = tracer.materialize(st, bsl_candidates(pair, cfg))
    with tracer.span("baselines.bsl") as whole:
        gt_rows = pair.ground_truth.collect()
        gt_pairs = {(r["e1"], r["e2"]) for r in gt_rows}
        gt_e1 = {r["e1"] for r in gt_rows}
        outcomes: list[bsl.BSLOutcome] = []
        for n in bsl.NGRAM_SIZES:
            with tracer.span("baselines.bsl.score") as st:
                sims_df = bsl.pair_similarities(pair, cands, n)
                tracer.shape(st, sims_df)
                sims = sims_df.collect()
                st.rows += len(sims)
            for m in bsl.MEASURES:
                scored = [
                    (r["e1"], r["e2"], float(r[m]))
                    for r in sims
                    if r[m] is not None and r[m] > 0.0
                ]
                with tracer.span("baselines.umc") as st:
                    frontier = umc_frontier(scored)
                    st.rows += len(frontier)
                outcomes.extend(bsl._sweep(frontier, gt_pairs, gt_e1, n, m))
        whole.rows = len(outcomes)
    tracer.settle()
    return outcomes


def traced_paris_seed(tracer: Tracer, pair: KBPair) -> None:
    """PARIS's seeding step. Its fixed-point iterations are left out: on
    Restaurant they take about 30 s, more than a run can hold."""
    with tracer.span("baselines.paris.seed") as st:
        tracer.materialize(st, paris.seed_probabilities(pair))
    tracer.settle()
