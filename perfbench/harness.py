"""Workloads, measurement loops and metric assembly for the benchmark.

Each workload builds its inputs with ``repro.workloads`` from the run's
seed (the engine workloads several data draws of them), sets the
program up (timed, several times), computes the exact answer of every
query in its mix with ``GolaSession.execute_batch``, and then measures
for a fixed number of seconds:

* the engine workloads (``nested-mem``, ``taxi-colstore``,
  ``nested-workers2``) run a closed loop with one client: whole passes
  over every (query, data draw) pair in seeded orders, each query
  starting when the previous one has produced its final snapshot;
* ``serve-closed`` runs two closed-loop HTTP clients against a
  :class:`~repro.serve.GolaServer` in this process.

Every final snapshot that covers all batches is compared with the exact
answer through :func:`repro.qa.compare.compare_tables` at its default
tolerances.  Input sizes are fixed so that one run holds enough queries
for the tail percentiles in :data:`TAILS` (see ``README.md``).
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro import GolaConfig, GolaSession
from repro import workloads as wl
from repro.config import ParallelConfig, ServeConfig
from repro.obs import MetricsRegistry, Tracer
from repro.qa.compare import compare_tables
from repro.serve import GolaServer, QueryScheduler
from repro.storage import colstore
from repro.storage.io import write_csv

from .tracing import Instrumentation, Recorder

# -- input sizes and engine settings -------------------------------------

#: Rows of each nested fact table (``tpch``, ``conviva``, ``sessions``).
NESTED_ROWS = 20_000
#: Rows of each ``serve-closed`` table: many short interactive queries,
#: so one run holds enough arrivals for steady percentiles at low load.
SERVE_ROWS = 5_000
#: Rows of the taxi ``trips`` fact (``surcharges`` gets half as many).
TAXI_ROWS = 40_000
#: Mini-batches per query; with these sizes every nested batch holds
#: 2,500 rows, above the default ``min_shard_rows`` (2,048), so the
#: two-worker workload really shards its bootstrap folds.
NUM_BATCHES = 8
#: Bootstrap trials per query.
TRIALS = 100

#: Closed-loop HTTP clients of ``serve-closed``: one per usable core on
#: the 2-core recording host, so two queries share the scheduler nearly
#: all the time.
SERVE_CLIENTS = 2
#: Range of the accuracy target (relative stdev) each ``serve-closed``
#: query is submitted with, drawn uniformly per query: users want
#: different accuracies, and a spread of targets keeps a query's stop
#: batch from flipping all at once when the data seed changes.
SERVE_TARGET_RSD = (0.03, 0.08)
#: Seed of the fixed ``serve-closed`` query sequence (kinds and targets),
#: replayed on every run against the tables ``--seed`` generates.
SERVE_TRACE_SEED = 2015

#: Interactive limit on the first answer, per workload (``slo_met_frac``):
#: several times the usual tail on the 2-core recording host, so only a
#: failure or a large slowdown makes a query miss it.
SLO_FIRST_ANSWER_S = {
    "nested-mem": 0.25,
    "taxi-colstore": 0.25,
    "nested-workers2": 0.5,
    "serve-closed": 0.25,
}

#: Tail percentile reported as ``<metric>.tail``, per workload: a
#: multiple of 5 that keeps at least ten samples beyond it even when a
#: 30 s engine run holds only two passes (serve: two thirds of its usual
#: samples).  Usual first-answer / refresh samples per 30 s run on the
#: 2-core recording host: 96 / 672, 120-160 / 840-1,120, 64 / 448 and
#: ~520 / ~1,040, in this order.
TAILS = {
    "nested-mem": {"first_answer_s": 80, "refresh_s": 95, "query_s": 80},
    "taxi-colstore": {"first_answer_s": 85, "refresh_s": 95,
                      "query_s": 85},
    "nested-workers2": {"first_answer_s": 65, "refresh_s": 95,
                        "query_s": 65},
    "serve-closed": {"first_answer_s": 95, "refresh_s": 95,
                     "query_s": 95},
}

#: Data draws per run: the tables are generated this many times from
#: ``--seed`` (draw ``i`` from data seed ``seed * draws + i``), each
#: draw set up in its own session, and every engine pass runs the mix
#: once on each.  Some queries' cost follows their data (Q18's
#: uncertain set, T7's per-zone surcharges), and they hold the refresh
#: tail; pooled draws keep a run's tail from following one draw.
DATA_DRAWS = {
    "nested-mem": 4,
    "taxi-colstore": 4,
    "nested-workers2": 4,
    "serve-closed": 1,
}

#: Set-ups per data draw; ``setup_s`` is the median of all of a run's.
SETUP_REPS = {
    "nested-mem": 1,
    "taxi-colstore": 2,
    "nested-workers2": 1,
    "serve-closed": 5,
}


class MixQuery(NamedTuple):
    """One query of a workload's mix."""

    name: str
    sql: str
    #: Streamed relations the query folds (for ``rows_per_s``).
    streamed: Tuple[str, ...]
    #: Output columns computed from QUANTILE's bounded reservoir.  Both
    #: the online and the batch engine sample once a query sees more
    #: rows than ``GolaConfig.max_quantile_sample``, so no exact answer
    #: exists for them; their divergence is reported, not checked.
    sampled: Tuple[str, ...] = ()


#: The paper's seven nested-aggregate queries plus SBI.
NESTED_MIX = (
    MixQuery("C1", wl.C1_QUERY, ("conviva",)),
    MixQuery("C2", wl.C2_QUERY, ("conviva",)),
    MixQuery("C3", wl.C3_QUERY, ("conviva",)),
    MixQuery("Q11", wl.Q11_QUERY, ("tpch",)),
    MixQuery("Q17", wl.Q17_QUERY, ("tpch",)),
    MixQuery("Q18", wl.Q18_QUERY, ("tpch",)),
    MixQuery("Q20", wl.Q20_QUERY, ("tpch",)),
    MixQuery("SBI", wl.SBI_QUERY, ("sessions",)),
)

#: Taxi T1-T10; T7/T8 fold both facts, T5/T6 end in a QUANTILE.
TAXI_MIX = tuple(
    MixQuery(name, sql,
             ("trips", "surcharges") if name in ("T7", "T8")
             else ("trips",),
             ("p95_fare",) if name in ("T5", "T6") else ())
    for name, sql in wl.TAXI_QUERIES.items()
)

#: Scalar queries for the server, each stopped early at its target.
SERVE_MIX = (
    MixQuery("SBI", wl.SBI_QUERY, ("sessions",)),
    MixQuery("C3", wl.C3_QUERY, ("conviva",)),
    MixQuery("Q17", wl.Q17_QUERY, ("tpch",)),
    MixQuery("Q20", wl.Q20_QUERY, ("tpch",)),
    MixQuery("AVG_PLAY", "SELECT AVG(play_time) FROM sessions",
             ("sessions",)),
)

WORKLOADS = ("nested-mem", "taxi-colstore", "nested-workers2", "serve-closed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "first_answer_s.p50": "s",
    "first_answer_s.tail": "s",
    "refresh_s.p50": "s",
    "refresh_s.tail": "s",
    "query_s.p50": "s",
    "query_s.tail": "s",
    "rows_per_s": "rows/s",
    "slo_met_frac": "ratio",
    "peak_rss_mb": "MB",
}

_clock = time.perf_counter


# ----------------------------------------------------------------------
# Inputs and set-up
# ----------------------------------------------------------------------


def make_tables(workload: str, seed: int) -> Dict[str, object]:
    """The workload's generated tables."""
    if workload == "taxi-colstore":
        return wl.generate_taxi(TAXI_ROWS, seed=seed)
    rows = SERVE_ROWS if workload == "serve-closed" else NESTED_ROWS
    return {
        "tpch": wl.generate_tpch(rows, seed=seed),
        "conviva": wl.generate_conviva(rows, seed=seed + 1),
        "sessions": wl.generate_sessions(rows, seed=seed + 2),
    }


def make_inputs(workload: str, seed: int, workdir: str
                ) -> Dict[str, object]:
    """The program's inputs (input generation is not timed).

    The in-memory workloads get CSV files, which their set-up loads
    with ``GolaSession.load_csv``; ``taxi-colstore`` gets the tables,
    which its set-up converts to colstore partitions.
    """
    tables = make_tables(workload, seed)
    if workload == "taxi-colstore":
        return tables
    paths = {}
    for name, table in tables.items():
        paths[name] = os.path.join(workdir, f"{name}.csv")
        write_csv(table, paths[name])
    return paths


def mix_for(workload: str):
    if workload == "taxi-colstore":
        return TAXI_MIX
    if workload == "serve-closed":
        return SERVE_MIX
    return NESTED_MIX


def make_config(workload: str, seed: int) -> GolaConfig:
    workers = 2 if workload == "nested-workers2" else 0
    return GolaConfig(num_batches=NUM_BATCHES, bootstrap_trials=TRIALS,
                      seed=seed, parallel=ParallelConfig(workers=workers))


class Target:
    """The program under test: a session, plus a server for serve."""

    def __init__(self, session: GolaSession,
                 server: Optional[GolaServer] = None):
        self.session = session
        self.server = server

    @property
    def metrics(self) -> MetricsRegistry:
        if self.server is not None:
            return self.server.scheduler.tracer.metrics
        return self.session.tracer.metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server = None


def set_up(workload: str, inputs: Dict[str, object], seed: int,
           workdir: str) -> Target:
    """Everything the program does before its first query.

    In-memory workloads load their CSV inputs; the taxi facts are
    converted to colstore partitions under ``workdir`` and registered
    memory-mapped with pruning on (the storage defaults).  Engine
    sessions carry a metrics-only tracer so the supervisor's existing
    ``parallel.task_timeouts`` counter is recorded (span tracing stays
    off).
    """
    config = make_config(workload, seed)
    if workload == "serve-closed":
        session = GolaSession(config)
    else:
        session = GolaSession(
            config, tracer=Tracer(metrics=MetricsRegistry(enabled=True))
        )
    if workload == "taxi-colstore":
        for fact in ("trips", "surcharges"):
            path = os.path.join(workdir, fact)
            colstore.convert_table(
                inputs[fact], path, num_batches=config.num_batches,
                seed=config.seed, shuffle=config.shuffle,
            )
            session.register_colstore(fact, path)
        session.register_table("zones", inputs["zones"], streamed=False)
        session.register_table("vendors", inputs["vendors"],
                               streamed=False)
        return Target(session)
    for name, path in inputs.items():
        session.load_csv(name, path)
    if workload != "serve-closed":
        return Target(session)
    scheduler = QueryScheduler(session, ServeConfig(port=0))
    server = GolaServer(scheduler, host="127.0.0.1", port=0).start()
    return Target(session, server)


def timed_setups(workload: str, inputs, seed: int, workdir: str,
                 reps: int) -> Tuple[Target, List[float]]:
    """Set up ``reps`` times; keep the last target, close the others."""
    times: List[float] = []
    target = None
    for rep in range(reps):
        if target is not None:
            target.close()
        rep_dir = os.path.join(workdir, f"setup{rep}")
        t0 = _clock()
        target = set_up(workload, inputs, seed, rep_dir)
        times.append(_clock() - t0)
    return target, times


def reference_answers(session: GolaSession, mix) -> Dict[str, object]:
    """The exact answer of every query in the mix (batch engine)."""
    return {q.name: session.execute_batch(q.sql) for q in mix}


@dataclass
class Draw:
    """One data draw, set up: the program, its table sizes and the exact
    answer of every query in the mix."""

    target: Target
    table_rows: Dict[str, int]
    expected: Dict[str, object] = field(default_factory=dict)

    def rows(self, query: MixQuery) -> int:
        """Streamed rows a query folds when it runs to its last batch."""
        return sum(self.table_rows[t] for t in query.streamed)


def set_up_draws(workload: str, seed: int, workdir: str, mix,
                 draws: List[Draw], recorder: Optional[Recorder] = None
                 ) -> List[float]:
    """Generate, set up and answer every data draw of a run.

    Appends each :class:`Draw` to ``draws`` as soon as it is set up (so
    the caller can close them on any path out) and returns the set-up
    times.  With a ``recorder`` the set-ups (not the input generation or
    the reference answers) run with the wrappers installed.
    """
    count = DATA_DRAWS[workload]
    times: List[float] = []
    for i in range(count):
        draw_seed = seed * count + i
        draw_dir = os.path.join(workdir, f"draw{i}")
        os.makedirs(draw_dir)
        inputs = make_inputs(workload, draw_seed, draw_dir)
        if recorder is not None:
            with Instrumentation(recorder):
                target, reps = timed_setups(workload, inputs, draw_seed,
                                            draw_dir, SETUP_REPS[workload])
        else:
            target, reps = timed_setups(workload, inputs, draw_seed,
                                        draw_dir, SETUP_REPS[workload])
        times.extend(reps)
        catalog = target.session.catalog
        draws.append(Draw(
            target, {name: catalog.get(name).num_rows for name in catalog}))
        draws[-1].expected.update(reference_answers(target.session, mix))
    return times


def check_answer(expected, snapshot, num_batches: int,
                 sampled: Sequence[str] = (),
                 divergence: Optional[Dict[str, float]] = None
                 ) -> Optional[str]:
    """None when a final snapshot equals the exact answer, else why not.

    ``sampled`` columns are left out of the comparison; their largest
    relative difference from the batch engine's (also sampled) value
    is recorded in ``divergence``.
    """
    if snapshot is None:
        return "no snapshot"
    if snapshot.batch_index != num_batches or snapshot.degraded:
        return (f"ended at batch {snapshot.batch_index}/{num_batches}"
                f"{' (degraded)' if snapshot.degraded else ''}")
    actual = snapshot.table
    if sampled:
        if (divergence is not None
                and actual.num_rows == expected.num_rows):
            for col in sampled:
                e = expected.column(col).astype(np.float64)
                a = actual.column(col).astype(np.float64)
                rel = float(np.max(np.abs(a - e) / np.maximum(
                    np.abs(e), 1e-12), initial=0.0))
                divergence[col] = max(divergence.get(col, 0.0), rel)
        expected, actual = expected.drop(sampled), actual.drop(sampled)
    problems = compare_tables(expected, actual)
    if problems:
        return "wrong answer: " + "; ".join(problems[:2])
    return None


# ----------------------------------------------------------------------
# Engine workloads: closed loop, one client
# ----------------------------------------------------------------------


@dataclass
class QueryRecord:
    """One query's client-observed timings and outcome."""

    name: str
    first_s: Optional[float] = None
    gaps: List[float] = field(default_factory=list)
    total_s: Optional[float] = None
    wall_s: float = 0.0
    rows: int = 0
    failure: Optional[str] = None


def run_engine_query(session: GolaSession, query: MixQuery, expected,
                     rows: int, divergence: Dict[str, float]
                     ) -> QueryRecord:
    """Run one query to its final snapshot, timing every snapshot."""
    record = QueryRecord(query.name)
    timeouts = session.tracer.metrics.counter("parallel.task_timeouts")
    before = timeouts.value
    t0 = _clock()
    last = None
    try:
        times = []
        for snapshot in session.sql(query.sql).run_online():
            times.append(_clock())
            last = snapshot
    except Exception as exc:  # a failed query is counted, not fatal
        record.failure = f"{type(exc).__name__}: {exc}"
        record.wall_s = _clock() - t0
        return record
    record.wall_s = _clock() - t0
    if times:
        record.first_s = times[0] - t0
        record.total_s = times[-1] - t0
        record.gaps = [b - a for a, b in zip(times, times[1:])]
    if timeouts.value > before:
        record.failure = (f"{timeouts.value - before} supervisor task "
                          "timeout(s)")
        return record
    record.failure = check_answer(
        expected, last, session.config.num_batches, query.sampled,
        divergence.setdefault(query.name, {}) if query.sampled else None,
    )
    if record.failure is None:
        record.rows = rows
    return record


def engine_window(draws: List[Draw], mix, seconds: float,
                  rng: random.Random, recorder: Optional[Recorder] = None
                  ) -> Tuple[List[QueryRecord], float, dict]:
    """The measured closed loop.

    Queries run in whole passes over every (query, draw) pair, each
    pass in a fresh seeded order, for about ``seconds``; whole passes
    keep every query and every draw equally represented.  Untraced,
    each pair runs once per pass.
    With a ``recorder``, queries run in pairs of the same query, one
    untraced and one inside a root span with the wrappers installed
    (alternating which goes first), so tracing overhead is measured on
    matched work; only the traced half feeds the per-layer metrics.
    """
    jobs = [(query, index) for index in range(len(draws)) for query in mix]
    records: List[QueryRecord] = []
    divergence: Dict[str, Dict[str, float]] = {}
    draw_peaks = [0.0] * len(draws)
    rss_reset = True
    traced_wall = untraced_wall = 0.0
    traced_queries = 0
    instrumentation = Instrumentation(recorder) if recorder else None
    # Warm-up, untimed and untraced: every query once on the first draw,
    # so lazy imports and first calls stay out of the window.
    warmup = [run_engine_query(draws[0].target.session, query,
                               draws[0].expected[query.name],
                               draws[0].rows(query), divergence)
              for query in mix]
    start = _clock()
    passes = 0
    pair = 0
    # Start another pass while it is expected to end no more than half
    # a pass after ``seconds``, so windows centre on the run length.
    while passes == 0 or (
            _clock() - start) * (1.0 + 0.5 / passes) < seconds:
        passes += 1
        order = list(jobs)
        rng.shuffle(order)
        for query, index in order:
            draw = draws[index]
            args = (draw.target.session, query, draw.expected[query.name],
                    draw.rows(query), divergence)
            # Each draw's peak RSS is the highest seen while its own
            # queries ran (outside their timed spans).
            rss_reset &= reset_peak_rss()
            if instrumentation is None:
                records.append(run_engine_query(*args))
            else:
                for traced in ((False, True) if pair % 2 == 0
                               else (True, False)):
                    if traced:
                        with instrumentation, recorder.root(
                                "query", len(records)):
                            record = run_engine_query(*args)
                        traced_wall += record.wall_s
                        traced_queries += 1
                    else:
                        record = run_engine_query(*args)
                        untraced_wall += record.wall_s
                    records.append(record)
                pair += 1
            draw_peaks[index] = max(draw_peaks[index], peak_rss_mb())
    elapsed = _clock() - start
    info = {
        "traced_queries": traced_queries,
        "overhead_frac": (traced_wall / untraced_wall - 1.0
                          if untraced_wall > 0 else 0.0),
        "sampled_divergence": divergence,
        "draw_peak_rss_mb": draw_peaks,
        "rss_reset": rss_reset,
        "warmup": warmup,
    }
    return records, elapsed, info


# ----------------------------------------------------------------------
# serve-closed: two closed-loop clients over HTTP
# ----------------------------------------------------------------------


@dataclass
class Submission:
    """One query a client sent and what it saw of it."""

    index: int
    name: str
    sent: float = 0.0
    answered: float = 0.0
    qid: Optional[str] = None
    t_s: List[float] = field(default_factory=list)
    state: Optional[str] = None
    failure: Optional[str] = None


def query_sequence(rng: random.Random, mix):
    """Endless ``(query, target_rsd)`` pairs: the mix dealt in shuffled
    blocks, so every kind is sent equally often, each with a target
    drawn from :data:`SERVE_TARGET_RSD`."""
    while True:
        block = list(mix)
        rng.shuffle(block)
        for query in block:
            yield query, rng.uniform(*SERVE_TARGET_RSD)


def _post_query(url: str, sql: str, target_rsd: float) -> str:
    body = json.dumps({"sql": sql, "target_rsd": target_rsd})
    request = urllib.request.Request(
        url + "/query", data=body.encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())["id"]


def _telemetry(url: str, qid: str):
    """A query's telemetry NDJSON records (replayed, then live)."""
    with urllib.request.urlopen(f"{url}/queries/{qid}/telemetry",
                                timeout=120) as response:
        for line in response:
            if line.strip():
                yield json.loads(line)


def serve_window(target: Target, mix, table_rows: Dict[str, int],
                 expected, seconds: float,
                 recorder: Optional[Recorder] = None) -> dict:
    """Two closed-loop clients for ``seconds``; the raw observations.

    Each client thread sends its next query (blocking POST), follows the
    query's telemetry stream until the server closes it, and only then
    sends the next, so two queries are in flight nearly all the time.
    Per-snapshot times come from the server's telemetry (``t_s``,
    seconds since the server accepted the query) plus the measured gap
    between sending the POST and that acceptance; the server runs in
    this process, so both read one monotonic clock.  Delivery lag is
    the client's receipt of a telemetry record minus its ``t_s``.

    The query order and targets are one fixed sequence
    (:data:`SERVE_TRACE_SEED`); only the tables follow ``--seed``.  With
    a ``recorder`` the wrappers are installed halfway through the
    window; per-layer metrics come from the second half, and the first
    half's mean scheduler step time is the untraced baseline.
    """
    server = target.server
    scheduler = server.scheduler
    url = server.url
    clock = time.monotonic
    sequence = query_sequence(random.Random(SERVE_TRACE_SEED), mix)
    lock = threading.Lock()
    subs: List[Submission] = []
    lags: List[float] = []
    step_hist = scheduler.tracer.metrics.histogram("serve.step_seconds")
    start = clock()
    deadline = start + seconds

    def client() -> None:
        while clock() < deadline:
            with lock:
                query, target_rsd = next(sequence)
                sub = Submission(len(subs), query.name)
                subs.append(sub)
            sub.sent = clock()
            try:
                sub.qid = _post_query(url, query.sql, target_rsd)
                sub.answered = clock()
                created = scheduler.telemetry.get(sub.qid).created_at
                for record in _telemetry(url, sub.qid):
                    if record.get("type") == "convergence":
                        sub.t_s.append(record["t_s"])
                        lags.append(clock() - created - record["t_s"])
                    elif record.get("type") == "summary":
                        sub.state = record["state"]
            except (urllib.error.URLError, OSError, ValueError) as exc:
                sub.failure = f"{type(exc).__name__}: {exc}"

    threads = [threading.Thread(target=client, name=f"perfbench-c{i}")
               for i in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    instrumentation = Instrumentation(recorder) if recorder else None
    half = start + seconds / 2.0
    untraced_steps = None
    concurrency: List[int] = []
    depth_max = 0
    # Stats sampling feeds per-layer metrics only; untraced runs leave
    # the process's interpreter lock to the server and the clients.
    while instrumentation is not None and clock() < deadline:
        if untraced_steps is None and clock() >= half:
            untraced_steps = (step_hist.count, step_hist.total)
            instrumentation.install()
        stats = scheduler.stats()
        concurrency.append(stats["running"])
        depth_max = max(depth_max, stats["queued"])
        time.sleep(0.01)
    for thread in threads:
        thread.join(150.0)
    all_done = scheduler.wait(timeout=120.0)
    if instrumentation is not None:
        instrumentation.remove()
    end = clock()

    # Outcomes: terminal state, and the final answer where the query
    # folded every batch.
    outcomes = []
    for sub in subs:
        outcome = {"sub": sub, "t_s": sub.t_s, "rows": 0}
        if sub.qid is not None:
            run = scheduler.get(sub.qid)
            outcome["accept_gap"] = (
                scheduler.telemetry.get(sub.qid).created_at - sub.sent)
            outcome["admit_wait"] = (
                (run.started_at - run.submitted_at)
                if run.started_at is not None else None
            )
            if sub.failure is not None:
                pass
            elif sub.state != "done":
                sub.failure = (f"ended {sub.state}"
                               + (f": {run.error}" if run.error else ""))
            elif run.batches_done == run.config.num_batches:
                sub.failure = check_answer(
                    expected[sub.name], run.last_snapshot,
                    run.config.num_batches,
                )
            streamed = next(q.streamed for q in mix if q.name == sub.name)
            outcome["rows"] = int(round(
                sum(table_rows[t] for t in streamed)
                * run.batches_done / run.config.num_batches
            ))
        outcomes.append(outcome)
    traced_steps = untraced = None
    if untraced_steps is not None:
        traced_steps = (step_hist.count - untraced_steps[0],
                        step_hist.total - untraced_steps[1])
        untraced = untraced_steps
    cache = scheduler.scan_cache
    return {
        "outcomes": outcomes,
        "elapsed": end - start,
        "all_done": all_done,
        "submit_rtt": [s.answered - s.sent for s in subs if s.qid],
        "lags": lags,
        "concurrency": concurrency,
        "queue_depth_max": depth_max,
        "half": half,
        "traced_steps": traced_steps,
        "untraced_steps": untraced,
        "cache": (cache.hits, cache.misses) if cache is not None
        else (0, 0),
    }


# ----------------------------------------------------------------------
# Metric assembly
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reset_peak_rss() -> bool:
    """Restart this process's peak RSS from its current RSS.

    Linux resets the high-water mark that ``getrusage`` reports when
    ``5`` is written to the process's own ``clear_refs``.  Returns False
    where that is refused; the peak then counts from the process start.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def latency_metrics(workload: str, first: List[float], gaps: List[float],
                    totals: List[float]) -> Dict[str, float]:
    tails = TAILS[workload]
    out = {}
    for metric, values in (("first_answer_s", first), ("refresh_s", gaps),
                           ("query_s", totals)):
        if not values:
            raise RuntimeError(f"no {metric} samples in the run")
        out[f"{metric}.p50"] = float(statistics.median(values))
        out[f"{metric}.tail"] = percentile(values, tails[metric])
    return out


def engine_end_to_end(workload: str, records: List[QueryRecord],
                      elapsed: float) -> Dict[str, float]:
    ok = [r for r in records if r.failure is None]
    out = latency_metrics(
        workload, [r.first_s for r in ok],
        [g for r in ok for g in r.gaps], [r.total_s for r in ok],
    )
    out["rows_per_s"] = sum(r.rows for r in ok) / elapsed
    limit = SLO_FIRST_ANSWER_S[workload]
    out["slo_met_frac"] = (
        sum(1 for r in ok if r.first_s <= limit) / len(records)
    )
    return out


def serve_end_to_end(observed: dict) -> Dict[str, float]:
    first, gaps, totals = [], [], []
    met = rows = 0
    limit = SLO_FIRST_ANSWER_S["serve-closed"]
    for outcome in observed["outcomes"]:
        sub = outcome["sub"]
        if sub.failure is not None or not outcome["t_s"]:
            continue
        stamps = [outcome["accept_gap"] + t for t in outcome["t_s"]]
        first.append(stamps[0])
        totals.append(stamps[-1])
        gaps.extend(b - a for a, b in zip(stamps, stamps[1:]))
        met += stamps[0] <= limit
        rows += outcome["rows"]
    out = latency_metrics("serve-closed", first, gaps, totals)
    out["rows_per_s"] = rows / observed["elapsed"]
    out["slo_met_frac"] = met / max(1, len(observed["outcomes"]))
    return out


def per_layer(recorder: Recorder, queries: int,
              extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from the traced spans and counters.

    Seconds and counts are per traced query, except
    ``colstore.convert_s`` (per set-up); fractions are ratios of the
    underlying totals.
    """
    n = max(1, queries)
    self_s = recorder.layer_self_seconds()
    counts = recorder.counts

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    out = {}
    for span, metric in (
        ("sql.parse", "sql.parse_s"), ("plan.bind", "plan.bind_s"),
        ("core.compile", "core.compile_s"),
        ("core.static", "core.static_s"), ("core.begin", "core.begin_s"),
        ("core.step_self", "core.step_self_s"),
        ("storage.partition", "storage.partition_s"),
        ("colstore.decode", "colstore.decode_s"),
        ("colstore.prune", "colstore.prune_s"),
        ("weights.draw", "weights.draw_s"), ("classify", "classify_s"),
        ("delta.fold", "delta.fold_s"), ("delta.guard", "delta.guard_s"),
        ("delta.publish", "delta.publish_s"),
        ("delta.snapshot", "delta.snapshot_s"),
        ("agg.update", "agg.update_s"), ("agg.distinct", "agg.distinct_s"),
        ("agg.quantile", "agg.quantile_s"), ("intervals", "intervals_s"),
        ("parallel.pool_start", "parallel.pool_start_s"),
        ("parallel.fold_dispatch", "parallel.fold_dispatch_s"),
        ("parallel.drain_wait", "parallel.drain_wait_s"),
        ("parallel.block_wait", "parallel.block_wait_s"),
        ("parallel.pool_stop", "parallel.pool_stop_s"),
    ):
        out[metric] = self_s.get(span, 0.0) / n
    out["colstore.convert_s"] = 0.0  # filled in from the set-up spans
    out["colstore.bytes_decoded"] = counts["colstore.bytes_decoded"] / n
    out["colstore.chunks_pruned_frac"] = ratio("colstore.chunks_pruned",
                                               "colstore.chunks_seen")
    out["colstore.chunks_tri_decided_frac"] = ratio(
        "colstore.chunks_decided", "colstore.chunks_considered")
    out["weights.columns_drawn"] = counts["weights.columns_drawn"] / n
    out["weights.draws_per_column"] = (
        counts["weights.columns_drawn"] / (counts["batches"] * TRIALS)
        if counts["batches"] else 0.0
    )
    out["weights.dense_rows"] = counts["weights.dense_rows"] / n
    out["weights.dense_useful_frac"] = ratio("classify.unknown",
                                             "weights.dense_rows")
    out["classify.rows"] = counts["classify.rows"] / n
    out["classify.unknown_frac"] = ratio("classify.unknown",
                                         "classify.rows")
    out["delta.uncertain_rows.max"] = recorder.maxima[
        "delta.uncertain_rows.max"]
    out["delta.rebuilds"] = counts["delta.rebuilds"] / n
    roots = recorder.reconcile()
    wall = sum(r["wall"] for r in roots)
    out["unattributed_frac"] = (
        sum(r["unattributed"] for r in roots) / wall if wall else 0.0
    )
    out.update(extra)
    return out


def provenance(root: str, seed: int) -> dict:
    """Seed, usable cores, interpreter/numpy versions and git commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "seed": seed,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "commit": commit,
    }


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: str) -> dict:
    """Set up, measure and check one workload; returns the result dict.

    The result holds ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end untraced, per-layer traced) plus a
    ``detail`` section with provenance, sample counts and failures.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    workdir = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    rng = random.Random(seed)
    mix = mix_for(workload)
    recorder = Recorder() if trace else None
    draws: List[Draw] = []
    try:
        if recorder is not None and workload == "taxi-colstore":
            setup_times = set_up_draws(workload, seed, workdir, mix, draws,
                                       recorder)
            convert_s = recorder.layer_self_seconds().get(
                "colstore.convert", 0.0)
            recorder = Recorder()  # set-up spans stay out of the queries
        else:
            setup_times = set_up_draws(workload, seed, workdir, mix, draws)
            convert_s = 0.0
        if workload == "serve-closed":
            result = _finish_serve(workload, draws[0], mix, seconds,
                                   recorder)
        else:
            result = _finish_engine(workload, draws, mix, seconds, rng,
                                    recorder)
        metrics = result["metrics"]
        if trace:
            metrics["colstore.convert_s"] = convert_s / len(setup_times)
        else:
            metrics["setup_s"] = float(statistics.median(setup_times))
        result["detail"]["data_draws"] = len(draws)
        result["detail"]["setup_reps"] = len(setup_times)
        result["detail"]["provenance"] = provenance(root, seed)
        return result
    finally:
        for draw in draws:
            draw.target.close()
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)


def _outcome(workload: str, failures: List[str], attempted: int,
             metrics: dict, detail: dict) -> dict:
    detail.update({
        "workload": workload,
        "failed_frac": len(failures) / max(1, attempted),
        "failures": failures[:10],
    })
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": detail,
    }


def _finish_engine(workload, draws, mix, seconds, rng, recorder) -> dict:
    records, elapsed, info = engine_window(draws, mix, seconds, rng,
                                           recorder)
    failures = [f"{r.name}: {r.failure}"
                for r in info["warmup"] + records if r.failure is not None]
    detail = {"queries": len(records), "window_s": elapsed,
              "sampled_divergence": info["sampled_divergence"]}
    if recorder is None:
        metrics = engine_end_to_end(workload, records, elapsed)
        # One draw's data can drive one query's memory far above the
        # others' (T7's uncertain set on some taxi draws), so the run
        # reports its median draw.
        metrics["peak_rss_mb"] = float(
            statistics.median(info["draw_peak_rss_mb"]))
        detail["draw_peak_rss_mb"] = info["draw_peak_rss_mb"]
        detail["peak_rss_reset"] = info["rss_reset"]
        detail["samples"] = {
            "first_answer_s": sum(r.failure is None for r in records),
            "refresh_s": sum(len(r.gaps) for r in records
                             if r.failure is None),
            "query_s": sum(r.failure is None for r in records),
        }
        detail["tail_percentiles"] = TAILS[workload]
    else:
        timeouts = sum(
            d.target.metrics.counter("parallel.task_timeouts").value
            for d in draws)
        metrics = per_layer(recorder, info["traced_queries"], {
            "serve.scan_cache.hit_frac": 0.0,
            "serve.submit_s": 0.0,
            "serve.admit_wait_s": 0.0,
            "serve.concurrency.mean": 0.0,
            "serve.queue_depth.max": 0.0,
            "serve.deliver_lag_s": 0.0,
            "parallel.task_timeouts": float(timeouts),
            "trace.overhead_frac": info["overhead_frac"],
        })
        detail["traced_queries"] = info["traced_queries"]
    return _outcome(workload, failures, len(info["warmup"]) + len(records),
                    metrics, detail)


def _finish_serve(workload, draw, mix, seconds, recorder) -> dict:
    target = draw.target
    observed = serve_window(target, mix, draw.table_rows, draw.expected,
                            seconds, recorder)
    outcomes = observed["outcomes"]
    failures = [f"{o['sub'].name}#{o['sub'].index}: {o['sub'].failure}"
                for o in outcomes if o["sub"].failure is not None]
    if not observed["all_done"]:
        failures.append("queries still running 120 s after the window")
    detail = {
        "queries": len(outcomes),
        "window_s": observed["elapsed"],
        "clients": SERVE_CLIENTS,
    }
    if recorder is None:
        metrics = serve_end_to_end(observed)
        metrics["peak_rss_mb"] = peak_rss_mb()
        detail["samples"] = {
            "first_answer_s": sum(1 for o in outcomes
                                  if o["sub"].failure is None),
            "refresh_s": sum(max(0, len(o["t_s"]) - 1) for o in outcomes
                             if o["sub"].failure is None),
        }
        detail["tail_percentiles"] = TAILS[workload]
        return _outcome(workload, failures, len(outcomes), metrics, detail)
    traced = [o for o in outcomes if o["sub"].sent >= observed["half"]]
    hits, misses = observed["cache"]
    steps, untraced = observed["traced_steps"], observed["untraced_steps"]
    overhead = 0.0
    if steps and untraced and steps[0] and untraced[0]:
        overhead = (steps[1] / steps[0]) / (untraced[1] / untraced[0]) - 1
    waits = [o["admit_wait"] for o in traced
             if o.get("admit_wait") is not None]
    timeouts = target.metrics.counter("parallel.task_timeouts").value
    metrics = per_layer(recorder, len(traced), {
        "serve.scan_cache.hit_frac": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.submit_s": float(statistics.mean(observed["submit_rtt"])),
        "serve.admit_wait_s": float(statistics.mean(waits))
        if waits else 0.0,
        "serve.concurrency.mean": float(statistics.mean(
            observed["concurrency"])) if observed["concurrency"] else 0.0,
        "serve.queue_depth.max": float(observed["queue_depth_max"]),
        "serve.deliver_lag_s": float(statistics.mean(observed["lags"]))
        if observed["lags"] else 0.0,
        "parallel.task_timeouts": float(timeouts),
        "trace.overhead_frac": overhead,
    })
    detail["traced_queries"] = len(traced)
    return _outcome(workload, failures, len(outcomes), metrics, detail)
