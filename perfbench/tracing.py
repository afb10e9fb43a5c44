"""Outside-in span recording for the benchmark's traced runs.

Nothing under ``src/`` is changed: :class:`Instrumentation` replaces
selected public functions and methods of the ``repro`` package with
thin wrappers for the duration of a traced query, and puts the
originals back afterwards.  Each wrapper records one span (name, start,
end, parent span, query id) into a :class:`Recorder`, which keeps every
span in memory until the run ends.

A span's *self time* is its duration minus the durations of its child
spans.  Children always run on the parent's thread (the recorder keeps a
per-thread stack), so they are sequential and nested, and the self times
of a root span's subtree add up to the root's duration exactly.  The
root's own self time is the part of the query no layer covered: the
*unattributed* time.

Work that a layer hands to another thread (block fan-out threads, the
supervisor's dispatch thread) is recorded as detached spans in that
thread.  They count towards their layer's busy time but not towards any
root's reconciliation, because they overlap the coordinator's wait.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

_clock = time.perf_counter

#: Span record fields (a list per span keeps appends cheap).
NAME, START, END, PARENT, QID, ROOT = range(6)

#: Tri-state code of an undecided row (``repro.core.uncertain``).
_TRI_UNKNOWN = 1


class Recorder:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread state ------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.qid = None
        return stack

    def current_qid(self) -> Optional[object]:
        self._stack()
        return self._local.qid

    def current_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return self.spans[stack[-1]][NAME] if stack else None

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, root: bool = False,
              qid: Optional[object] = None) -> int:
        stack = self._stack()
        if qid is None:
            qid = self._local.qid
        span = [name, _clock(), 0.0, stack[-1] if stack else None, qid,
                root]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = _clock()
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()
        elif idx in stack:  # an exception unwound past inner spans
            del stack[stack.index(idx):]

    @contextmanager
    def root(self, name: str, qid: object):
        """A root span: the unit whose wall time the layers reconcile."""
        self._stack()
        previous = self._local.qid
        self._local.qid = qid
        idx = self.begin(name, root=True, qid=qid)
        try:
            yield idx
        finally:
            self.end(idx)
            self._local.qid = previous

    @contextmanager
    def adopt_qid(self, qid: object):
        """Tag spans opened on this thread with ``qid``."""
        self._stack()
        previous = self._local.qid
        self._local.qid = qid
        try:
            yield
        finally:
            self._local.qid = previous

    # -- counters --------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    # -- analysis --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span duration minus its children's durations."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_self_seconds(self) -> Dict[str, float]:
        """Total self time per non-root span name (all threads)."""
        totals: Dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            if not span[ROOT]:
                totals[span[NAME]] += own
        return dict(totals)

    def reconcile(self) -> List[dict]:
        """Per root: wall, unattributed (root self) and layer self sum.

        ``layers + unattributed == wall`` holds up to float rounding for
        every root; the benchmark's tests check it.
        """
        own = self.self_times()
        subtree = [0.0] * len(self.spans)
        # Children are appended after their parents, so one reverse pass
        # accumulates each subtree's self time into its parent.
        for idx in range(len(self.spans) - 1, -1, -1):
            subtree[idx] += own[idx]
            parent = self.spans[idx][PARENT]
            if parent is not None:
                subtree[parent] += subtree[idx]
        out = []
        for idx, span in enumerate(self.spans):
            if span[ROOT]:
                out.append({
                    "qid": span[QID],
                    "wall": span[END] - span[START],
                    "unattributed": own[idx],
                    "layers": subtree[idx] - own[idx],
                })
        return out


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------


def _span_wrapper(fn: Callable, recorder: Recorder, name,
                  before: Optional[Callable] = None,
                  after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span; ``name`` is a string or ``f(args) -> str``.

    ``before(args)`` runs ahead of the call and its result is handed to
    ``after(recorder, args, result, token)``, which runs once the span
    has closed so counting is never billed to the layer.
    """
    pick = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        idx = recorder.begin(pick(args) if pick is not None else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(idx)
        if after is not None:
            after(recorder, args, result, token)
        return result

    return wrapper


def _root_wrapper(fn: Callable, recorder: Recorder, name: str,
                  qid_of: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.root(name, qid_of(args)):
            return fn(*args, **kwargs)

    return wrapper


# -- counting hooks ------------------------------------------------------


def _after_step(recorder, args, snapshot, token):
    if snapshot is None:
        return
    recorder.count("batches")
    sizes = snapshot.uncertain_sizes
    if sizes:
        recorder.maximum("delta.uncertain_rows.max", max(sizes.values()))
    recorder.count("delta.rebuilds", len(snapshot.rebuilds))


def _after_draw(recorder, args, result, token):
    recorder.count("weights.columns_drawn")


def _before_dense(args):
    return args[0]._dense is None


def _after_dense(recorder, args, result, was_lazy):
    if was_lazy:
        recorder.count("weights.dense_rows", args[0].num_rows)


def _after_pruned(recorder, args, result, token):
    zones = args[3] if len(args) > 3 else None
    recorder.count("colstore.chunks_pruned", int(result[1]))
    if zones is not None:
        recorder.count("colstore.chunks_seen", int(zones.num_chunks))


def _after_decisions(recorder, args, result, token):
    if result is None:
        return
    recorder.count("colstore.chunks_decided",
                   int((result != _TRI_UNKNOWN).sum()))
    recorder.count("colstore.chunks_considered", int(len(result)))


def _after_decode(recorder, args, table, token):
    recorder.count("colstore.bytes_decoded", sum(
        int(table.column(name).nbytes) for name in table.schema.names
    ))


def _agg_layer(args) -> str:
    kind = type(args[0]).__name__
    if kind == "DistinctState":
        return "agg.distinct"
    if kind == "QuantileState":
        return "agg.quantile"
    return "agg.update"


class Instrumentation:
    """Installs and removes the layer wrappers around one recorder.

    Module-level functions are replaced in every loaded ``repro``
    module that bound them by name (``from .classify import tri_eval``
    copies the reference), so internal callers see the wrapper too.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: List[tuple] = []

    # -- patch primitives --------------------------------------------------

    def _patch_function(self, module, attr: str, name, **hooks) -> None:
        original = getattr(module, attr)
        wrapper = _span_wrapper(original, self.recorder, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_method(self, cls, attr: str, name, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr,
                _span_wrapper(original, self.recorder, name, **hooks))
        self._undo.append((cls, attr, original))

    def _patch_root(self, cls, attr: str, name: str, qid_of) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr,
                _root_wrapper(original, self.recorder, name, qid_of))
        self._undo.append((cls, attr, original))

    # -- the layer map -----------------------------------------------------

    def install(self) -> "Instrumentation":
        if self._undo:
            return self
        from concurrent.futures import process as cf_process

        # Submodules by path: ``repro.core.classify`` is shadowed on
        # its package by the ``classify`` function it exports.
        (classify, controller, delta, meta_plan, aggregates, executor,
         bootstrap, intervals, pexec, pool, binder, rewrite, scheduler,
         parser, partition, dataset, prune) = (
            importlib.import_module("repro." + name) for name in (
                "core.classify", "core.controller", "core.delta",
                "core.meta_plan", "engine.aggregates", "engine.executor",
                "estimate.bootstrap", "estimate.intervals",
                "parallel.executor", "parallel.pool", "plan.binder",
                "plan.rewrite", "serve.scheduler", "sql.parser",
                "storage.partition", "storage.colstore.dataset",
                "storage.colstore.prune",
            )
        )

        rec = self.recorder
        fn, meth = self._patch_function, self._patch_method

        fn(parser, "parse_sql", "sql.parse")
        meth(binder.Binder, "bind", "plan.bind")
        fn(rewrite, "rewrite_query", "plan.bind")
        fn(meta_plan, "compile_meta_plan", "core.compile")
        meth(executor.BatchExecutor, "run_plan", "core.static")
        meth(controller.QueryController, "begin", "core.begin")
        meth(controller.QueryController, "step", "core.step_self",
             after=_after_step)
        meth(partition.MiniBatchPartitioner, "partition",
             "storage.partition")
        meth(dataset.ColstoreDataset, "batch", "colstore.decode",
             after=_after_decode)
        fn(prune, "pruned_filter_mask", "colstore.prune",
           after=_after_pruned)
        fn(prune, "chunk_decisions", "colstore.prune",
           after=_after_decisions)
        fn(dataset, "convert_table", "colstore.convert")
        fn(bootstrap, "poisson_trial_column", "weights.draw",
           after=_after_draw)
        meth(bootstrap.BatchWeights, "dense", "weights.draw",
             before=_before_dense, after=_after_dense)

        def after_tri(recorder, args, result, top_level):
            if top_level:
                recorder.count("classify.rows", len(result))
                recorder.count("classify.unknown",
                               int((result == _TRI_UNKNOWN).sum()))

        fn(classify, "tri_eval", "classify",
           before=lambda args: rec.current_name() != "classify",
           after=after_tri)
        fn(classify, "interval_eval", "classify")
        meth(delta.BlockRuntime, "process_batch", "delta.fold")
        meth(delta.BlockRuntime, "guard_violation", "delta.guard")
        meth(delta.BlockRuntime, "publish", "delta.publish")
        meth(delta.BlockRuntime, "snapshot_output", "delta.snapshot")
        for attr in ("update", "merge", "merge_columns"):
            meth(aggregates.AggState, attr, _agg_layer)
        fn(intervals, "basic_intervals", "intervals")
        fn(intervals, "relative_stdevs", "intervals")
        meth(pexec.ParallelExecutor, "fold_boot_states",
             "parallel.fold_dispatch")
        meth(pexec.ParallelExecutor, "drain", "parallel.drain_wait")
        meth(pexec.ParallelExecutor, "close", "parallel.pool_stop")
        self._patch_fanout(pexec.ParallelExecutor)
        meth(pool.WorkerPool, "_ensure_executor", "parallel.pool_start")
        # Process-pool workers are forked on the first submit, inside
        # this (private, but stable since Python 3.9) stdlib method.
        if "_start_executor_manager_thread" in vars(
                cf_process.ProcessPoolExecutor):
            meth(cf_process.ProcessPoolExecutor,
                 "_start_executor_manager_thread", "parallel.pool_start")
        # The serving scheduler thread interleaves many queries; each
        # scheduling turn (and each admission pass) is its own root.
        self._patch_root(scheduler.QueryScheduler, "_visit", "serve.turn",
                         lambda args: args[1].id)
        self._patch_root(scheduler.QueryScheduler, "_promote_locked",
                         "serve.admit", lambda args: None)
        self._patch_root(scheduler.QueryScheduler, "submit",
                         "serve.submit", lambda args: None)
        return self

    def _patch_fanout(self, cls) -> None:
        """Block fan-out: time the coordinator's wait, and tag the
        thunks' spans (on pool threads) with the caller's query id."""
        rec = self.recorder
        original = cls.__dict__["map_block_tasks"]

        @functools.wraps(original)
        def wrapper(executor, thunks):
            qid = rec.current_qid()

            def tagged(thunk):
                def run():
                    with rec.adopt_qid(qid):
                        return thunk()
                return run

            idx = rec.begin("parallel.block_wait")
            try:
                return original(executor, [tagged(t) for t in thunks])
            finally:
                rec.end(idx)

        setattr(cls, "map_block_tasks", wrapper)
        self._undo.append((cls, "map_block_tasks", original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()
