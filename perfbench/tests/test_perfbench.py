"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

They check that the correctness gate can fail, that the layer wrappers
leave every snapshot stream bit-identical, that traced layer times
reconcile with wall time, and that the command's output matches
``BENCHMARK.json``.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from repro.faults.chaos import snapshot_fingerprint  # noqa: E402
from repro.serve import QueryScheduler  # noqa: E402
from repro.config import ServeConfig  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.tracing import Instrumentation, Recorder  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _load(name):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def _target(workload, tmp_path, seed=5):
    inputs = harness.make_inputs(workload, seed, str(tmp_path))
    return harness.set_up(workload, inputs, seed, str(tmp_path))


# -- the correctness gate ------------------------------------------------


class TestCorrectnessCheck:
    def test_exact_answer_passes_and_perturbed_answer_fails(self, tmp_path):
        target = _target("nested-mem", tmp_path)
        session = target.session
        query = session.sql(harness.NESTED_MIX[2].sql)  # C3
        final = query.run_to_completion()
        expected = session.execute_batch(query)
        k = session.config.num_batches
        assert harness.check_answer(expected, final, k) is None

        name = expected.schema.names[0]
        perturbed = expected.with_column(
            name, expected.column(name).astype(np.float64) * 1.001
        )
        failure = harness.check_answer(perturbed, final, k)
        assert failure is not None and "wrong answer" in failure

    def test_sampled_columns_are_reported_not_compared(self, tmp_path):
        target = _target("taxi-colstore", tmp_path)
        session = target.session
        t5 = next(q for q in harness.TAXI_MIX if q.name == "T5")
        final = session.sql(t5.sql).run_to_completion()
        expected = session.execute_batch(t5.sql)
        divergence = {}
        assert harness.check_answer(
            expected, final, session.config.num_batches, t5.sampled,
            divergence,
        ) is None
        assert set(divergence) == {"p95_fare"}
        # The group keys are still compared exactly.
        wrong = expected.with_column(
            "vendor_id", expected.column("vendor_id") + 1
        )
        assert harness.check_answer(
            wrong, final, session.config.num_batches, t5.sampled, {}
        ) is not None

    def test_unfinished_run_fails(self, tmp_path):
        target = _target("nested-mem", tmp_path)
        session = target.session
        query = session.sql(harness.NESTED_MIX[7].sql)  # SBI
        first = next(iter(query.run_online()))
        expected = session.execute_batch(query)
        failure = harness.check_answer(expected, first,
                                       session.config.num_batches)
        assert failure is not None and "ended at batch" in failure


# -- wrapper transparency --------------------------------------------------


def _engine_fingerprints(workload, name, tmp_path):
    target = _target(workload, tmp_path)
    sql = next(q.sql for q in harness.mix_for(workload) if q.name == name)
    plain = snapshot_fingerprint(target.session.sql(sql).run_online())
    recorder = Recorder()
    with Instrumentation(recorder):
        traced = snapshot_fingerprint(
            target.session.sql(sql).run_online()
        )
    return plain, traced, recorder


class TestTransparency:
    @pytest.mark.parametrize("workload, name", [
        ("nested-mem", "Q18"),
        ("taxi-colstore", "T7"),
        ("nested-workers2", "Q17"),
    ])
    def test_engine_stream_identical(self, workload, name, tmp_path):
        plain, traced, recorder = _engine_fingerprints(workload, name,
                                                       tmp_path)
        assert plain == traced
        names = {span[0] for span in recorder.spans}
        assert {"sql.parse", "core.step_self", "delta.fold",
                "delta.snapshot"} <= names
        if workload == "taxi-colstore":
            assert "colstore.decode" in names
        if workload == "nested-workers2":
            assert "parallel.fold_dispatch" in names

    def test_serve_stream_identical(self, tmp_path):
        target = _target("nested-mem", tmp_path)
        sql = harness.SERVE_MIX[0].sql

        def fingerprint():
            with QueryScheduler(target.session,
                                ServeConfig(port=0)) as scheduler:
                run = scheduler.submit(sql)
                assert scheduler.wait(run.id, timeout=60)
                return snapshot_fingerprint(run.snapshots)

        plain = fingerprint()
        recorder = Recorder()
        with Instrumentation(recorder):
            traced = fingerprint()
        assert plain == traced
        assert any(span[0] == "serve.turn" for span in recorder.spans)

    def test_remove_restores_originals(self):
        # ``repro.core.classify`` the module is shadowed on its package
        # by the function of the same name.
        classify = importlib.import_module("repro.core.classify")
        delta = importlib.import_module("repro.core.delta")
        from repro.core.controller import QueryController

        before = (classify.tri_eval, delta.tri_eval,
                  QueryController.__dict__["step"])
        instrumentation = Instrumentation(Recorder()).install()
        assert classify.tri_eval is not before[0]
        assert delta.tri_eval is classify.tri_eval
        instrumentation.remove()
        assert (classify.tri_eval, delta.tri_eval,
                QueryController.__dict__["step"]) == before


# -- reconciliation ----------------------------------------------------------


class TestReconciliation:
    def test_layers_plus_unattributed_equal_wall(self, tmp_path):
        target = _target("nested-mem", tmp_path)
        recorder = Recorder()
        for qid, query in enumerate(harness.NESTED_MIX[:3]):
            with Instrumentation(recorder), recorder.root("query", qid):
                for _ in target.session.sql(query.sql).run_online():
                    pass
        roots = recorder.reconcile()
        assert len(roots) == 3
        for root in roots:
            assert root["layers"] + root["unattributed"] == pytest.approx(
                root["wall"], rel=1e-9, abs=1e-12)
            assert 0.0 <= root["unattributed"] < 0.2 * root["wall"]
        # Every non-root span of a query carries its root's query id.
        assert all(span[4] is not None for span in recorder.spans)

    def test_self_time_subtracts_children(self):
        recorder = Recorder()
        with recorder.root("query", 1):
            outer = recorder.begin("outer")
            inner = recorder.begin("inner")
            recorder.end(inner)
            recorder.end(outer)
        own = recorder.self_times()
        spans = recorder.spans
        assert own[1] == pytest.approx(
            (spans[1][2] - spans[1][1]) - (spans[2][2] - spans[2][1]))
        assert spans[2][3] == 1 and spans[1][3] == 0


# -- the command and BENCHMARK.json ------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


class TestCommand:
    def test_benchmark_json_matches_code(self):
        bench = _load("BENCHMARK.json")
        layers = _load("perfbench/layers.json")
        # nested-workers2 runs by hand only (see README.md).
        assert [w["name"] for w in bench["workloads"]] == [
            w for w in harness.WORKLOADS if w != "nested-workers2"]
        assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
            harness.END_TO_END_UNITS
        assert [(m["name"], m["unit"], m["better"])
                for m in bench["per_layer"]] == [
            (m["name"], m["unit"], m["better"]) for m in layers]
        for layer in layers:
            assert layer["moves"] in harness.END_TO_END_UNITS or \
                layer["moves"] == "validity"
            assert layer["on"] in harness.WORKLOADS

    @pytest.mark.parametrize("workload", harness.WORKLOADS)
    @pytest.mark.parametrize("trace", ["0", "1"])
    def test_result_line(self, workload, trace):
        proc = _run("--workload", workload, "--seed", "3", "--seconds",
                    "2", "--trace", trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        bench = _load("BENCHMARK.json")
        wanted = bench["per_layer" if trace == "1" else "end_to_end"]
        assert {m["name"]: m["unit"] for m in wanted} == {
            name: m["unit"] for name, m in result["metrics"].items()}

    def test_fails_without_program_sources(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        tmp_path / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "nested-mem", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=tmp_path, capture_output=True, text=True,
            timeout=170,
        )
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
