"""Run the repository benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload nested-mem --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` runs the same workload with the layer wrappers
(``perfbench/tracing.py``) and reports the per-layer metrics instead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's detail (provenance, sample counts, failures).  The exit code is 0
only when every query in the run was answered correctly.

``--workload all`` runs each workload in a fresh process and prints
every metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("nested-mem", "taxi-colstore", "nested-workers2",
             "serve-closed")


def _import_program():
    """Import ``repro`` from this checkout's ``src`` (never elsewhere)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {src}")


def _print_metrics(workload: str, metrics: dict, units: dict) -> None:
    for name in sorted(metrics):
        print(f"{workload:16s} {name:34s} {metrics[name]:>16.6g} "
              f"{units.get(name, '')}")


def _run_all(args) -> int:
    """Each workload in its own process; a combined report."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        for line in lines[:-2]:
            print(line)
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _import_program()
    if args.workload == "all":
        return _run_all(args)

    from perfbench import harness

    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT)
    units = dict(harness.END_TO_END_UNITS)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as fh:
        units.update({m["name"]: m["unit"] for m in json.load(fh)})
    metrics = result["metrics"]
    _print_metrics(args.workload, metrics, units)
    print(json.dumps(result["detail"], sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
