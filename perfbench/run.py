"""The repository benchmark: workloads across the tractability frontier.

Run from the repository root (``BENCHMARK.json`` lists the workloads and
metrics; ``fo_stream``, the single-process baseline, also runs by name):

    python3 perfbench/run.py --workload fo_stream_sharded --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --report

A run has two steps.  Step 1 runs the workload in a fresh interpreter
(``perfbench/workloads.py``) with ``PYTHONHASHSEED`` set to the seed, so
caches, the global intern table and peak memory start identical; it
writes raw per-op records to ``.perfbench_runs/``.  A second fresh
interpreter regenerates the inputs under another hash seed and the two
input digests must agree.  Step 2 (this file) derives the metrics from the
raw records: medians and p90s with their sample counts, and with
``--trace 1`` the per-layer table.  It prints every metric by name with
its unit, then one JSON line as the last line of output.  ``--report``
re-runs step 2 over every raw record on disk without running anything,
and prints the ``fo_stream_sharded``/``fo_stream`` read-latency ratio
against the single-process baseline.

End-to-end metrics (untraced runs), per workload:

* ``setup_s``: median of 3 or 5 set-ups (per workload), each from the
  generated facts to the first verified answer (store build,
  session/tenant/view materialisation, durable open, shard pool
  bootstrap, plan compile); input generation is excluded.
* ``throughput_ops_s``: completed ops per second of the closed loop.
* ``read_p50_ms`` / ``read_p90_ms``: answer-returning calls (session,
  one-shot, view and queued reads); ``write_p50_ms`` / ``write_p90_ms``:
  mutation batches (with their WAL commit, written and flushed to the OS
  without fsync, on ``durable_churn``; a bare database toggle on
  ``oneshot_frontier``).
* ``recovery_s``: median of 9 to 13 restarts, each up to the first
  verified answer, spread evenly over the timed loop (their time is not
  the loop's).  ``durable_churn`` reopens a service over a copy of a
  durable directory: a checkpoint of the initial facts plus a WAL tail of
  a fixed number of writes.  ``fo_stream`` and ``fo_stream_sharded``
  rebuild their serving state from the facts of recorded states spread
  over the stream; ``oneshot_frontier`` answers every band database, in
  both states its loop visits, with plans compiled again.
* ``peak_rss_mb``: peak resident memory of the workload's process, read
  after the loop and before the answer checks.

Failures (an op that raised, or returned an answer the checks reject) are
the result's ``failed`` out of ``attempted``; ``failed_frac`` is printed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
RAW_DIR = ".perfbench_runs"
#: A run (both steps) must end within 180 s.
STEP1_TIMEOUT_S = 165
#: ROADMAP's baseline (a warm single-process CertaintySession) for the
#: ``fo_stream_sharded`` ratio.  It runs by name but is not listed in
#: BENCHMARK.json: on a shared 2-vCPU VM its ``recovery_s`` (a 0.25 s
#: in-process rebuild) spread past the 0.25 bound over 10 runs of the same
#: code, as the host's speed changed between runs.
BASELINE = "fo_stream"


def load_spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def raw_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(RAW_DIR, f"{workload}-seed{seed}-trace{trace}.json")


def child_env(hash_seed: int) -> Dict[str, str]:
    path = os.pathsep.join([os.path.abspath("src"), HERE])
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(hash_seed % 2**32))


def step1(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload in a fresh interpreter; returns its raw record."""
    os.makedirs(RAW_DIR, exist_ok=True)
    out = raw_path(workload, seed, trace)
    if os.path.exists(out):
        os.remove(out)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out],
        env=child_env(seed), check=True, timeout=STEP1_TIMEOUT_S, stdout=sys.stderr,
    )
    with open(out) as fh:
        record = json.load(fh)
    digest = subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--digest", workload, str(seed)],
        env=child_env(seed + 1), check=True, timeout=60, capture_output=True, text=True,
    ).stdout.split()[-1]
    record["inputs_sha256_other_hash_seed"] = digest
    with open(out, "w") as fh:
        json.dump(record, fh)
    return record


# -- step 2 -------------------------------------------------------------------------


def percentile(values: Sequence[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latencies_ms(record: dict, kind: str) -> List[float]:
    return [(end - start) * 1000.0 for k, start, end, _ in record["ops"] if k == kind]


def end_to_end(record: dict) -> Dict[str, tuple]:
    """Every end-to-end metric as ``(value, sample count)``."""
    ops = record["ops"]
    reads, writes = latencies_ms(record, "read"), latencies_ms(record, "write")
    completed = sum(1 for op in ops if op[3])
    return {
        "setup_s": (statistics.median(record["setup_s"]), len(record["setup_s"])),
        "throughput_ops_s": (completed / record["loop_s"], completed),
        "read_p50_ms": (percentile(reads, 50), len(reads)),
        "read_p90_ms": (percentile(reads, 90), len(reads)),
        "write_p50_ms": (percentile(writes, 50), len(writes)),
        "write_p90_ms": (percentile(writes, 90), len(writes)),
        "recovery_s": (statistics.median(record["restart_s"]), len(record["restart_s"])),
        "peak_rss_mb": (record["peak_rss_mb"], 1),
    }


def outcome(record: dict) -> dict:
    """``correct`` / ``attempted`` / ``failed`` of one run."""
    failed = sum(1 for op in record["ops"] if not op[3])
    failed += sum(1 for ok in record["restart_ok"] if not ok)
    attempted = len(record["ops"]) + len(record["restart_ok"])
    same_inputs = record["inputs_sha256"] == record.get("inputs_sha256_other_hash_seed")
    correct = failed == 0 and record["check"]["wrong"] == 0 and same_inputs
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "same_inputs": same_inputs}


def summarize(record: dict, spec: dict) -> dict:
    """Print the run's metrics by name with units; return the result object."""
    result = outcome(record)
    name, trace = record["workload"], record["trace"]
    print(f"== {name} seed={record['seed']} trace={int(trace)} "
          f"seconds={record['seconds']} loop_s={record['loop_s']:.3f}")
    env = record["environment"]
    print("   " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"   inputs_sha256={record['inputs_sha256'][:16]} "
          f"other_hash_seed={'same' if result['same_inputs'] else 'DIFFERENT'}")
    check = record["check"]
    print("   check " + " ".join(f"{k}={v}" for k, v in check.items() if k != "answer_digests"))
    if check.get("label"):
        print(f"   LABEL: {check['label']}")
    if record.get("op_errors"):
        print(f"   op errors: {record['op_errors']}")
    attempted = result["attempted"]
    print(f"   failed_frac {result['failed'] / attempted:.6g} "
          f"({result['failed']} of {attempted} ops)")
    metrics = {}
    if trace:
        layers = record["layers"]
        for metric in spec["per_layer"]:
            value = layers[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"   {metric['name']:30s} {value:14.6g} {metric['unit']}")
    else:
        values = end_to_end(record)
        for metric in spec["end_to_end"]:
            value, samples = values[metric["name"]]
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"   {metric['name']:30s} {value:14.6g} {metric['unit']:6s} n={samples}")
        checkpoints = latencies_ms(record, "checkpoint")
        if checkpoints:
            print(f"   {'checkpoint_p50_ms':30s} {percentile(checkpoints, 50):14.6g} ms     "
                  f"n={len(checkpoints)} (informational)")
    return {"correct": result["correct"], "attempted": attempted,
            "failed": result["failed"], "metrics": metrics}


def baseline_ratio(seed: str = "*") -> None:
    """``fo_stream_sharded`` against ``fo_stream`` per seed (informational)."""
    pattern = os.path.join(RAW_DIR, f"fo_stream_sharded-seed{seed}-trace0.json")
    for path in sorted(glob.glob(pattern)):
        with open(path) as fh:
            sharded = json.load(fh)
        base_path = raw_path("fo_stream", sharded["seed"], 0)
        if not os.path.exists(base_path):
            continue
        with open(base_path) as fh:
            base = json.load(fh)
        ratio = end_to_end(sharded)["read_p50_ms"][0] / end_to_end(base)["read_p50_ms"][0]
        a = sharded["check"]["answer_digests"]
        b = base["check"]["answer_digests"]
        common = min(len(a), len(b))
        agree = a[:common] == b[:common]
        print(f"seed {sharded['seed']}: fo_stream_sharded/fo_stream read_p50_ms = {ratio:.3f} "
              f"(baseline: warm single-process CertaintySession); answers agree on "
              f"{common} common steps: {agree}")


def report(spec: dict) -> int:
    paths = sorted(glob.glob(os.path.join(RAW_DIR, "*-seed*-trace*.json")))
    if not paths:
        print(f"no raw records under {RAW_DIR}/", file=sys.stderr)
        return 1
    for path in paths:
        with open(path) as fh:
            summarize(json.load(fh), spec)
    baseline_ratio()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload (see BENCHMARK.json).")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="derive metrics from the raw records on disk (step 2 only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root; src/repro is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.report:
        return report(spec)
    workloads = {w["name"] for w in spec["workloads"]} | {BASELINE}
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    record = step1(args.workload, args.seed, seconds, args.trace)
    result = summarize(record, spec)
    if args.workload.startswith("fo_stream"):
        baseline_ratio(str(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
