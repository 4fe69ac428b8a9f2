"""Guard the emitted benchmark reports: identity flags and ratio floors.

This module owns what a report must satisfy.  :data:`SUITES` has one entry
per suite (detected from the reports' ``benchmark`` field, which must match
between baseline and current):

* the report keys that must be ``true`` — in-run correctness properties
  (answer identity, isolation, zero loss), enforced on every machine;
* the guarded ratios, located row by row in both reports, which fail when
  the current value drops below ``baseline / --factor`` (default 2×).  They
  are bigger-is-better *ratios*, not wall-clock: ratios divide out machine
  speed, so the guard works on shared CI boxes where raw timings are
  meaningless;
* whether the ratio guards are skipped, with a recorded ``SKIPPED:`` line,
  on machines with fewer than :data:`MIN_CPUS_FOR_PARALLEL_CHECK` CPUs.

``emit_bench.py`` reads the same table to decide its own exit status.

Run with::

    python benchmarks/emit_bench.py --suite columnar_store --smoke \
        --output bench_columnar_store_smoke.json
    python benchmarks/check_bench_regression.py \
        BENCH_columnar_store.json bench_columnar_store_smoke.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Below this CPU count, parallel-scaling ratios are skipped (recorded in
#: the output): a 1–2 core box measures process startup, not scaling.
MIN_CPUS_FOR_PARALLEL_CHECK = 4

#: Maps a report to its guarded rows, keyed by the row id the label formats.
RowLocator = Callable[[Dict], Dict[Tuple, Dict]]


@dataclass(frozen=True)
class Suite:
    """What one suite's report must satisfy."""

    #: Report key that must be true → error message when it is not.
    identity: Dict[str, str]
    #: Finds the guarded rows of a report (unused when nothing is guarded).
    rows: Optional[RowLocator] = None
    #: ``(ratio key in each row, row label)`` per guarded ratio; the label
    #: is formatted with the row id's components.
    ratios: Tuple[Tuple[str, str], ...] = ()
    #: ``(what is skipped, what still passed)`` when the ratios are skipped
    #: below :data:`MIN_CPUS_FOR_PARALLEL_CHECK`; ``None`` guards anywhere.
    parallel_skip: Optional[Tuple[str, str]] = None


def _rows_by(key: str) -> RowLocator:
    """Rows of ``report["results"]``, keyed by their *key* column."""
    return lambda report: {(row[key],): row for row in report.get("results", ())}


def _rows_per_band(report: Dict) -> Dict[Tuple, Dict]:
    """Rows of every band's results, keyed by ``(band, size)``."""
    return {
        (band["band"], row["size"]): row
        for band in report.get("bands", ())
        for row in band.get("results", ())
    }


def _worst_per_worker_count(report: Dict) -> Dict[Tuple, Dict]:
    """Per worker count, the minimum delta-vs-rebuild speedup over sizes.

    A missing or null speedup at any size makes the worst case null too.
    """
    speedups: Dict[int, List] = {}
    for row in report.get("results", ()):
        for worker_row in row.get("workers", ()):
            speedups.setdefault(worker_row["workers"], []).append(
                worker_row.get("speedup_delta_vs_rebuild")
            )
    return {
        (workers,): {
            "speedup_delta_vs_rebuild": (
                None if None in values else min(values)
            )
        }
        for workers, values in speedups.items()
    }


SUITES: Dict[str, Suite] = {
    # Naive vs compiled evaluation of the Theorem 1 rewriting.  The naive
    # side's cost is exponential in the size, so only identity is guarded.
    "fo_rewriting": Suite(
        identity={"all_agree": "naive and compiled evaluation disagree"},
    ),
    # Maintained view vs recompute-per-mutation: the maintained answers
    # equal a cold recompute after every mutation, and the view re-decides
    # exactly the support-dirty candidates (plus delta-discovered ones).
    "incremental_views": Suite(
        identity={
            "all_agree": "the maintained view and a cold recompute disagree",
            "support_dirties_only_dependents": "the view re-decided candidates "
            "outside the support-dirty set",
        },
    ),
    # Columnar vs object backend on batched certain answers: the speedup
    # and the snapshot shrink factor per planted-chain size.
    "columnar_store": Suite(
        identity={"all_agree": "the columnar and object backends disagree"},
        rows=_rows_by("planted_chains"),
        ratios=(
            ("speedup_vs_object", "chains={0:5d}"),
            ("snapshot_shrink_factor", "chains={0:5d} shrink"),
        ),
    ),
    # One workload per band of the trichotomy: the columnar speedup per
    # (band, size) cell.
    "all_bands": Suite(
        identity={"all_agree": "the columnar and object backends disagree"},
        rows=_rows_per_band,
        ratios=(("speedup_vs_object", "band={0:18s} size={1:5d}"),),
    ),
    # Delta shipping vs a full pool re-bootstrap per step, worst case over
    # the sizes per worker count.  No delta flush may outweigh a pickled
    # full snapshot (delta shipping is O(delta)).  The ratio prices pool
    # respawns, which a contended 1–2 core box times too noisily.
    "sharded_runtime": Suite(
        identity={
            "all_agree": "sharded or rebuild answers disagree with the "
            "sequential replay",
            "all_deltas_below_snapshot": "a delta flush outweighed a full "
            "snapshot (delta shipping is not O(delta))",
        },
        rows=_worst_per_worker_count,
        ratios=(("speedup_delta_vs_rebuild", "workers={0}"),),
        parallel_skip=(
            "delta-vs-rebuild ratio checks",
            "agreement and delta-below-snapshot checks",
        ),
    ),
    # Concurrent tenants vs a sequential per-tenant replay: every admitted
    # answer equals the replay and no two tenants share an interned
    # constant.  Below 4 CPUs the concurrent run measures GIL churn and
    # thread wakeups, not the serving layer.
    "service_load": Suite(
        identity={
            "all_answers_match": "a service answer diverged from the "
            "sequential replay",
            "zero_intern_collisions": "two tenants share interned constants "
            "(tenant isolation broken)",
        },
        rows=lambda report: {(): report},
        ratios=(("throughput_ratio_vs_sequential", "service_load throughput"),),
        parallel_skip=(
            "service throughput ratio check",
            "answer-identity and intern-isolation checks",
        ),
    ),
    # Cold restart (segment + changelog tail) vs a full-history rebuild per
    # tail; the recovered facts, mutation_version and certain answers equal
    # the pre-crash state.  Both legs are single-process, so the ratio is
    # guarded on any CPU count.
    "durability": Suite(
        identity={
            "all_agree": "a recovered database diverged from the pre-crash state"
        },
        rows=_rows_by("tail"),
        ratios=(("speedup_restart_vs_rebuild", "tail={0:6d}"),),
    ),
    # Clean vs chaos sharded replay plus a crash-recovery durability leg:
    # every answer under faults equals the sequential replay, the fault
    # plan fired, and no acknowledged batch was lost.  Both ratios price
    # worker respawns, which a contended 1–2 core box times too noisily.
    "fault_recovery": Suite(
        identity={
            "all_agree": "an answer under injected faults diverged from the "
            "sequential replay",
            "zero_acknowledged_lost": "the durable store lost an acknowledged "
            "batch across the injected crash",
            "faults_exercised": "the fault plan never fired (the chaos run "
            "measured nothing)",
        },
        rows=_rows_by("size"),
        ratios=(
            ("throughput_retained_under_faults", "size={0:5d} retained      "),
            ("recovery_responsiveness", "size={0:5d} responsiveness"),
        ),
        parallel_skip=(
            "fault-recovery ratio checks",
            "identity, fault-coverage, and zero-loss checks",
        ),
    ),
}


def _error(message: str) -> int:
    print(f"ERROR: {message}", file=sys.stderr)
    return 1


def check_identity(report: Dict) -> int:
    """Return 0 when every identity key of *report*'s suite is true, else 1."""
    suite = report.get("benchmark")
    if suite not in SUITES:
        return _error(
            f"no checks defined for suite {suite!r} "
            f"(supported: {', '.join(sorted(SUITES))})"
        )
    status = 0
    for key, message in SUITES[suite].identity.items():
        if not report.get(key):
            status = _error(f"{suite}: {message} ({key} is not true)")
    return status


def _check_ratio(label: str, baseline: float, current: float, factor: float) -> int:
    floor = baseline / factor
    verdict = "ok" if current >= floor else "REGRESSED"
    print(
        f"{label} baseline={baseline:6.2f}x current={current:6.2f}x "
        f"floor={floor:6.2f}x {verdict}"
    )
    return 0 if current >= floor else 1


def check_regression(baseline: Dict, current: Dict, factor: float) -> int:
    """Return 0 when *current* holds up against *baseline*, 1 otherwise."""
    name = current.get("benchmark")
    if name != baseline.get("benchmark"):
        return _error("baseline and current reports come from different suites")
    if check_identity(current):
        return 1
    suite = SUITES[name]
    if not suite.ratios:
        print(f"{name}: identity checks passed; no guarded ratios")
        return 0
    cpus = current.get("cpu_count") or 0
    if suite.parallel_skip and cpus < MIN_CPUS_FOR_PARALLEL_CHECK:
        skipped, passed = suite.parallel_skip
        print(
            f"SKIPPED: {skipped} skipped "
            f"(cpu_count={cpus} < {MIN_CPUS_FOR_PARALLEL_CHECK}); "
            f"{passed} passed"
        )
        return 0
    baseline_rows = suite.rows(baseline)
    current_rows = suite.rows(current)
    shared = [row_id for row_id in baseline_rows if row_id in current_rows]
    if not shared:
        return _error(f"{name}: the reports share no guarded rows")
    status = 0
    for row_id in shared:
        for key, template in suite.ratios:
            label = template.format(*row_id)
            base = baseline_rows[row_id].get(key)
            cur = current_rows[row_id].get(key)
            missing = [
                side
                for side, value in (("baseline", base), ("current", cur))
                if value is None
            ]
            if missing:
                status = _error(
                    f"{name}: {label.strip()}: guarded ratio {key!r} is missing "
                    f"or null in the {' and '.join(missing)} report"
                )
            else:
                status |= _check_ratio(label, base, cur, factor)
    return status


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=pathlib.Path, help="committed baseline JSON")
    parser.add_argument("current", type=pathlib.Path, help="freshly emitted JSON")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="maximum tolerated regression factor on the guarded ratios",
    )
    args = parser.parse_args(list(argv) or None)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    return check_regression(baseline, current, args.factor)


if __name__ == "__main__":
    raise SystemExit(main())
