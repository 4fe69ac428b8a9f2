"""The benchmark regression guard, run on the committed reports only.

``benchmarks/check_bench_regression.py`` decides whether an emitted report
holds up against its committed ``BENCH_<suite>.json`` baseline.  These
tests feed it the committed baselines and doctored copies of them, so they
run no benchmark.
"""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import check_bench_regression as guard  # noqa: E402

FACTOR = 2.0
ENOUGH_CPUS = guard.MIN_CPUS_FOR_PARALLEL_CHECK
GUARDED = sorted(name for name, suite in guard.SUITES.items() if suite.ratios)
PARALLEL = sorted(name for name, suite in guard.SUITES.items() if suite.parallel_skip)


def baseline(suite: str) -> dict:
    return json.loads((ROOT / f"BENCH_{suite}.json").read_text())


def rows_with(node, key):
    """Every dict under *node* that has *key* (depth-first, in order)."""
    if isinstance(node, dict):
        if key in node:
            yield node
        for value in node.values():
            yield from rows_with(value, key)
    elif isinstance(node, list):
        for item in node:
            yield from rows_with(item, key)


def test_every_suite_has_a_committed_baseline():
    committed = {path.stem[len("BENCH_") :] for path in ROOT.glob("BENCH_*.json")}
    assert committed == set(guard.SUITES)
    assert set(PARALLEL) == {"sharded_runtime", "service_load", "fault_recovery"}


@pytest.mark.parametrize("suite", sorted(guard.SUITES))
@pytest.mark.parametrize("cpus", [None, ENOUGH_CPUS])
def test_committed_baseline_passes_against_itself(suite, cpus):
    current = baseline(suite)
    if cpus is not None:
        current["cpu_count"] = cpus
    assert guard.check_identity(current) == 0
    assert guard.check_regression(baseline(suite), current, FACTOR) == 0


@pytest.mark.parametrize(
    "suite, key",
    [(name, key) for name, suite in guard.SUITES.items() for key in suite.identity],
)
def test_flipping_an_identity_key_fails(suite, key, capsys):
    current = baseline(suite)
    assert current[key] is True
    current[key] = False
    assert guard.check_identity(current) == 1
    assert guard.check_regression(baseline(suite), current, FACTOR) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, key",
    [(name, key) for name in GUARDED for key, _label in guard.SUITES[name].ratios],
)
def test_dividing_a_guarded_ratio_past_the_factor_fails(suite, key, capsys):
    current = baseline(suite)
    current["cpu_count"] = ENOUGH_CPUS
    for row in rows_with(current, key):
        row[key] /= FACTOR * 1.25
    assert guard.check_regression(baseline(suite), current, FACTOR) == 1
    assert "REGRESSED" in capsys.readouterr().out


@pytest.mark.parametrize("suite", PARALLEL)
def test_small_box_skips_the_ratio_guards(suite, capsys):
    current = baseline(suite)
    current["cpu_count"] = ENOUGH_CPUS - 1
    for key, _label in guard.SUITES[suite].ratios:
        for row in rows_with(current, key):
            row[key] /= FACTOR * 1.25  # a skipped guard reads no ratio
    assert guard.check_regression(baseline(suite), current, FACTOR) == 0
    out = capsys.readouterr().out
    assert out.startswith("SKIPPED: ")
    assert f"(cpu_count={ENOUGH_CPUS - 1} < {ENOUGH_CPUS})" in out


@pytest.mark.parametrize("missing", ["null", "absent"])
@pytest.mark.parametrize(
    "suite, key",
    [(name, key) for name in GUARDED for key, _label in guard.SUITES[name].ratios],
)
def test_null_or_absent_baseline_ratio_fails(suite, key, missing, capsys):
    base = baseline(suite)
    row = next(rows_with(base, key))
    if missing == "null":
        row[key] = None
    else:
        del row[key]
    current = baseline(suite)
    current["cpu_count"] = ENOUGH_CPUS
    assert guard.check_regression(base, current, FACTOR) == 1
    err = capsys.readouterr().err
    assert suite in err and repr(key) in err and "baseline report" in err


def test_cli_factor_bounds_the_tolerated_regression(tmp_path):
    current = baseline("durability")
    for row in rows_with(current, "speedup_restart_vs_rebuild"):
        row["speedup_restart_vs_rebuild"] /= 3.0
    current_path = tmp_path / "current.json"
    current_path.write_text(json.dumps(current))
    baseline_path = str(ROOT / "BENCH_durability.json")
    assert guard.main([baseline_path, str(current_path)]) == 1
    assert guard.main([baseline_path, str(current_path), "--factor", "4"]) == 0
