"""Emit benchmark JSON reports recording the engine's performance trajectory.

:data:`RUNNERS` lists the suites: each runs one ``run_*`` function (whose
docstring describes the workload and the two strategies it compares) at
its full or ``--smoke`` sizes and writes ``BENCH_<suite>.json`` by
default.  The exit status is the report's identity verdict from
``check_bench_regression.SUITES``, the one table of what every report
must satisfy; that script also guards the recorded ratios against the
committed baselines.

Run with::

    PYTHONPATH=src python benchmarks/emit_bench.py            # full sizes
    PYTHONPATH=src python benchmarks/emit_bench.py --smoke    # CI-sized
    PYTHONPATH=src python benchmarks/emit_bench.py --suite sharded_runtime
    PYTHONPATH=src python benchmarks/emit_bench.py --suite incremental_views
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import pickle
import random
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.durability import DurableStore
from repro.engine import CertaintySession, ShardedCertaintySession
from repro.faults import FaultPlan, FaultSpec, inject
from repro.fo import certain_rewriting_cached, compile_formula, evaluate_sentence
from repro.model.database import UncertainDatabase
from repro.model.symbols import Variable
from repro.query import parse_query
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.families import figure2_q1, figure4_query, path_query
from repro.service import INLINE, CertaintyService
from repro.store import global_intern_table
from repro.workloads import (
    apply_batch,
    bursty_mutation_stream,
    multi_tenant_workload,
    mutation_stream,
    replay_trace,
    synthetic_instance,
    zipfian_instance,
)
from repro.workloads.instances import ring_instance

from check_bench_regression import check_identity

def bench_query() -> ConjunctiveQuery:
    """The benchmark query: ``path_query(3)``, an FO-band three-atom chain."""
    return path_query(3)


def fo_bench_instance(query: ConjunctiveQuery, size: int, seed: int = 5) -> UncertainDatabase:
    """A database of scale *size* that is hard for naive FO evaluation.

    All but the last relation receive ``2·size`` random facts over a
    domain of *size* constants; the last relation only ``size // 4`` — so
    witnesses almost never complete, certainty usually fails, and the naive
    evaluator cannot short-circuit its quantifier loops.
    """
    rng = random.Random(seed)
    domain = [f"c{i}" for i in range(size)]
    relations = [atom.relation for atom in query.atoms]
    db = UncertainDatabase()
    for position, relation in enumerate(relations):
        count = 2 * size if position < len(relations) - 1 else max(1, size // 4)
        for _ in range(count):
            db.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    return db


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(sizes: Sequence[int], repeats: int = 3, seed: int = 5) -> Dict:
    """Time naive vs compiled evaluation per size; verify agreement."""
    query = bench_query()
    formula = certain_rewriting_cached(query)
    compile_start = time.perf_counter()
    compile_formula(formula)
    compile_seconds = time.perf_counter() - compile_start

    results: List[Dict] = []
    for size in sizes:
        db = fo_bench_instance(query, size, seed=seed)
        compiled_result = evaluate_sentence(db, formula, compiled=True)
        naive_result = evaluate_sentence(db, formula, compiled=False)
        agree = compiled_result == naive_result
        compiled_seconds = _best_of(
            repeats, lambda: evaluate_sentence(db, formula, compiled=True)
        )
        naive_seconds = _best_of(
            repeats, lambda: evaluate_sentence(db, formula, compiled=False)
        )
        results.append(
            {
                "size": size,
                "facts": len(db),
                "certain": compiled_result,
                "agree": agree,
                "naive_seconds": naive_seconds,
                "compiled_seconds": compiled_seconds,
                "speedup": naive_seconds / compiled_seconds if compiled_seconds else None,
            }
        )
    return {
        "benchmark": "fo_rewriting",
        "query": str(query),
        "formula_compile_seconds": compile_seconds,
        "repeats": repeats,
        "results": results,
        "largest_size_speedup": results[-1]["speedup"] if results else None,
        "all_agree": all(r["agree"] for r in results),
    }


def chain_bench_query() -> ConjunctiveQuery:
    """The FO-band open query: ``path_query(3)`` with its head variable free."""
    base = path_query(3)
    return ConjunctiveQuery(base.atoms, free_variables=[Variable("x1")])


def chain_bench_instance(
    query: ConjunctiveQuery, candidates: int, seed: int = 13
) -> UncertainDatabase:
    """A database with ~*candidates* candidate answers and heavy key conflicts.

    Each candidate ``x1 = s{i}`` roots one witness chain; every chain link
    gets extra key-conflicting facts so the certain rewriting must reason
    over multi-fact blocks for every candidate — the per-candidate work the
    sharded loop distributes.
    """
    rng = random.Random(seed)
    relations = [atom.relation for atom in query.atoms]
    db = UncertainDatabase()
    for i in range(candidates):
        chain = [f"s{i}"] + [f"v{i}_{level}" for level in range(1, len(relations) + 1)]
        conflicted = rng.random() < 0.75  # ~25% of chains stay certain
        for level, relation in enumerate(relations):
            db.add(relation.fact(chain[level], chain[level + 1]))
            if conflicted:
                # Conflicting claims inside the block of every chain link.
                # Live targets (other chains' nodes) keep the rewriting's
                # universal quantifier chasing real continuations; dead
                # targets give the falsifier a pick with no continuation, so
                # a fair share of candidates decide NOT-certain and the
                # sequential-vs-sharded cross-check covers both branches.
                for conflict in range(3):
                    if conflict == 0 and level < len(relations) - 1:
                        # No fact ever continues from a dead node, so a
                        # repair picking this conflict breaks the chain.
                        target = f"dead{rng.randrange(candidates)}"
                    else:
                        target = f"v{rng.randrange(candidates)}_{level + 1}"
                    db.add(relation.fact(chain[level], target))
        # Cross-links between chains keep the join fan-out honest.
        for _ in range(3):
            level = rng.randrange(len(relations))
            relation = relations[level]
            db.add(
                relation.fact(
                    f"v{rng.randrange(candidates)}_{level}",
                    f"v{rng.randrange(candidates)}_{level + 1}",
                )
            )
    return db


#: Shard/worker counts; both strategies run at the *same* count, so the
#: headline ratio isolates re-bootstrap-vs-delta cost rather than parallelism.
SHARDED_WORKER_COUNTS = (1, 2, 4)


def sharded_bench_query() -> ConjunctiveQuery:
    """An open same-key join: both atoms key on ``x``.

    Every candidate's support lives in the two blocks keyed by its own
    ``x`` value, which hash to one shard, so decisions stay shard-local
    (no cross-shard fallbacks) and the benchmark measures the runtime, not
    the routing miss path.  The ``'ok'``-constant atom keeps the query
    discriminating: a candidate is certain iff *every* fact in its
    ``S``-block carries ``'ok'``, so the stream's key-conflicting bursts
    flip answers in both directions.
    """
    return parse_query("R(x | y), S(x | 'ok')", free=["x"])


def sharded_bench_instance(
    query: ConjunctiveQuery, size: int, seed: int = 29
) -> UncertainDatabase:
    """*size* planted same-key pairs over a Zipf-skewed noise instance.

    Each pair ``x = s{i}`` contributes one candidate; ~40% get a non-OK
    ``S`` conflict (not certain) and ~30% an extra ``R`` conflict (certain,
    but the rewriting must reason over a multi-fact block).  The Zipfian
    background adds hot blocks the mutation stream keeps hammering.
    """
    rng = random.Random(seed)
    db = zipfian_instance(
        query,
        seed=seed + 1,
        domain_size=max(8, size // 2),
        facts_per_relation=size // 2,
    )
    schema = query.schema()
    relation_r, relation_s = schema["R"], schema["S"]
    for i in range(size):
        key = f"s{i}"
        db.add(relation_r.fact(key, f"w{i}"))
        db.add(relation_s.fact(key, "ok"))
        if rng.random() < 0.4:
            db.add(relation_s.fact(key, f"bad{i}"))
        if rng.random() < 0.3:
            db.add(relation_r.fact(key, f"alt{i}"))
    return db


def _record_stream(query, db0, steps: int, seed: int):
    """Materialize a bursty mutation stream so every strategy replays the
    exact same batches (the generator's live contract needs a scratch db)."""
    scratch = db0.copy()
    batches = []
    for batch in bursty_mutation_stream(query, scratch, steps=steps, seed=seed):
        batches.append(batch)
        apply_batch(scratch, batch)
    return batches


def _replay_sequential(db0, batches, query):
    """Replay the recorded mixed read/write stream on a fresh database copy
    through one warm :class:`CertaintySession`.

    Returns ``(seconds, per_step_answers)``.
    """
    db = db0.copy()
    with CertaintySession(db) as session:
        start = time.perf_counter()
        per_step = [session.certain_answers(query)]
        for batch in batches:
            apply_batch(db, batch)
            per_step.append(session.certain_answers(query))
        seconds = time.perf_counter() - start
    return seconds, per_step


def _replay_rebootstrap(db0, batches, query, workers: int):
    """Replay the recorded stream with a fresh sharded session per step.

    Every read spawns the pool and re-ships every partition, then tears
    the pool down: the full re-bootstrap baseline that delta shipping is
    measured against.  Returns ``(seconds, per_step_answers, sessions,
    bootstrap_bytes)``.
    """
    db = db0.copy()
    per_step = []
    bootstrap_bytes = 0
    start = time.perf_counter()
    for batch in [None, *batches]:
        if batch is not None:
            apply_batch(db, batch)
        with ShardedCertaintySession(
            db, n_shards=workers, min_shard_candidates=1
        ) as session:
            per_step.append(session.certain_answers(query))
        bootstrap_bytes += session.stats.bootstrap_bytes_shipped
    seconds = time.perf_counter() - start
    return seconds, per_step, len(per_step), bootstrap_bytes


def _replay_sharded(
    db0, batches, query, shards: int, plan: Optional[FaultPlan] = None, **options
) -> Dict:
    """Replay the recorded stream on one long-lived sharded session.

    With *plan* the replay runs under fault injection; *options* go to
    :class:`ShardedCertaintySession`.  Returns the total seconds, the
    per-step answers, the per-step seconds split into recovery dispatches
    (a worker restart happened inside the step) and ordinary ones, the
    session's stats, and the pickled size of one full snapshot of the
    *final* store: the payload a rebuild strategy would ship per worker
    after the last mutation, which every delta flush must undercut.
    """
    db = db0.copy()
    session = ShardedCertaintySession(
        db, n_shards=shards, min_shard_candidates=1, **options
    )
    try:
        with inject(plan) if plan is not None else contextlib.nullcontext():
            per_step: List = []
            recovery: List[float] = []
            ordinary: List[float] = []
            start = time.perf_counter()
            for step in range(len(batches) + 1):
                if step:
                    apply_batch(db, batches[step - 1])
                restarts_before = session.stats.worker_restarts
                step_start = time.perf_counter()
                per_step.append(session.certain_answers(query))
                elapsed = time.perf_counter() - step_start
                if session.stats.worker_restarts > restarts_before:
                    recovery.append(elapsed)
                else:
                    ordinary.append(elapsed)
            seconds = time.perf_counter() - start
        snapshot_bytes = len(
            pickle.dumps(session.store.snapshot(), pickle.HIGHEST_PROTOCOL)
        )
    finally:
        session.close()
    return {
        "seconds": seconds,
        "per_step": per_step,
        "recovery_seconds": recovery,
        "ordinary_seconds": ordinary,
        "stats": session.stats,
        "snapshot_bytes": snapshot_bytes,
    }


def run_sharded_benchmark(
    sizes: Sequence[int], steps: int, repeats: int = 3, seed: int = 29
) -> Dict:
    """Delta-shipped shards vs full re-bootstrap on a mutation stream.

    Per size the same pre-recorded batches replay under three strategies:
    a sequential :class:`CertaintySession` (the per-step ground truth), a
    fresh :class:`ShardedCertaintySession` per step (full re-bootstrap),
    and one long-lived delta-shipped :class:`ShardedCertaintySession` — the
    latter two at each worker count, answers checked step-by-step against
    the sequential run.
    """
    query = sharded_bench_query()
    results: List[Dict] = []
    all_agree = True
    all_deltas_below_snapshot = True
    for size in sizes:
        db0 = sharded_bench_instance(query, size, seed=seed)
        batches = _record_stream(query, db0, steps, seed=seed + 7)
        mutated_facts = sum(len(batch) for batch in batches)

        sequential_seconds = float("inf")
        expected = None
        for _ in range(repeats):
            seconds, per_step = _replay_sequential(db0, batches, query)
            sequential_seconds = min(sequential_seconds, seconds)
            expected = per_step

        worker_rows: List[Dict] = []
        for workers in SHARDED_WORKER_COUNTS:
            rebuild_seconds = float("inf")
            rebuild_agree = True
            for _ in range(repeats):
                seconds, per_step, rebuilds, rebuild_bytes = _replay_rebootstrap(
                    db0, batches, query, workers
                )
                rebuild_agree = rebuild_agree and per_step == expected
                rebuild_seconds = min(rebuild_seconds, seconds)

            sharded = {"seconds": float("inf")}
            sharded_agree = True
            for _ in range(repeats):
                replay = _replay_sharded(db0, batches, query, workers)
                sharded_agree = sharded_agree and replay["per_step"] == expected
                if replay["seconds"] < sharded["seconds"]:
                    sharded = replay

            sharded_seconds = sharded["seconds"]
            snapshot_pickle_bytes = sharded["snapshot_bytes"]
            stats = sharded["stats"]
            delta_below_snapshot = (
                stats.max_flush_bytes < snapshot_pickle_bytes
            )
            agree = rebuild_agree and sharded_agree
            all_agree = all_agree and agree
            all_deltas_below_snapshot = (
                all_deltas_below_snapshot and delta_below_snapshot
            )
            worker_rows.append(
                {
                    "workers": workers,
                    "rebuild_seconds": rebuild_seconds,
                    "rebuilds": rebuilds,
                    "snapshot_bytes_shipped": rebuild_bytes,
                    "sharded_seconds": sharded_seconds,
                    "speedup_delta_vs_rebuild": (
                        rebuild_seconds / sharded_seconds
                        if sharded_seconds
                        else None
                    ),
                    "speedup_vs_sequential": (
                        sequential_seconds / sharded_seconds
                        if sharded_seconds
                        else None
                    ),
                    "delta_flushes": stats.delta_flushes,
                    "delta_bytes_shipped": stats.delta_bytes_shipped,
                    "delta_facts_shipped": stats.delta_facts_shipped,
                    "max_flush_bytes": stats.max_flush_bytes,
                    "bootstrap_bytes_shipped": stats.bootstrap_bytes_shipped,
                    "snapshot_pickle_bytes": snapshot_pickle_bytes,
                    "delta_below_snapshot": delta_below_snapshot,
                    "shard_decides": stats.shard_decides,
                    "parent_decides": stats.parent_decides,
                    "cross_shard_fallbacks": stats.cross_shard_fallbacks,
                    "worker_restarts": stats.worker_restarts,
                    "agree": agree,
                }
            )
        results.append(
            {
                "size": size,
                "facts": len(db0),
                "steps": steps,
                "mutated_facts": mutated_facts,
                "certain_answers_final": len(expected[-1]),
                "sequential_seconds": sequential_seconds,
                "workers": worker_rows,
            }
        )
    return {
        "benchmark": "sharded_runtime",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "results": results,
        "all_agree": all_agree,
        "all_deltas_below_snapshot": all_deltas_below_snapshot,
    }


def _incremental_mutations(query, chains: int, count: int, seed: int):
    """Single-block mutations against a ``chain_bench_instance`` database.

    Each mutation adds one key-conflicting fact to the block of an existing
    chain link — the block-local write pattern a mutation-heavy workload
    produces — so the support index can be checked for exact dirtying.
    """
    rng = random.Random(seed)
    relations = [atom.relation for atom in query.atoms]
    ops = []
    for m in range(count):
        level = rng.randrange(len(relations))
        chain = rng.randrange(chains)
        node = f"s{chain}" if level == 0 else f"v{chain}_{level}"
        ops.append(relations[level].fact(node, f"mut{m}"))
    return ops


def run_incremental_benchmark(
    sizes: Sequence[int], mutations: int, seed: int = 21
) -> Dict:
    """Maintained view vs recompute-per-mutation, differentially checked."""
    from repro.incremental import ViewManager, delta_candidates
    from repro.model.database import ChangeSet

    query = chain_bench_query()
    results: List[Dict] = []
    all_agree = True
    only_dependents = True
    for chains in sizes:
        db = chain_bench_instance(query, chains, seed=seed)
        with CertaintySession(db) as cold_session, ViewManager(db) as manager:
            materialize_start = time.perf_counter()
            view = manager.register(query)
            materialize_seconds = time.perf_counter() - materialize_start
            assert view.fine_grained, "the FO-band open query must be fine-grained"
            candidate_count = len(view.tracked_candidates)

            maintain_seconds = 0.0
            recompute_seconds = 0.0
            dirty_sizes: List[int] = []
            decisions_before = view.stats.decisions
            for fact in _incremental_mutations(query, chains, mutations, seed + 1):
                expected = view.support.dirty_for(ChangeSet(added=(fact,)))
                tracked_before = view.tracked_candidates
                start = time.perf_counter()
                db.add(fact)  # index update + incremental view maintenance
                maintain_seconds += time.perf_counter() - start
                # Exact dirtying: the view decided the support-dirty
                # candidates plus the delta-discovered new ones — nothing else.
                new = {
                    c
                    for c in delta_candidates(query, manager.session.index, [fact])
                    if c not in tracked_before
                }
                if view.stats.last_decided != len(expected | new):
                    only_dependents = False
                dirty_sizes.append(view.stats.last_decided)
                start = time.perf_counter()
                recomputed = cold_session.certain_answers(query)
                recompute_seconds += time.perf_counter() - start
                if view.answers != recomputed:
                    all_agree = False
        decisions = view.stats.decisions - decisions_before
        results.append(
            {
                "planted_chains": chains,
                "facts": len(db),
                "candidate_answers": candidate_count,
                "mutations": mutations,
                "materialize_seconds": materialize_seconds,
                "maintain_seconds": maintain_seconds,
                "recompute_seconds": recompute_seconds,
                "speedup_vs_recompute": (
                    recompute_seconds / maintain_seconds if maintain_seconds else None
                ),
                "view_decisions": decisions,
                "recompute_decisions": mutations * candidate_count,
                "avg_dirty": sum(dirty_sizes) / len(dirty_sizes) if dirty_sizes else 0,
                "max_dirty": max(dirty_sizes) if dirty_sizes else 0,
                "incremental_refreshes": view.stats.incremental_refreshes,
                "full_refreshes": view.stats.full_refreshes,
            }
        )
    return {
        "benchmark": "incremental_views",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "results": results,
        "all_agree": all_agree,
        "support_dirties_only_dependents": only_dependents,
        "largest_size_speedup": (
            results[-1]["speedup_vs_recompute"] if results else None
        ),
    }


def run_columnar_benchmark(
    sizes: Sequence[int], repeats: int = 3, seed: int = 13
) -> Dict:
    """Columnar vs object backend on batched certain answers, cross-checked.

    Every size runs both backends on the *same* database and asserts the
    answer sets are identical before any timing is recorded, so a kernel
    bug can never masquerade as a speedup.
    """
    query = chain_bench_query()
    results: List[Dict] = []
    all_agree = True
    for chains in sizes:
        db = chain_bench_instance(query, chains, seed=seed)
        with CertaintySession(db, backend="object") as object_session:
            with CertaintySession(db, backend="columnar") as columnar_session:
                object_answers = object_session.certain_answers(query)
                columnar_answers = columnar_session.certain_answers(query)
                agree = object_answers == columnar_answers
                all_agree = all_agree and agree
                candidate_count = len(columnar_session.candidate_answers(query))
                object_seconds = _best_of(
                    repeats, lambda: object_session.certain_answers(query)
                )
                columnar_seconds = _best_of(
                    repeats, lambda: columnar_session.certain_answers(query)
                )
                # Worker-snapshot wire sizes: integer columns + raw values
                # versus the pickled fact object graph.
                snapshot_bytes = len(
                    pickle.dumps(columnar_session.store.snapshot())
                )
                fact_graph_bytes = len(pickle.dumps(db.facts))
                store_stats = columnar_session.store.memory_stats()
        results.append(
            {
                "planted_chains": chains,
                "facts": len(db),
                "candidate_answers": candidate_count,
                "certain_answers": len(columnar_answers),
                "agree": agree,
                "object_seconds": object_seconds,
                "columnar_seconds": columnar_seconds,
                "speedup_vs_object": (
                    object_seconds / columnar_seconds if columnar_seconds else None
                ),
                "snapshot_pickle_bytes": snapshot_bytes,
                "fact_graph_pickle_bytes": fact_graph_bytes,
                "snapshot_shrink_factor": (
                    fact_graph_bytes / snapshot_bytes if snapshot_bytes else None
                ),
                "store_memory": store_stats,
            }
        )
    return {
        "benchmark": "columnar_store",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "results": results,
        "all_agree": all_agree,
        "largest_size_speedup": (
            results[-1]["speedup_vs_object"] if results else None
        ),
        "intern_table": global_intern_table().memory_stats(),
    }


def figure4_band_instance(size: int, seed: int = 31) -> UncertainDatabase:
    """A scaling instance for the Figure 4 query (PTIME-not-FO band)."""
    return synthetic_instance(
        figure4_query(),
        seed=seed,
        domain_size=2 * size,
        witnesses=size,
        noise_per_relation=size,
        conflict_rate=0.4,
    )


def conp_band_instance(gadgets: int, falsifiable: bool = True) -> UncertainDatabase:
    """A Figure 2 ``q1`` instance with all conflicts confined to ``T``.

    Each gadget plants one witness whose ``R``/``S``/``P`` blocks are
    singletons; only its ``T`` block carries a conflicting claim
    ``T(x_i, w_i)`` with no matching ``S`` row, so choosing it breaks the
    gadget's witness.  The repair search therefore walks forced singleton
    choices followed by one binary choice per ``T`` block, and its pruning
    (a branch with a completed witness can never falsify) makes the tree
    *linear* in the gadget count on both backends — the falsifying repair
    picks the bad claim in every ``T`` block.

    With ``falsifiable=False`` an unbreakable witness over ``.``-prefixed
    constants is inserted first: its names sort before every gadget name
    (``.`` < digits) and its constants intern first, so both the object
    path's string-ordered and the columnar path's id-ordered block sweeps
    decide its singleton blocks first, complete the witness, and prune
    every branch immediately — the certain verdict is also linear.
    """
    query = figure2_q1()
    schema = {atom.relation.name: atom.relation for atom in query.atoms}
    r, s, t, p = schema["R"], schema["S"], schema["T"], schema["P"]
    db = UncertainDatabase()
    if not falsifiable:
        db.add(r.fact(".u", "a", ".x"))
        db.add(s.fact(".y", ".x", ".z"))
        db.add(t.fact(".x", ".y"))
        db.add(p.fact(".x", ".z"))
    for i in range(gadgets):
        u, x, y, z = (f"{prefix}{i:06d}" for prefix in "uxyz")
        db.add(r.fact(u, "a", x))
        db.add(s.fact(y, x, z))
        db.add(t.fact(x, y))
        db.add(t.fact(x, f"w{i:06d}"))  # conflicting claim; no S row keys w
        db.add(p.fact(x, z))
    return db


def _time_backends(
    query: ConjunctiveQuery,
    db: UncertainDatabase,
    repeats: int,
    allow_exponential: bool = False,
) -> Dict:
    """Decide *query* on both backends, assert identity, time best-of-*repeats*."""
    row: Dict = {"facts": len(db)}
    with CertaintySession(
        db, backend="object", allow_exponential=allow_exponential
    ) as object_session:
        with CertaintySession(
            db, backend="columnar", allow_exponential=allow_exponential
        ) as columnar_session:
            if query.is_boolean:
                object_result = object_session.is_certain(query)
                columnar_result = columnar_session.is_certain(query)
                object_run = lambda: object_session.is_certain(query)  # noqa: E731
                columnar_run = lambda: columnar_session.is_certain(query)  # noqa: E731
                row["certain"] = columnar_result
            else:
                object_result = object_session.certain_answers(query)
                columnar_result = columnar_session.certain_answers(query)
                object_run = lambda: object_session.certain_answers(query)  # noqa: E731
                columnar_run = lambda: columnar_session.certain_answers(query)  # noqa: E731
                row["certain_answers"] = len(columnar_result)
            agree = object_result == columnar_result
            assert agree, f"backends disagree on {query}"
            row["agree"] = agree
            object_seconds = _best_of(repeats, object_run)
            columnar_seconds = _best_of(repeats, columnar_run)
    row["object_seconds"] = object_seconds
    row["columnar_seconds"] = columnar_seconds
    row["speedup_vs_object"] = (
        object_seconds / columnar_seconds if columnar_seconds else None
    )
    return row


def run_all_bands_benchmark(
    sizes: Sequence[int], repeats: int = 3, seed: int = 13
) -> Dict:
    """Columnar vs object path, one workload per band, identity-checked.

    Every (band, size) cell decides the same database on both backends and
    asserts the verdicts/answer sets are identical before timing, so a
    kernel bug in any band can never masquerade as a speedup.
    """
    # The coNP repair search recurses one frame per relevant block; the
    # gadget instances keep the tree linear but still ~5 blocks deep per
    # gadget, so 256 gadgets need more than CPython's default 1000 frames.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))

    bands: List[Dict] = []

    fo_query = chain_bench_query()
    fo_rows = [
        {"size": size, **_time_backends(
            fo_query, chain_bench_instance(fo_query, size, seed=seed), repeats
        )}
        for size in sizes
    ]
    bands.append(
        {
            "band": "fo",
            "method": "fo-rewriting",
            "query": str(fo_query),
            "results": fo_rows,
        }
    )

    fig4 = figure4_query()
    fig4_rows = [
        {"size": size, **_time_backends(fig4, figure4_band_instance(size), repeats)}
        for size in sizes
    ]
    bands.append(
        {
            "band": "ptime_not_fo",
            "method": "theorem3-terminal-cycles",
            "query": str(fig4),
            "results": fig4_rows,
        }
    )

    cycle_rows = []
    for size in sizes:
        cycle_query, cycle_db = ring_instance(
            3, copies=size, chords=max(2, size // 4), with_sk=False, seed=7
        )
        cycle_rows.append(
            {"size": size, **_time_backends(cycle_query, cycle_db, repeats)}
        )
    bands.append(
        {
            "band": "ptime_cycle_query",
            "method": "theorem4-cycle-query",
            "query": str(cycle_query),
            "results": cycle_rows,
        }
    )

    q1 = figure2_q1()
    conp_rows = []
    for size in sizes:
        row = {
            "size": size,
            **_time_backends(
                q1, conp_band_instance(size), repeats, allow_exponential=True
            ),
        }
        # Cross-check the certain variant too (untimed): the unbreakable
        # witness must yield True on both backends via immediate pruning.
        certain_db = conp_band_instance(size, falsifiable=False)
        with CertaintySession(
            certain_db, backend="object", allow_exponential=True
        ) as object_session:
            with CertaintySession(
                certain_db, backend="columnar", allow_exponential=True
            ) as columnar_session:
                object_verdict = object_session.is_certain(q1)
                columnar_verdict = columnar_session.is_certain(q1)
        assert object_verdict and columnar_verdict, "certain variant must be certain"
        row["certain_variant_agree"] = object_verdict == columnar_verdict
        conp_rows.append(row)
    bands.append(
        {
            "band": "conp",
            "method": "brute-force",
            "query": str(q1),
            "results": conp_rows,
        }
    )

    for band in bands:
        band["all_agree"] = all(r["agree"] for r in band["results"])
        band["largest_size_speedup"] = (
            band["results"][-1]["speedup_vs_object"] if band["results"] else None
        )
    return {
        "benchmark": "all_bands",
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "bands": bands,
        "all_agree": all(band["all_agree"] for band in bands),
    }


#: service_load suite: worker pool size and per-tenant queue-depth cap.
SERVICE_MAX_WORKERS = 4
SERVICE_QUEUE_DEPTH = 16


def _percentile(samples: Sequence[float], q: float):
    """The q-quantile (nearest-rank on the sorted samples); None when empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_service_load_benchmark(
    num_tenants: int,
    steps: int,
    repeats: int = 1,
    seed: int = 17,
    max_workers: int = SERVICE_MAX_WORKERS,
    queue_depth: int = SERVICE_QUEUE_DEPTH,
) -> Dict:
    """Concurrent multi-tenant serving vs sequential per-tenant replay.

    One deterministic mixed read/write trace per tenant (Zipf-skewed keys,
    tenant-prefixed constants).  The *sequential* leg replays every trace
    one after another on throwaway engine sessions — that is both the
    baseline wall-clock and the per-read ground truth.  The *concurrent*
    leg provisions one tenant per trace in a :class:`CertaintyService` and
    drives all traces from concurrent threads through band-aware admission:
    every FO-band read runs inline (its latency recorded separately), every
    PTIME-band read is queued onto the bounded worker pool (its completion
    time recorded).  Every answer is asserted identical in-run to the
    sequential replay, and after the run the tenants' private intern tables
    are asserted pairwise disjoint (zero cross-tenant id collisions).
    """
    workload = multi_tenant_workload(
        num_tenants=num_tenants, steps=steps, seed=seed
    )

    expected: Dict[str, Dict[int, frozenset]] = {}
    sequential_seconds = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        replayed = {
            trace.tenant_id: dict(replay_trace(trace))
            for trace in workload.traces
        }
        sequential_seconds = min(
            sequential_seconds, time.perf_counter() - start
        )
        expected = replayed

    concurrent_seconds = float("inf")
    fo_latencies: List[float] = []
    queued_latencies: List[float] = []
    mismatches = 0
    zero_intern_collisions = True
    service_totals: Dict = {}
    per_tenant_rows: List[Dict] = []

    for _ in range(repeats):
        run_fo: List[float] = []
        run_queued: List[float] = []
        run_mismatches = [0]
        lock = threading.Lock()

        with CertaintyService(
            max_workers=max_workers, queue_depth=queue_depth
        ) as svc:
            start = time.perf_counter()
            for trace in workload.traces:
                svc.create_tenant(trace.tenant_id, facts=trace.facts)

            def drive(trace) -> None:
                answers = expected[trace.tenant_id]
                local_fo: List[float] = []
                local_queued: List[float] = []
                wrong = 0
                for index, (kind, payload) in enumerate(trace.steps):
                    if kind == "write":
                        svc.apply(trace.tenant_id, payload)
                        continue
                    begin = time.perf_counter()
                    ticket = svc.submit(trace.tenant_id, payload)
                    got = ticket.result(timeout=120)
                    elapsed = time.perf_counter() - begin
                    if ticket.outcome == INLINE:
                        local_fo.append(elapsed)
                    else:
                        local_queued.append(elapsed)
                    if got != answers[index]:
                        wrong += 1
                with lock:
                    run_fo.extend(local_fo)
                    run_queued.extend(local_queued)
                    run_mismatches[0] += wrong

            threads = [
                threading.Thread(target=drive, args=(trace,))
                for trace in workload.traces
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start

            snapshots = {
                trace.tenant_id: set(
                    svc.tenant(trace.tenant_id).intern_table.snapshot()
                )
                for trace in workload.traces
            }
            for trace in workload.traces:
                values = snapshots[trace.tenant_id]
                if not all(str(v).startswith(trace.prefix) for v in values):
                    zero_intern_collisions = False
            ids = sorted(snapshots)
            for i, left in enumerate(ids):
                for right in ids[i + 1 :]:
                    if snapshots[left] & snapshots[right]:
                        zero_intern_collisions = False

            stats = svc.stats()
            service_totals = stats["totals"]
            per_tenant_rows = [
                {
                    "tenant": trace.tenant_id,
                    "facts": stats["tenants"][trace.tenant_id]["facts"],
                    "reads": trace.reads,
                    "writes": trace.writes,
                    "intern_constants": stats["tenants"][trace.tenant_id][
                        "intern_memory"
                    ]["constants"],
                    "intern_bytes": stats["tenants"][trace.tenant_id][
                        "intern_memory"
                    ]["total_bytes"],
                    "inline_served": stats["tenants"][trace.tenant_id][
                        "admission"
                    ]["inline_served"],
                    "queued": stats["tenants"][trace.tenant_id]["admission"][
                        "queued"
                    ],
                    "rejected": stats["tenants"][trace.tenant_id]["admission"][
                        "rejected"
                    ],
                    "stale_reads": stats["tenants"][trace.tenant_id][
                        "staleness"
                    ]["stale_reads"],
                }
                for trace in workload.traces
            ]

        mismatches += run_mismatches[0]
        if seconds < concurrent_seconds:
            concurrent_seconds = seconds
            fo_latencies = run_fo
            queued_latencies = run_queued

    return {
        "benchmark": "service_load",
        "fo_query": str(workload.fo_query),
        "queued_query": str(workload.queued_query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "tenants": num_tenants,
        "steps_per_tenant": steps,
        "max_workers": max_workers,
        "queue_depth_cap": queue_depth,
        "fo_requests": len(fo_latencies),
        "queued_requests": len(queued_latencies),
        "fo_p50_seconds": _percentile(fo_latencies, 0.5),
        "fo_p95_seconds": _percentile(fo_latencies, 0.95),
        "queued_p50_seconds": _percentile(queued_latencies, 0.5),
        "queued_p95_seconds": _percentile(queued_latencies, 0.95),
        "sequential_seconds": sequential_seconds,
        "concurrent_seconds": concurrent_seconds,
        "throughput_ratio_vs_sequential": (
            sequential_seconds / concurrent_seconds
            if concurrent_seconds
            else None
        ),
        "all_answers_match": mismatches == 0,
        "answer_mismatches": mismatches,
        "zero_intern_collisions": zero_intern_collisions,
        "service_totals": service_totals,
        "per_tenant": per_tenant_rows,
    }


#: durability suite: mutations before the checkpoint and planted chains.
DURABILITY_PRE_MUTATIONS = 2_000
DURABILITY_CHAINS = 48


def run_durability_benchmark(
    tails: Sequence[int],
    pre_mutations: int = DURABILITY_PRE_MUTATIONS,
    chains: int = DURABILITY_CHAINS,
    repeats: int = 3,
    seed: int = 43,
) -> Dict:
    """Cold restart (segment + changelog tail) vs full-history rebuild.

    Per tail, a recorded stream of ``pre_mutations + tail`` single-op
    batches runs against a durably attached database, checkpointing
    ``tail`` mutations before the end.  *Restart* opens the directory —
    segment decode plus exactly ``tail`` replayed changelog records — and
    returns a ready database.  *Rebuild* reconstructs the same database
    from an **empty** one by replaying the full recorded history (initial
    bulk load + every mutation batch), which is what a restart would cost
    without the durability tier.  Before any timing, the restarted
    database's facts, ``mutation_version``, and certain answers are
    asserted identical to the live pre-crash state (and the rebuild leg's
    likewise), so the guarded ratio can never trade correctness for speed.
    """
    query = chain_bench_query()
    results: List[Dict] = []
    all_agree = True
    with tempfile.TemporaryDirectory(prefix="repro-durability-") as base:
        for tail in tails:
            workdir = pathlib.Path(base) / f"tail{tail}"
            db = chain_bench_instance(query, chains, seed=seed)
            mutations = pre_mutations + tail
            # The full history an external source-of-truth would replay:
            # the initial bulk load, then every recorded mutation batch.
            history: List = [[("add", fact) for fact in sorted(db.facts, key=str)]]
            durable = DurableStore(workdir, sync="never").attach(db)
            for step, batch in enumerate(
                mutation_stream(
                    query, db, steps=mutations, seed=seed + 1, batch_range=(1, 1)
                )
            ):
                history.append(batch)
                apply_batch(db, batch)
                if step + 1 == pre_mutations:
                    durable.checkpoint()
            with CertaintySession(db) as live_session:
                ground_truth = live_session.certain_answers(query)
            live_facts = db.facts
            live_version = db.mutation_version
            durable.close()  # flush, then abandon — restart reads disk only

            def restart():
                store = DurableStore.open(workdir)
                return store, store.database()

            recovered_store, recovered_db = restart()
            with CertaintySession(recovered_db) as session:
                recovered_answers = session.certain_answers(query)
            agree = (
                recovered_db.facts == live_facts
                and recovered_db.mutation_version == live_version
                and recovered_answers == ground_truth
            )
            all_agree = all_agree and agree
            restart_seconds = _best_of(repeats, restart)

            def rebuild():
                rebuilt = UncertainDatabase()
                for batch in history:
                    apply_batch(rebuilt, batch)
                return rebuilt

            rebuilt_db = rebuild()
            with CertaintySession(rebuilt_db) as session:
                agree = agree and rebuilt_db.facts == live_facts
                agree = agree and session.certain_answers(query) == ground_truth
            all_agree = all_agree and agree
            rebuild_seconds = _best_of(repeats, rebuild)

            wal_files = list(workdir.glob("wal-*.log"))
            segment_files = list(workdir.glob("segment-*.seg"))
            results.append(
                {
                    "tail": tail,
                    "facts": len(live_facts),
                    "mutations": mutations,
                    "replayed_records": recovered_store.stats.replayed_records,
                    "segment_bytes": sum(p.stat().st_size for p in segment_files),
                    "wal_bytes": sum(p.stat().st_size for p in wal_files),
                    "epoch": recovered_store.epoch,
                    "restart_seconds": restart_seconds,
                    "rebuild_seconds": rebuild_seconds,
                    "speedup_restart_vs_rebuild": (
                        rebuild_seconds / restart_seconds if restart_seconds else None
                    ),
                    "agree": agree,
                }
            )
    return {
        "benchmark": "durability",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "planted_chains": chains,
        "pre_mutations": pre_mutations,
        "results": results,
        "all_agree": all_agree,
    }


#: Shard workers under chaos.  Two is enough to exercise routing around a
#: dead shard while keeping the spawn cost CI-friendly.
FAULT_RECOVERY_SHARDS = 2


def fault_recovery_plan(shards: int) -> FaultPlan:
    """The deterministic chaos schedule the sharded leg replays under.

    Worker kills are pinned per shard by *command arrival*, so each
    freshly restarted worker dies again a few commands later — the stream
    exercises repeated kill → inline-serve → restart → re-bootstrap
    cycles, not one isolated crash.  The pipe drop lands parent-side and
    exercises the send-path failure handling as well as worker exits.
    """
    specs = [FaultSpec("shard.worker.command", "kill", at=4, shard=0)]
    if shards > 1:
        specs.append(FaultSpec("shard.worker.command", "kill", at=6, shard=1))
    specs.append(FaultSpec("shard.pipe", "drop", at=9))
    return FaultPlan(specs)


def _fault_recovery_shard_leg(
    db0, batches, query, shards: int, repeats: int, plan: Optional[FaultPlan]
) -> Dict:
    """Replay the recorded stream on a supervised sharded session.

    With *plan* the replay runs under injection; either way the per-step
    answers are returned for the caller's identity check, along with the
    p50 of ordinary and of recovery dispatches.  Best-of-*repeats* on
    total seconds; the step split comes from the fastest run.
    """
    best: Dict = {"seconds": float("inf")}
    for _ in range(repeats):
        replay = _replay_sharded(
            db0, batches, query, shards, plan=plan, restart_backoff=0.0
        )
        if replay["seconds"] < best["seconds"]:
            recovery, ordinary = replay["recovery_seconds"], replay["ordinary_seconds"]
            stats = replay["stats"]
            best = {
                "seconds": replay["seconds"],
                "per_step": replay["per_step"],
                "step_p50": statistics.median(ordinary) if ordinary else None,
                "recovery_p50": statistics.median(recovery) if recovery else None,
                "recovery_max": max(recovery) if recovery else None,
                "recovery_dispatches": len(recovery),
                "worker_failures": stats.worker_failures,
                "worker_restarts": stats.worker_restarts,
                "degradations": stats.degradations,
                "deadline_timeouts": stats.deadline_timeouts,
            }
        elif plan is not None and best.get("per_step") != replay["per_step"]:
            # Identity must hold on every repeat, not just the fastest.
            best["per_step"] = None
    return best


def _fault_recovery_durability_leg(
    query, size: int, steps: int, repeats: int, seed: int
) -> Dict:
    """Commit a stream under injected WAL faults, crash, recover, diff.

    Every batch the store acknowledges (``apply_batch`` returned without a
    :class:`DurabilityError`) must survive the crash: the recovered facts,
    ``mutation_version``, and certain answers are compared against the
    live pre-crash state.  The injected faults are single-shot, so the
    write path's truncate-and-retry must absorb each one — a lost batch
    here means the store acknowledged a commit it never made durable.
    """
    plan = FaultPlan(
        (
            FaultSpec("wal.fsync", "error", at=2),
            FaultSpec("wal.write", "torn", at=4),
            FaultSpec("wal.fsync", "error", at=7),
        )
    )
    with tempfile.TemporaryDirectory(prefix="repro-fault-recovery-") as base:
        workdir = pathlib.Path(base) / "store"
        db = sharded_bench_instance(query, size, seed=seed)
        batches = _record_stream(query, db, steps, seed=seed + 3)
        durable = DurableStore(workdir, sync="commit").attach(db)
        acknowledged = 0
        with inject(plan) as injector:
            for batch in batches:
                apply_batch(db, batch)
                acknowledged += 1
            injected = len(injector.fired)
        with CertaintySession(db) as live_session:
            ground_truth = live_session.certain_answers(query)
        live_facts = db.facts
        live_version = db.mutation_version
        wal_reopens = durable.stats.wal_reopens
        durable.simulate_crash()

        def recover():
            store = DurableStore.open(workdir)
            return store, store.database()

        recovered_store, recovered_db = recover()
        with CertaintySession(recovered_db) as session:
            recovered_answers = session.certain_answers(query)
        zero_lost = (
            recovered_db.facts == live_facts
            and recovered_db.mutation_version == live_version
        )
        agree = zero_lost and recovered_answers == ground_truth
        recover_seconds = _best_of(repeats, recover)
        return {
            "batches": len(batches),
            "acknowledged": acknowledged,
            "injected_faults": injected,
            "wal_reopens": wal_reopens,
            "replayed_records": recovered_store.stats.replayed_records,
            "recover_seconds": recover_seconds,
            "zero_acknowledged_lost": zero_lost,
            "agree": agree,
        }


def run_fault_recovery_benchmark(
    sizes: Sequence[int], steps: int, repeats: int = 2, seed: int = 29
) -> Dict:
    """Clean vs chaos sharded replay, plus a crash-recovery durability leg.

    Per size the same pre-recorded batches replay three times: on a
    sequential :class:`CertaintySession` (per-step ground truth), on a
    fault-free :class:`ShardedCertaintySession`, and on an identically
    configured one under :func:`fault_recovery_plan`.  Every per-step
    answer set under chaos must equal the sequential replay — the faults
    may cost latency, never answers.  Both headline ratios are framed
    bigger-is-better: ``throughput_retained_under_faults`` (clean seconds
    over chaos seconds) and ``recovery_responsiveness`` (fault-free step
    p50 over post-kill dispatch p50).
    """
    query = sharded_bench_query()
    shards = FAULT_RECOVERY_SHARDS
    results: List[Dict] = []
    all_agree = True
    faults_exercised = True
    for size in sizes:
        db0 = sharded_bench_instance(query, size, seed=seed)
        batches = _record_stream(query, db0, steps, seed=seed + 7)

        expected = None
        for _ in range(repeats):
            _seconds, per_step = _replay_sequential(db0, batches, query)
            expected = per_step

        clean = _fault_recovery_shard_leg(
            db0, batches, query, shards, repeats, plan=None
        )
        chaos = _fault_recovery_shard_leg(
            db0, batches, query, shards, repeats, plan=fault_recovery_plan(shards)
        )
        agree = clean["per_step"] == expected and chaos["per_step"] == expected
        all_agree = all_agree and agree
        faults_exercised = faults_exercised and chaos["worker_failures"] > 0
        recovery_p50 = chaos["recovery_p50"]
        clean_p50 = clean["step_p50"]
        results.append(
            {
                "size": size,
                "facts": len(db0),
                "steps": len(batches),
                "worker_failures": chaos["worker_failures"],
                "worker_restarts": chaos["worker_restarts"],
                "recovery_dispatches": chaos["recovery_dispatches"],
                "degradations": chaos["degradations"],
                "deadline_timeouts": chaos["deadline_timeouts"],
                "clean_seconds": clean["seconds"],
                "chaos_seconds": chaos["seconds"],
                "throughput_retained_under_faults": (
                    clean["seconds"] / chaos["seconds"] if chaos["seconds"] else None
                ),
                "clean_step_p50_seconds": clean_p50,
                "recovery_p50_seconds": recovery_p50,
                "recovery_max_seconds": chaos["recovery_max"],
                "recovery_responsiveness": (
                    clean_p50 / recovery_p50 if clean_p50 and recovery_p50 else None
                ),
                "agree": agree,
            }
        )
    durability = _fault_recovery_durability_leg(
        query, max(sizes), steps, repeats, seed=seed + 11
    )
    return {
        "benchmark": "fault_recovery",
        "query": str(query),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "shards": shards,
        "fault_plan": [list(spec) for spec in fault_recovery_plan(shards).specs],
        "results": results,
        "durability": durability,
        "all_agree": all_agree and durability["agree"],
        "faults_exercised": faults_exercised and durability["injected_faults"] > 0,
        "zero_acknowledged_lost": durability["zero_acknowledged_lost"],
    }


@dataclass(frozen=True)
class Runner:
    """How :func:`main` runs one suite: ``run(sizes, **options)``."""

    run: Callable[..., Dict]
    #: ``(sizes, options)`` of a full run and of a ``--smoke`` run.
    full: Tuple[Sequence[int], Dict]
    smoke: Tuple[Sequence[int], Dict]


#: Every suite, by ``--suite`` name.  What each report must satisfy lives
#: in ``check_bench_regression.SUITES``; the workloads are described by
#: the ``run_*`` docstrings.  Where a ratio is guarded, the smoke sizes are
#: a prefix of (or shared with) the full sizes, so the committed baseline
#: always covers the rows the guard compares; and those suites run
#: best-of-3 or more even when smoke-sized, since single millisecond-scale
#: samples on a shared runner are too noisy to guard on.
RUNNERS: Dict[str, Runner] = {
    # Active-domain sizes n; facts grow linearly in n.
    "fo_rewriting": Runner(
        run_benchmark,
        full=((8, 16, 32, 64, 96), {"repeats": 3}),
        smoke=((8, 16), {"repeats": 1}),
    ),
    # Planted same-key pairs (candidate volume); ``steps`` mutation batches
    # are interleaved with reads in the replayed stream.
    "sharded_runtime": Runner(
        run_sharded_benchmark,
        full=((64, 256), {"steps": 12, "repeats": 3}),
        smoke=((16, 48), {"steps": 5, "repeats": 1}),
    ),
    # Planted chains; ``mutations`` single-block mutations applied (and
    # differentially checked) per size.
    "incremental_views": Runner(
        run_incremental_benchmark,
        full=((64, 256, 1024), {"mutations": 12}),
        smoke=((16, 48), {"mutations": 6}),
    ),
    # Planted chains.
    "columnar_store": Runner(
        run_columnar_benchmark,
        full=((16, 48, 64, 256, 1024), {"repeats": 3}),
        smoke=((16, 48), {"repeats": 3}),
    ),
    # Scale parameter per band: chains / planted witnesses / ring copies /
    # conflict gadgets, depending on the band.
    "all_bands": Runner(
        run_all_bands_benchmark,
        full=((8, 16, 64, 256), {"repeats": 3}),
        smoke=((8, 16), {"repeats": 3}),
    ),
    # Concurrent tenants (``--sizes`` gives it as its first value) and
    # per-tenant trace lengths.
    "service_load": Runner(
        lambda sizes, **options: run_service_load_benchmark(sizes[0], **options),
        full=((8,), {"steps": 48, "repeats": 3}),
        smoke=((8,), {"steps": 12, "repeats": 1}),
    ),
    # Changelog tails replayed on restart.  Each tail row runs a stream of
    # ``DURABILITY_PRE_MUTATIONS + tail`` single-op batches, checkpointing
    # ``tail`` mutations before the end, so a (chains, tail) cell is the
    # same workload in smoke and full runs.
    "durability": Runner(
        run_durability_benchmark,
        full=((0, 1_000, 10_000), {"repeats": 3}),
        smoke=((0, 1_000), {"repeats": 3}),
    ),
    # Planted same-key pairs per replayed stream (the sharded_runtime
    # workload, so the chaos numbers are comparable to the clean suite's).
    "fault_recovery": Runner(
        run_fault_recovery_benchmark,
        full=((48, 96), {"steps": 10, "repeats": 2}),
        smoke=((16,), {"steps": 5, "repeats": 2}),
    ),
}


def _print_report(node: Dict, indent: str = "") -> None:
    """Print *node*'s scalar fields on one line, then each nested row below."""
    scalars, nested = [], []
    for key, value in node.items():
        rows = [value] if isinstance(value, dict) else value
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            nested.append((key, rows))
        elif isinstance(value, float):
            scalars.append(f"{key}={value:.4g}")
        else:
            scalars.append(f"{key}={value}")
    print(indent + " ".join(scalars))
    for key, rows in nested:
        print(f"{indent}  {key}:")
        for row in rows:
            _print_report(row, indent + "    ")


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=tuple(RUNNERS),
        default="fo_rewriting",
        help="which benchmark suite to run",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (small sizes, one repeat)"
    )
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="*",
        default=None,
        help="explicit scaling sizes (fo_rewriting: domain sizes)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=None,
        help="where to write the JSON report (default: BENCH_<suite>.json)",
    )
    args = parser.parse_args(list(argv) or None)
    output = args.output
    if output is None:
        root = pathlib.Path(__file__).resolve().parents[1]
        output = root / f"BENCH_{args.suite}.json"
    runner = RUNNERS[args.suite]
    sizes, options = runner.smoke if args.smoke else runner.full
    report = runner.run(args.sizes or sizes, **options)
    output.write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report)
    print(f"wrote {output}")
    return check_identity(report)


if __name__ == "__main__":
    raise SystemExit(main())
