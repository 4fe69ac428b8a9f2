"""The benchmark's workloads and step 1 of the runner.

Each workload drives the public ``repro`` API as one closed-loop client:
every request waits for the previous reply.  Run as a script, this module
is step 1: it generates one workload's inputs from the seed, sets the
serving state up several times, runs the timed loop with restarts spread
over it, checks every answer outside the timing, and writes one raw JSON
record per run (per-op ``[kind, start, end, ok]`` rows plus set-up,
recovery and check results).  ``run.py`` derives the metrics from that record (step 2).

    PYTHONPATH=src:perfbench python3 perfbench/workloads.py \\
        --workload fo_stream --seed 1 --seconds 10 --trace 0 --out raw.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs as I
from repro import (
    CertaintyService,
    CertaintySession,
    PlanCache,
    ShardedCertaintySession,
    UncertainDatabase,
    certain_answers,
    certain_brute_force,
    classify_cached,
    cycle_query_c,
    default_plan_cache,
    figure2_q1,
    figure4_query,
    global_intern_table,
    is_certain,
)
from repro.fo.rewrite import certain_rewriting_cached
from repro.query.substitution import ground_free_variables
from repro.workloads import apply_batch

#: Where raw records and durable directories go (relative to the checkout).
RAW_DIR = ".perfbench_runs"
#: Every this many reads of the timed loop, the read's state is also
#: recomputed by a cold CertaintySession replay (every read is checked
#: against the independent path-query oracle).
COLD_EVERY = 8
#: ``durable_churn``: a view read after every WRITES_PER_READ writes, a
#: queued Theorem 4 read after every QUEUED_EVERY view reads, and a
#: checkpoint after every CHECKPOINT_EVERY writes.
WRITES_PER_READ = 4
QUEUED_EVERY = 4
CHECKPOINT_EVERY = 256
#: ``durable_churn``: writes in the WAL tail every restart replays, after
#: the checkpoint of the initial facts, so every restart recovers the same
#: segment and tail however far the loop got.
RECOVERY_TAIL = 128
#: ``durable_churn``'s WAL policy: every commit is written and flushed to
#: the OS, so it survives the process dying.  Not ``"commit"``: on a
#: 2-vCPU VM with a shared ext4 disk, the fsync of every commit moved
#: write p50 by up to 30% between sets of runs of the same code, so write
#: latency measured the disk rather than the program.
DURABILITY_SYNC = "flush"
#: Ad-hoc verdicts re-decided by brute force per ``oneshot_frontier`` run.
BRUTE_FORCE_SAMPLE = 16
#: Pairs of rounds (one traced, one untraced) of a traced run: fixed
#: work, so per-layer totals compare across commits.
TRACE_ROUNDS = {"fo_stream": 24, "fo_stream_sharded": 24,
                "oneshot_frontier": 12, "durable_churn": 20}

Answers = Tuple[Tuple[str, ...], ...]


def canon(answers) -> Answers:
    """A hashable, order-free form of an answer set of constant tuples."""
    return tuple(sorted(tuple(str(c.value) for c in row) for row in answers))


def path_oracle(by_relation: Dict[str, Dict[str, set]]) -> Answers:
    """Certain answers of ``(x1) :- P1(x1|x2), P2(x2|x3), P3(x3|x4)``.

    Written from the definition, independent of the engine: ``a`` is
    certain iff its P1 block is non-empty and every ``b`` it claims has a
    non-empty P2 block every ``c`` of which has a non-empty P3 block.  Each
    path visits one block per relation, so the blocks choose independently.
    """
    p1, p2, p3 = by_relation["P1"], by_relation["P2"], by_relation["P3"]
    good2 = {b: all(c in p3 for c in cs) for b, cs in p2.items()}
    return tuple(sorted((a,) for a, bs in p1.items() if all(good2.get(b, False) for b in bs)))


class PathState:
    """Block contents of the path relations, maintained op by op."""

    def __init__(self, facts) -> None:
        self.blocks: Dict[str, Dict[str, set]] = {"P1": {}, "P2": {}, "P3": {}}
        for fact in facts:
            self.apply(("add", fact))

    def apply(self, op) -> None:
        kind, fact = op
        rel = self.blocks.get(fact.relation.name)
        if rel is None:
            return
        key, value = (str(c.value) for c in fact.terms)
        if kind == "add":
            rel.setdefault(key, set()).add(value)
        else:
            values = rel[key]
            values.discard(value)
            if not values:
                del rel[key]

    def answers(self) -> Answers:
        return path_oracle(self.blocks)


class Replay:
    """Moves a fact state along the palindrome of recorded batches."""

    def __init__(self, batches, apply: Callable) -> None:
        self.batches = batches
        self.apply = apply
        self.state = 0

    def goto(self, target: int) -> None:
        while self.state < target:
            self.apply(self.batches[self.state])
            self.state += 1
        while self.state > target:
            self.state -= 1
            self.apply(I.invert(self.batches[self.state]))


class PathReference:
    """Reference answers of the path query along the recorded palindrome.

    :meth:`oracle` is the independent :func:`path_oracle` for any state;
    :meth:`cold` recomputes a state with a cold CertaintySession (fresh
    database, private plan cache) replaying the batches.
    """

    def __init__(self, query, facts, batches) -> None:
        self.query = query
        self.blocks = PathState(facts)
        self.replay = Replay(batches, lambda b: [self.blocks.apply(op) for op in b])
        self.db = UncertainDatabase(facts)
        self.session = CertaintySession(self.db, plan_cache=PlanCache())
        self.cold_replay = Replay(batches, lambda b: apply_batch(self.db, b))

    def oracle(self, state: int) -> Answers:
        self.replay.goto(state)
        return self.blocks.answers()

    def cold(self, state: int) -> Answers:
        self.cold_replay.goto(state)
        return canon(self.session.certain_answers(self.query))

    def close(self) -> None:
        self.session.close()


class OpLog:
    """Raw per-op records ``[kind, start, end, ok]`` of one timed loop."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.errors: Dict[str, int] = {}

    def run(self, kind: str, fn: Callable, *args):
        start = time.perf_counter()
        try:
            result, ok = fn(*args), True
        except Exception as exc:  # a failed op is counted, never fatal
            result, ok = None, False
            self.errors[type(exc).__name__] = self.errors.get(type(exc).__name__, 0) + 1
        self.records.append([kind, start, time.perf_counter(), ok])
        return result

    def mark_wrong(self, index: int) -> None:
        self.records[index][3] = False


def clear_plan_caches() -> None:
    """Forget compiled plans, so every set-up pays the same compile work."""
    default_plan_cache().clear()
    classify_cached.cache_clear()
    certain_rewriting_cached.cache_clear()


class Workload:
    """One workload: its inputs, serving state, op rounds and checks.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name = ""
    #: Set-ups per run, whose median is ``setup_s``.
    setups = 5
    #: Restarts per run, whose median is ``recovery_s``.  They are spread
    #: over the timed window, between op rounds, so that they see the same
    #: machine conditions as the ops: on a shared 2-vCPU VM the CPU time of
    #: a fixed sub-second rebuild moved by up to 1.6x in phases of seconds.
    restarts = 5

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inp: dict):
        """Build the serving state and answer one verified warm-up read."""
        raise NotImplementedError

    def round(self, st, inp: dict, log: OpLog, step: int) -> int:
        """Run one round of ops starting at *step*; returns the next step."""
        raise NotImplementedError

    def restart(self, st, inp: dict, repeat: int):
        """After the loop: bring the state back as a restart would."""
        raise NotImplementedError

    def check(self, st, inp: dict, log: OpLog) -> dict:
        """Verify every recorded answer; marks wrong ones failed."""
        raise NotImplementedError

    def close(self, st) -> None:
        st["close"]()

    def stats_sources(self, st) -> dict:
        """The program's own stats objects the traced run reads."""
        raise NotImplementedError


# -- fo_stream / fo_stream_sharded ------------------------------------------------


class FoStream(Workload):
    """Write a recorded batch, then read the certain answers, per round.

    ``fo_stream`` itself is the baseline ``run.BASELINE``, not a listed
    workload; :class:`FoStreamSharded` is.
    """

    name = "fo_stream"
    sharded = False
    restarts = 11

    def make_inputs(self, seed: int) -> dict:
        query = I.fo_query()
        facts = I.chain_instance(query, I.STREAM_CHAINS, I.rng_for(seed, "chains"))
        batches = I.chain_stream(query, facts, I.STREAM_CHAINS, I.STREAM_STEPS,
                                 I.rng_for(seed, "stream"))
        return {"query": query, "facts": facts, "batches": batches,
                "sha256": I.digest([query] + facts + batches)}

    def _serve(self, facts):
        db = UncertainDatabase(facts)
        if self.sharded:
            session = ShardedCertaintySession(db, n_shards=2)
        else:
            session = CertaintySession(db)
        return db, session

    def setup(self, inp: dict):
        db, session = self._serve(inp["facts"])
        first = canon(session.certain_answers(inp["query"]))
        return {"db": db, "session": session, "first": first, "reads": [],
                "close": session.close}

    def round(self, st, inp, log, step):
        batch, state = I.palindrome_step(inp["batches"], step)
        log.run("write", apply_batch, st["db"], batch)
        answers = log.run("read", st["session"].certain_answers, inp["query"])
        st["reads"].append((len(log.records) - 1, state,
                            None if answers is None else canon(answers)))
        return step + 1

    def restart(self, st, inp, repeat):
        """Rebuild the serving state from the facts of a recorded state.

        Restart *r* takes the state after ``(r + 1/2) / restarts`` of the
        forward stream, so the median covers states spread over the
        stream, the same in every run of a seed, rather than the state the
        loop happens to be at.
        """
        batches = inp["batches"]
        live = set(inp["facts"])
        for batch in batches[:(2 * repeat + 1) * len(batches) // (2 * self.restarts)]:
            for kind, fact in batch:
                (live.add if kind == "add" else live.discard)(fact)
        facts = I.sorted_facts(live)
        start = time.perf_counter()
        db, session = self._serve(facts)
        answers = canon(session.certain_answers(inp["query"]))
        elapsed = time.perf_counter() - start
        ok = answers == PathState(facts).answers() and (not self.sharded or session.pool_started)
        session.close()
        return elapsed, ok

    def check(self, st, inp, log):
        ref = PathReference(inp["query"], inp["facts"], inp["batches"])
        wrong = int(st["first"] != ref.oracle(0))
        cold_checked = 0
        digests = []
        reads = st["reads"]
        for n, (index, state, answers) in enumerate(reads):
            expected = ref.oracle(state)
            if n % COLD_EVERY == 0 or n == len(reads) - 1:
                cold_checked += 1
                wrong += ref.cold(state) != expected
            digests.append(I.digest(expected)[:16])
            if answers != expected:
                wrong += 1
                log.mark_wrong(index)
        ref.close()
        return {"wrong": wrong, "reads_checked": len(reads), "cold_checked": cold_checked,
                "answer_digests": digests}

    def stats_sources(self, st):
        session = st["session"]
        sources = {"plan_caches": [default_plan_cache()], "intern": global_intern_table()}
        if self.sharded:
            sources["shards"] = session
        return sources


class FoStreamSharded(FoStream):
    """``fo_stream`` served by ``ShardedCertaintySession(n_shards=2)``."""

    name = "fo_stream_sharded"
    sharded = True
    #: Each set-up and restart starts a worker pool (about a second).
    setups = 3

    def check(self, st, inp, log):
        """Also label a run whose pool never started: every verdict then
        came from the parent, so its reads count failed rather than stand
        as a shard number."""
        result = super().check(st, inp, log)
        session = st["session"]
        result["pool_started"] = session.pool_started
        result["worker_failures"] = session.stats.worker_failures
        result["degraded_decides"] = session.stats.degraded_decides
        if not session.pool_started:
            for index, _, _ in st["reads"]:
                log.mark_wrong(index)
            result["label"] = "POOL NEVER STARTED: parent-served, not a shard number"
        return result


# -- oneshot_frontier --------------------------------------------------------------


class OneshotFrontier(Workload):
    """Per round: toggle one fact and make one one-shot call per band
    database, then one-shot calls of ADHOC_PER_ROUND first-seen queries."""

    name = "oneshot_frontier"
    #: Restarts of about 0.6 s each vary by 1.5x within a run.
    restarts = 13

    def make_inputs(self, seed: int) -> dict:
        fo = I.fo_query()
        fo_facts = I.chain_instance(fo, I.SMALL_CHAINS, I.rng_for(seed, "chains"))
        f4 = figure4_query()
        t3_facts = I.planted_instance(f4, I.rng_for(seed, "t3"), 2 * I.T3_WITNESSES,
                                      I.T3_WITNESSES, I.T3_WITNESSES, 0.6)
        t3_witness, t3_breaker = I.unbreakable_witness(f4)
        c3 = cycle_query_c(3)
        t4_facts, t4_breaker = I.ring_instance(3, I.T4_COPIES, I.T4_COPIES // 4,
                                               I.rng_for(seed, "t4"))
        q1 = figure2_q1()
        conp_facts, unbreakable = I.conp_instance(I.CONP_GADGETS)
        # Each band's toggle changes its answer: a dead claim in a certain
        # chain's root block, and a conflict in the block of a planted
        # witness that (without it) is in every repair.  The rest of each
        # instance is falsifiable on its own: the ring and the coNP gadgets
        # by construction, the Theorem 3 noise at a conflict rate at which
        # it was for every seed tried (the check records how many distinct
        # answers each band gave).
        rng = I.rng_for(seed, "toggles")
        roots = [root for root, in PathState(fo_facts).answers()] or ["s0"]
        root = roots[rng.randrange(len(roots))]
        bands = [
            # (name, query, initial facts, toggled fact, exponential allowed)
            ("fo", fo, fo_facts, fo.atoms[0].relation.fact(root, f"dead-{root}"), False),
            ("t3", f4, I.sorted_facts(t3_facts + t3_witness), t3_breaker, False),
            # Certain exactly when the breaker is absent (see ring_instance).
            ("t4", c3, t4_facts, t4_breaker, False),
            ("conp", q1, conp_facts + unbreakable[:3], unbreakable[3], True),
        ]
        schema = I.adhoc_schema(I.rng_for(seed, "adhoc-schema"))
        adhoc = I.adhoc_queries(schema, I.ADHOC_POOL, I.rng_for(seed, "adhoc"))
        adhoc_facts = I.adhoc_instance(schema, I.rng_for(seed, "adhoc-db"))
        parts = []
        for name, query, facts, toggle, _ in bands:
            parts += [name, query, toggle] + facts
        parts += adhoc + adhoc_facts
        return {"bands": bands, "adhoc": adhoc, "adhoc_facts": adhoc_facts,
                "sha256": I.digest(parts)}

    #: Ad-hoc reads per round (the band reads are one each).
    ADHOC_PER_ROUND = 8

    @staticmethod
    def _call(db, query, allow):
        if query.is_boolean:
            return is_certain(db, query, allow_exponential=allow)
        return certain_answers(db, query, allow_exponential=allow)

    def _read(self, log, db, query, allow):
        result = log.run("read", self._call, db, query, allow)
        return result if result is None or isinstance(result, bool) else canon(result)

    def setup(self, inp):
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 50_000))
        dbs = [UncertainDatabase(facts) for _, _, facts, _, _ in inp["bands"]]
        adhoc_db = UncertainDatabase(inp["adhoc_facts"])
        _, query, _, _, allow = inp["bands"][0]
        first = canon(self._call(dbs[0], query, allow))
        present = [toggle in set(facts) for _, _, facts, toggle, _ in inp["bands"]]
        return {"dbs": dbs, "adhoc_db": adhoc_db, "first": first, "reads": [],
                "present": present, "adhoc_next": 0, "rounds": 0, "close": lambda: None}

    def _toggle(self, db, fact, present):
        if present:
            db.discard(fact)
        else:
            db.add(fact)

    def round(self, st, inp, log, step):
        for b, (_, query, _, toggle, allow) in enumerate(inp["bands"]):
            log.run("write", self._toggle, st["dbs"][b], toggle, st["present"][b])
            st["present"][b] = not st["present"][b]
            result = self._read(log, st["dbs"][b], query, allow)
            st["reads"].append((len(log.records) - 1, ("band", b, st["present"][b]), result))
        for _ in range(self.ADHOC_PER_ROUND):
            q = st["adhoc_next"] % len(inp["adhoc"])
            st["adhoc_next"] += 1
            result = self._read(log, st["adhoc_db"], inp["adhoc"][q], False)
            st["reads"].append((len(log.records) - 1, ("adhoc", q), result))
        st["rounds"] += 1
        return step + 1

    def restart(self, st, inp, repeat):
        """A fresh process's first calls: every band database rebuilt in
        both states the loop visits (toggle absent and present, so the work
        does not depend on where the loop is), plans compiled again (so
        the next round's band reads compile theirs again too).  Every
        answer must equal its reference (computed outside the timing)."""
        clear_plan_caches()
        cases = [(b, present) for b in range(len(inp["bands"])) for present in (False, True)]
        states = [self._band_state(inp["bands"][b], present) for b, present in cases]
        start = time.perf_counter()
        results = [self._call(UncertainDatabase(facts), inp["bands"][b][1], inp["bands"][b][4])
                   for (b, _), facts in zip(cases, states)]
        elapsed = time.perf_counter() - start
        ok = True
        for (b, present), result in zip(cases, results):
            expected, agree = self._band_expected(st, inp, b, present)
            ok = ok and agree and (result if isinstance(result, bool) else canon(result)) == expected
        return elapsed, ok

    @staticmethod
    def _band_state(band, present):
        facts, toggle = band[2], band[3]
        return [f for f in facts if f != toggle] + ([toggle] if present else [])

    def _band_expected(self, st, inp, b, present):
        """``(expected answer, cold session agrees)`` of band *b*'s state
        with its toggle *present* or not; computed once per run.

        The FO band's answer comes from the path oracle, the Theorem 4
        band's from its construction (certain exactly when the breaker is
        absent) and the coNP band's from its (certain exactly when the
        unbreakable witness is complete), so a solver that is wrong both
        live and cold is still caught; the Theorem 3 band's answer is the
        cold session's.
        """
        refs = st.setdefault("band_refs", {})
        if (b, present) not in refs:
            name, query, _, _, allow = band = inp["bands"][b]
            facts = self._band_state(band, present)
            cold = self._reference(query, facts, allow)
            if name == "fo":
                expected = PathState(facts).answers()
            elif name == "t4":
                expected = not present
            elif name == "conp":
                expected = present
            else:
                expected = cold
            refs[b, present] = expected, cold == expected
        return refs[b, present]

    def _reference(self, query, facts, allow):
        with CertaintySession(UncertainDatabase(facts), plan_cache=PlanCache(),
                              allow_exponential=allow) as cold:
            if query.is_boolean:
                return cold.is_certain(query)
            return canon(cold.certain_answers(query))

    def check(self, st, inp, log):
        refs: Dict[tuple, object] = {}
        wrong = brute = 0
        fo_facts = inp["bands"][0][2]
        if st["first"] != PathState(fo_facts).answers():
            wrong += 1
        verdicts: Dict[str, set] = {name: set() for name, *_ in inp["bands"]}
        for index, key, result in st["reads"]:
            if key not in refs:
                if key[0] == "band":
                    refs[key], agree = self._band_expected(st, inp, key[1], key[2])
                    wrong += not agree
                else:
                    query = inp["adhoc"][key[1]]
                    refs[key] = self._reference(query, inp["adhoc_facts"], False)
                    if brute < BRUTE_FORCE_SAMPLE:
                        brute += 1
                        wrong += self._brute_force(query, inp["adhoc_facts"]) != refs[key]
            if key[0] == "band":
                verdicts[inp["bands"][key[1]][0]].add(I.digest([refs[key]])[:8])
            if result != refs[key]:
                wrong += 1
                log.mark_wrong(index)
        adhoc_reads = sum(1 for _, key, _ in st["reads"] if key[0] == "adhoc")
        return {"wrong": wrong, "reads_checked": len(st["reads"]),
                "distinct_references": len(refs), "brute_force_checked": brute,
                "rounds": st["rounds"], "adhoc_reads": adhoc_reads,
                "adhoc_repeats": max(0, adhoc_reads - len(inp["adhoc"])),
                "distinct_band_answers": {k: len(v) for k, v in verdicts.items()}}

    @staticmethod
    def _brute_force(query, facts):
        db = UncertainDatabase(facts)
        if query.is_boolean:
            return certain_brute_force(db, query)
        with CertaintySession(db) as session:
            candidates = {tuple(c.value for c in row) for row in session.candidate_answers(query)}
        certain = [row for row in candidates
                   if certain_brute_force(db, ground_free_variables(query, list(row)))]
        return tuple(sorted(tuple(str(v) for v in row) for row in certain))

    def stats_sources(self, st):
        return {"plan_caches": [default_plan_cache()], "intern": global_intern_table()}


# -- durable_churn -----------------------------------------------------------------


class DurableChurn(Workload):
    """One durable tenant of ``CertaintyService(max_workers=2,
    durability_sync=DURABILITY_SYNC)`` with a registered FO view and a
    Theorem 4 relation set; see :meth:`round`."""

    name = "durable_churn"
    restarts = 9

    def make_inputs(self, seed: int) -> dict:
        fo = I.fo_query()
        chain_facts = I.chain_instance(fo, I.SMALL_CHAINS, I.rng_for(seed, "chains"))
        ring_facts, breaker = I.ring_instance(3, I.T4_COPIES, I.T4_COPIES // 4,
                                              I.rng_for(seed, "t4"))
        batches = I.chain_stream(fo, chain_facts, I.SMALL_CHAINS, I.CHURN_STEPS,
                                 I.rng_for(seed, "churn"))
        # Every fifth batch also toggles a chord of the ring and every
        # seventh its planted cycle's breaker, so queued Theorem 4 reads see
        # a changing instance whose verdict changes too: the ring is certain
        # in state n exactly when the breaker is absent (``ring_certain``).
        c3 = cycle_query_c(3)
        rng = I.rng_for(seed, "chords")
        present = set(ring_facts)
        ring_certain = [True]
        for n, batch in enumerate(batches):
            toggles = [I.ring_chord(3, I.T4_COPIES, rng)] if n % 5 == 0 else []
            toggles += [breaker] if n % 7 == 3 else []
            for fact in toggles:
                if fact in present:
                    present.discard(fact)
                    batch.append(("discard", fact))
                else:
                    present.add(fact)
                    batch.append(("add", fact))
            ring_certain.append(breaker not in present)
        facts = I.sorted_facts(chain_facts + ring_facts)
        return {"query": fo, "ring_query": c3, "facts": facts, "batches": batches,
                "ring_certain": ring_certain,
                "sha256": I.digest([fo, c3] + facts + batches)}

    def __init__(self) -> None:
        self.root = os.path.abspath(RAW_DIR)

    def _service(self, directory):
        return CertaintyService(max_workers=2, durability_sync=DURABILITY_SYNC,
                                durability_dir=directory)

    def setup(self, inp):
        directory = os.path.join(self.root, f"durable-{os.getpid()}-{time.perf_counter_ns()}")
        svc = self._service(directory)
        tenant = svc.create_tenant("t", facts=inp["facts"])
        tenant.register_view(inp["query"])
        first = canon(tenant.view_answers(inp["query"]))

        def close():
            svc.close()
            shutil.rmtree(directory, ignore_errors=True)
            shutil.rmtree(directory + "-recovery", ignore_errors=True)

        return {"svc": svc, "dir": directory, "first": first, "reads": [],
                "close": close, "user_bytes": 0}

    def _view_read(self, svc, query):
        return svc.tenant("t").view_answers(query)

    def _queued_read(self, svc, query):
        return bool(svc.certain_answers("t", query, timeout=60.0))

    def round(self, st, inp, log, step):
        """QUEUED_EVERY times: WRITES_PER_READ writes, then a view read;
        then one queued read.  *step* counts writes."""
        svc = st["svc"]
        for _ in range(QUEUED_EVERY):
            for _ in range(WRITES_PER_READ):
                batch, state = I.palindrome_step(inp["batches"], step)
                st["user_bytes"] += sum(len(str(fact).encode()) for _, fact in batch)
                log.run("write", svc.apply, "t", batch)
                if step % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                    log.run("checkpoint", svc.checkpoint, "t")
                step += 1
            answers = log.run("read", self._view_read, svc, inp["query"])
            st["reads"].append((len(log.records) - 1, ("view", state),
                                None if answers is None else canon(answers)))
        verdict = log.run("read", self._queued_read, svc, inp["ring_query"])
        st["reads"].append((len(log.records) - 1, ("queued", state), verdict))
        return step

    def restart(self, st, inp, repeat):
        """Reopen a service over a copy of a durable directory: the
        checkpoint a tenant of the initial facts starts with, plus a WAL
        tail of the first RECOVERY_TAIL recorded writes.  The first restart
        prepares that directory (untimed) with a second service, beside the
        live one, which the restarts leave alone."""
        recovery = st["dir"] + "-recovery"
        if "final_facts" not in st:
            svc = self._service(recovery)
            svc.create_tenant("t", facts=inp["facts"])
            for batch in inp["batches"][:RECOVERY_TAIL]:
                svc.apply("t", batch)
            st["final_facts"] = sorted(svc.tenant("t").db.facts, key=I.fact_key)
            svc.close()  # a clean close: the WAL is flushed, no checkpoint
        copy = f"{st['dir']}-restart{repeat}"
        shutil.copytree(recovery, copy)
        start = time.perf_counter()
        svc = self._service(copy)
        tenant = svc.tenant("t")
        tenant.register_view(inp["query"])
        answers = canon(tenant.view_answers(inp["query"]))
        elapsed = time.perf_counter() - start
        recovered = sorted(tenant.db.facts, key=I.fact_key)
        ok = recovered == st["final_facts"] and answers == PathState(recovered).answers()
        svc.close()
        shutil.rmtree(copy, ignore_errors=True)
        return elapsed, ok

    def check(self, st, inp, log):
        """View reads against the path oracle (and a cold replay of every
        COLD_EVERY-th); every queued read against the ring's planted
        verdict and a cold session over the ring relations of its state."""
        ref = PathReference(inp["query"], inp["facts"], inp["batches"])
        # Certainty of the ring query depends only on the relations it
        # mentions, so its cold recompute runs over those facts alone.
        ring_names = {atom.relation.name for atom in inp["ring_query"].atoms}
        ring_state = {f for f in inp["facts"] if f.relation.name in ring_names}

        def apply_ring(batch):
            for kind, fact in batch:
                if fact.relation.name in ring_names:
                    (ring_state.add if kind == "add" else ring_state.discard)(fact)

        ring_replay = Replay(inp["batches"], apply_ring)
        wrong = int(st["first"] != ref.oracle(0))
        cold_checked = views = 0
        verdicts = set()
        for index, (kind, state), result in st["reads"]:
            if kind == "view":
                expected = ref.oracle(state)
                if views % COLD_EVERY == 0:
                    cold_checked += 1
                    wrong += ref.cold(state) != expected
                views += 1
            else:
                expected = inp["ring_certain"][state]
                verdicts.add(expected)
                ring_replay.goto(state)
                with CertaintySession(UncertainDatabase(I.sorted_facts(ring_state)),
                                      plan_cache=PlanCache()) as cold:
                    cold_checked += 1
                    wrong += cold.is_certain(inp["ring_query"]) != expected
            if result != expected:
                wrong += 1
                log.mark_wrong(index)
        ref.close()
        return {"wrong": wrong, "reads_checked": len(st["reads"]),
                "cold_checked": cold_checked, "queued_reads": len(st["reads"]) - views,
                "distinct_queued_verdicts": len(verdicts)}

    def stats_sources(self, st):
        tenant = st["svc"].tenant("t")
        return {"plan_caches": [tenant.session.plan_cache], "intern": tenant.intern_table,
                "durable": tenant.durable, "views": list(tenant.views.views),
                "admission": tenant.admission_stats}


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (FoStream(), FoStreamSharded(), OneshotFrontier(), DurableChurn())
}


# -- step 1 -----------------------------------------------------------------------


def environment(workload: Workload) -> dict:
    env = {"cpu_count": os.cpu_count(), "python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "pythonhashseed": os.environ.get("PYTHONHASHSEED")}
    if isinstance(workload, DurableChurn):
        env["fsync_policy"] = DURABILITY_SYNC
        env["durability_filesystem"] = filesystem_of(workload.root)
    return env


def filesystem_of(path: str) -> str:
    """The type of the filesystem *path* lives on, from /proc/mounts."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and (path + "/").startswith(fields[1].rstrip("/") + "/"):
                    if len(fields[1]) >= len(best):
                        best, fstype = fields[1], fields[2]
    except OSError:
        pass
    return fstype


def timed_loop(workload, st, inp, log, seconds, restart):
    """Closed loop: rounds back to back until *seconds* have passed.

    Restart *k* (run by *restart*) falls between the rounds at
    ``(k + 1/2) / restarts`` of the window.  Returns the time spent in
    rounds.
    """
    start = time.perf_counter()
    step, busy, done = 0, 0.0, 0
    while (now := time.perf_counter()) - start < seconds:
        if done < workload.restarts and now - start >= (done + 0.5) * seconds / workload.restarts:
            restart(done)
            done += 1
            continue
        step = workload.round(st, inp, log, step)
        busy += time.perf_counter() - now
    return busy


def traced_loop(workload, st, inp, log):
    """A fixed number of traced rounds, interleaved with as many untraced.

    Each pair of rounds runs one traced and one untraced, in an order drawn
    from a fixed RNG (a fixed alternation could line up with a periodic
    op, such as a checkpoint every few rounds), so both halves see the same
    states and machine conditions; the difference in their throughput is
    the tracing overhead.  Returns the per-layer metrics and the loop time.
    """
    from tracing import Tracer

    tracer = Tracer(workload, st, OpLog)
    order = I.rng_for(0, "trace-order")
    step, busy, ops, traced_records = 0, {True: 0.0, False: 0.0}, {True: 0, False: 0}, []
    for _ in range(TRACE_ROUNDS[workload.name]):
        for traced in ((True, False) if order.random() < 0.5 else (False, True)):
            first = len(log.records)
            if traced:
                with tracer:
                    start = time.perf_counter()
                    step = workload.round(st, inp, log, step)
                    busy[True] += time.perf_counter() - start
                traced_records += log.records[first:]
            else:
                start = time.perf_counter()
                step = workload.round(st, inp, log, step)
                busy[False] += time.perf_counter() - start
            ops[traced] += len(log.records) - first
    metrics = tracer.metrics(ops[True] / busy[True], ops[False] / busy[False], traced_records)
    return metrics, busy[True] + busy[False]


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    inp = workload.make_inputs(seed)
    os.makedirs(RAW_DIR, exist_ok=True)
    setups = []
    st = None
    for _ in range(workload.setups):
        if st is not None:
            workload.close(st)
        clear_plan_caches()
        gc.collect()
        start = time.perf_counter()
        st = workload.setup(inp)
        setups.append(time.perf_counter() - start)
    log = OpLog()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "inputs_sha256": inp["sha256"],
              "environment": environment(workload), "setup_s": setups}
    record["restart_s"], record["restart_ok"] = [], []

    def restart(repeat: int) -> None:
        gc.collect()
        elapsed, ok = workload.restart(st, inp, repeat)
        record["restart_s"].append(elapsed)
        record["restart_ok"].append(ok)

    try:
        if trace:
            record["layers"], record["loop_s"] = traced_loop(workload, st, inp, log)
        else:
            record["loop_s"] = timed_loop(workload, st, inp, log, seconds, restart)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(record["restart_s"]) < workload.restarts:
            restart(len(record["restart_s"]))
        record["check"] = workload.check(st, inp, log)
    finally:
        workload.close(st)
    record["ops"] = log.records
    record["op_errors"] = log.errors
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
