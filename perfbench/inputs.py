"""Benchmark inputs, generated from the workload seed alone.

Every generator here draws from a ``random.Random`` seeded with a string
(hashed with SHA-512 by the ``random`` module, never with ``hash()``) and
iterates only over lists and ranges or over sets sorted first, so the
instances, query pools and mutation streams are identical under every
``PYTHONHASHSEED``.  Each workload's inputs carry a :func:`digest` of
everything it receives (``inputs_sha256``); every run regenerates them in
a second interpreter under another hash seed and compares the digests.

The library's own generators (``synthetic_instance``,
``random_valuation``) iterate unordered sets and are not used.
"""

from __future__ import annotations

import hashlib
import random
import sys
from typing import List, Sequence, Tuple

from repro import (
    ConjunctiveQuery,
    Constant,
    Fact,
    RelationSchema,
    Variable,
    cycle_query_c,
    figure2_q1,
)
from repro.query.families import path_query

#: One mutation, in the form ``repro.workloads.apply_mutation`` accepts.
Op = Tuple[str, Fact]
Batch = List[Op]

#: Planted chains of the FO-band path-query instance of the two
#: ``fo_stream`` workloads (about 6.5k facts).
STREAM_CHAINS = 512
#: Recorded forward steps of the stream; the loop replays it as a
#: palindrome (forward, then every batch inverted in reverse order), so a
#: run of any length stays on recorded, reference-checked states.
STREAM_STEPS = 600
#: Planted chains of the smaller FO instances (``oneshot_frontier``'s FO
#: band and ``durable_churn``'s view).
SMALL_CHAINS = 256
#: Figure 4 planted witnesses (Theorem 3 band of ``oneshot_frontier``).
T3_WITNESSES = 48
#: Parallel 3-cycles of the C(3) ring (Theorem 4 band).
T4_COPIES = 96
#: Figure 2 ``q1`` conflict gadgets (coNP band, brute force).
CONP_GADGETS = 96
#: Ad-hoc FO queries, each read once per run: more than the 256 plans the
#: default cache holds, the 1024 classifications ``classify_cached`` keeps
#: and the 512 rewritings ``certain_rewriting_cached`` keeps, and several
#: times the eight per round a run reaches (about 60 rounds on two CPUs;
#: each run records its rounds and any repeated ad-hoc reads).
ADHOC_POOL = 2048
#: Relations of the shared ad-hoc schema, and facts per relation.
ADHOC_RELATIONS = 8
ADHOC_FACTS_PER_RELATION = 12
#: Recorded steps of ``durable_churn`` (replayed as a palindrome too).
CHURN_STEPS = 1500


def rng_for(seed: int, purpose: str) -> random.Random:
    """An RNG for one input stream; string seeds never go through hash()."""
    return random.Random(f"perfbench:{seed}:{purpose}")


def fact_key(fact: Fact) -> Tuple[str, Tuple[str, ...]]:
    return fact.relation.name, tuple(str(c) for c in fact.terms)


def sorted_facts(facts) -> List[Fact]:
    return sorted(set(facts), key=fact_key)


# -- instances -----------------------------------------------------------------


def fo_query() -> ConjunctiveQuery:
    """``(x1) :- P1(x1|x2), P2(x2|x3), P3(x3|x4)``: the FO-band open query."""
    return ConjunctiveQuery(path_query(3).atoms, free_variables=[Variable("x1")])


def chain_instance(query: ConjunctiveQuery, chains: int, rng: random.Random) -> List[Fact]:
    """Planted witness chains with heavy key conflicts.

    Chain ``i`` roots at ``s{i}``.  Three in four chains (exactly, so the
    share of certain roots, which sets the cost of a read, varies little
    between seeds) get three conflicting claims in every link's block: one
    to a dead node with no continuation (a repair choosing it breaks the
    chain) and two to other chains' nodes.  Three cross-links per chain
    keep the join fan-out real.
    """
    relations = [atom.relation for atom in query.atoms]
    depth = len(relations)
    facts: List[Fact] = []
    conflicted = set(rng.sample(range(chains), chains * 3 // 4))
    for i in range(chains):
        chain = [f"s{i}"] + [f"v{i}_{level}" for level in range(1, depth + 1)]
        for level, relation in enumerate(relations):
            facts.append(relation.fact(chain[level], chain[level + 1]))
            if i in conflicted:
                for conflict in range(3):
                    if conflict == 0 and level < depth - 1:
                        target = f"dead{rng.randrange(chains)}"
                    else:
                        target = f"v{rng.randrange(chains)}_{level + 1}"
                    facts.append(relation.fact(chain[level], target))
        for _ in range(3):
            level = rng.randrange(depth)
            facts.append(
                relations[level].fact(
                    f"v{rng.randrange(chains)}_{level}",
                    f"v{rng.randrange(chains)}_{level + 1}",
                )
            )
    return sorted_facts(facts)


def planted_instance(
    query: ConjunctiveQuery,
    rng: random.Random,
    domain_size: int,
    witnesses: int,
    noise_per_relation: int,
    conflict_rate: float,
) -> List[Fact]:
    """Planted witnesses, uniform noise and key conflicts, in sorted order."""
    domain = [f"c{i}" for i in range(domain_size)]
    variables = sorted(query.variables, key=lambda v: v.name)
    facts = set()
    for _ in range(witnesses):
        valuation = {v: rng.choice(domain) for v in variables}
        for atom in query.atoms:
            facts.add(
                atom.relation.fact(
                    *[valuation[t] if isinstance(t, Variable) else t.value for t in atom.terms]
                )
            )
    for atom in query.atoms:
        relation = atom.relation
        for _ in range(noise_per_relation):
            facts.add(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    for fact in sorted_facts(facts):
        relation = fact.relation
        if relation.is_all_key or rng.random() >= conflict_rate:
            continue
        key_values = [c.value for c in fact.key_terms]
        rest = [rng.choice(domain) for _ in range(relation.arity - relation.key_size)]
        facts.add(relation.fact(*(key_values + rest)))
    return sorted_facts(facts)


def unbreakable_witness(query: ConjunctiveQuery) -> Tuple[List[Fact], Fact]:
    """A witness of *query* over fresh constants, and a fact that breaks it.

    Returns ``(facts, breaker)``.  The witness maps every variable to its
    own constant (``.x`` for ``x``), so in a connected query no other fact
    joins it and, alone in its blocks, it is in every repair.  ``breaker``
    conflicts with the first non-all-key fact of the witness; with it, a
    repair can avoid the witness.
    """
    facts = [atom.relation.fact(*[f".{t.name}" if isinstance(t, Variable) else t.value
                                  for t in atom.terms]) for atom in query.atoms]
    victim = next(f for f in facts if not f.relation.is_all_key)
    breaker = victim.relation.fact(
        *[c.value for c in victim.key_terms],
        *[".broken"] * (victim.relation.arity - victim.relation.key_size))
    return facts, breaker


def ring_instance(
    k: int, copies: int, chords: int, rng: random.Random
) -> Tuple[List[Fact], Fact]:
    """``copies`` parallel k-cycles of C(k), one of them planted, plus chords.

    Returns ``(facts, breaker)``.  Every copy but the planted one (copy 0)
    has a conflicting claim to a dead node in one of its blocks, and the
    ``chords`` cross-copy edges start in those copies' blocks too, so the
    planted cycle's blocks hold one fact each.  The planted cycle is then
    in every repair and the query is certain; ``breaker`` is a dead claim
    in the planted cycle's first block, and with it a repair choosing every
    dead claim (and each copy's own edge elsewhere) has no cycle at all.
    So C(k) is certain exactly when ``breaker`` is absent, whatever chords
    are added or removed in the other copies.
    """
    schema = cycle_query_c(k).schema()
    rings = [schema[f"R{i}"] for i in range(1, k + 1)]
    facts = []
    for copy in range(copies):
        for i in range(k):
            facts.append(rings[i].fact(f"v{i}_{copy}", f"v{(i + 1) % k}_{copy}"))
        if copy:
            i = rng.randrange(k)
            facts.append(rings[i].fact(f"v{i}_{copy}", f"dead{copy}"))
    facts += [ring_chord(k, copies, rng) for _ in range(chords)]
    return sorted_facts(facts), rings[0].fact("v0_0", "dead0")


def ring_chord(k: int, copies: int, rng: random.Random) -> Fact:
    """A cross-copy edge of :func:`ring_instance`, starting outside the
    planted copy; chords never equal a copy edge or a dead claim."""
    position = rng.randrange(k)
    relation = cycle_query_c(k).schema()[f"R{position + 1}"]
    source = rng.randrange(1, copies)
    target = rng.randrange(copies - 1)
    target += target >= source  # never a copy's own edge
    return relation.fact(f"v{position}_{source}", f"v{(position + 1) % k}_{target}")


def conp_instance(gadgets: int) -> Tuple[List[Fact], List[Fact]]:
    """Figure 2 ``q1`` gadgets, each with one conflicting ``T`` claim.

    Returns ``(facts, unbreakable)``: the falsifiable gadget instance and
    the four facts of a witness no repair can break.  With those facts
    present the query is certain and the pruned repair search stops at
    once; without them it walks one binary choice per gadget.
    """
    schema = {atom.relation.name: atom.relation for atom in figure2_q1().atoms}
    r, s, t, p = schema["R"], schema["S"], schema["T"], schema["P"]
    facts = []
    for i in range(gadgets):
        u, x, y, z = (f"{prefix}{i:06d}" for prefix in "uxyz")
        facts += [r.fact(u, "a", x), s.fact(y, x, z), t.fact(x, y),
                  t.fact(x, f"w{i:06d}"), p.fact(x, z)]
    unbreakable = [r.fact(".u", "a", ".x"), s.fact(".y", ".x", ".z"),
                   t.fact(".x", ".y"), p.fact(".x", ".z")]
    return sorted_facts(facts), unbreakable


# -- ad-hoc queries ------------------------------------------------------------


def adhoc_schema(rng: random.Random) -> List[RelationSchema]:
    """The shared schema ad-hoc queries draw their relations from."""
    relations = []
    for j in range(ADHOC_RELATIONS):
        arity = rng.randint(2, 4)
        relations.append(RelationSchema(f"A{j}", arity, rng.randint(1, arity - 1)))
    return relations


def adhoc_queries(schema: Sequence[RelationSchema], count: int, rng: random.Random):
    """*count* distinct acyclic FO-band queries over *schema*.

    Each query is a tree of distinct relations: a child atom's first key
    position holds a variable of its parent's non-key positions, so the
    child never attacks its parent or a sibling, the attack graph is
    acyclic, and every query is in the FO band by construction (no
    classification is run here, which would warm the classify memo).
    Half are Boolean, half keep the root's first key variable free.
    """
    queries: List[ConjunctiveQuery] = []
    seen = set()
    while len(queries) < count:
        size = rng.randint(2, 4)
        relations = rng.sample(list(schema), size)
        fresh = iter(Variable(f"y{n}") for n in range(64))
        atoms, nonkey_vars = [], []
        for index, relation in enumerate(relations):
            terms = []
            for position in range(relation.arity):
                if position == 0 and index > 0:
                    terms.append(rng.choice(nonkey_vars))
                elif position >= relation.key_size and rng.random() < 0.15:
                    terms.append(Constant(f"k{rng.randrange(3)}"))
                else:
                    terms.append(next(fresh))
            atom = relation.atom(*terms)
            atoms.append(atom)
            nonkey_vars += [t for t in atom.terms[relation.key_size:] if isinstance(t, Variable)]
            if not nonkey_vars:
                break
        if len(atoms) < size:
            continue
        root_key = atoms[0].terms[0]
        free = [root_key] if len(queries) % 2 else []
        query = ConjunctiveQuery(atoms, free_variables=free)
        if str(query) not in seen:
            seen.add(str(query))
            queries.append(query)
    return queries


def adhoc_instance(schema: Sequence[RelationSchema], rng: random.Random) -> List[Fact]:
    """A small conflicting database over the ad-hoc schema."""
    domain = [f"d{i}" for i in range(10)] + ["k0", "k1", "k2"]
    facts = []
    for relation in schema:
        for _ in range(ADHOC_FACTS_PER_RELATION):
            facts.append(relation.fact(*[rng.choice(domain) for _ in range(relation.arity)]))
    return sorted_facts(facts)


# -- mutation streams ----------------------------------------------------------


class _LiveSet:
    """The current fact set with O(1) deterministic random choice."""

    def __init__(self, facts: Sequence[Fact]) -> None:
        self.items = list(facts)
        self.pos = {fact: i for i, fact in enumerate(self.items)}

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.pos

    def add(self, fact: Fact) -> None:
        self.pos[fact] = len(self.items)
        self.items.append(fact)

    def remove(self, fact: Fact) -> None:
        i = self.pos.pop(fact)
        last = self.items.pop()
        if last is not fact:
            self.items[i] = last
            self.pos[last] = i

    def choice(self, rng: random.Random) -> Fact:
        return self.items[rng.randrange(len(self.items))]


def chain_stream(
    query: ConjunctiveQuery,
    facts: Sequence[Fact],
    chains: int,
    steps: int,
    rng: random.Random,
    max_ops: int = 4,
) -> List[Batch]:
    """Recorded batches of 1..*max_ops* effective mutations.

    Adds put a new conflicting claim into a chain link's block (to a dead
    node, another chain's node, or a fresh one); discards remove a claim an
    earlier step added or an original fact.  Every op changes the database,
    so a batch's inverse (:func:`invert`) restores the state before it.
    """
    relations = [atom.relation for atom in query.atoms]
    live = _LiveSet(facts)
    added: List[Fact] = []
    batches: List[Batch] = []
    for step in range(steps):
        batch: Batch = []
        for n in range(rng.randint(1, max_ops)):
            roll = rng.random()
            if roll < 0.5 or not added:
                level = rng.randrange(len(relations))
                chain = rng.randrange(chains)
                node = f"s{chain}" if level == 0 else f"v{chain}_{level}"
                pick = rng.random()
                if pick < 0.3 and level < len(relations) - 1:
                    target = f"dead{rng.randrange(chains)}"
                elif pick < 0.7:
                    target = f"v{rng.randrange(chains)}_{level + 1}"
                else:
                    target = f"m{step}_{n}"
                fact = relations[level].fact(node, target)
                if fact in live:
                    continue
                live.add(fact)
                added.append(fact)
                batch.append(("add", fact))
            else:
                if roll < 0.85:
                    fact = added.pop(rng.randrange(len(added)))
                    if fact not in live:
                        continue
                else:
                    fact = live.choice(rng)
                live.remove(fact)
                batch.append(("discard", fact))
        if batch:
            batches.append(batch)
    return batches


def invert(batch: Batch) -> Batch:
    """The batch that undoes *batch* (every op of which was effective)."""
    flip = {"add": "discard", "discard": "add"}
    return [(flip[kind], fact) for kind, fact in reversed(batch)]


def palindrome_step(batches: Sequence[Batch], step: int) -> Tuple[Batch, int]:
    """The batch of loop step *step* and the recorded state it leads to.

    States are numbered by how many forward batches they contain, so the
    state after step ``i`` of the forward pass and the state reached on
    the way back are the same number (and the same facts).
    """
    period = 2 * len(batches)
    k = step % period
    if k < len(batches):
        return batches[k], k + 1
    j = period - 1 - k
    return invert(batches[j]), j


# -- digests -------------------------------------------------------------------


def digest(parts) -> str:
    """SHA-256 over the string forms of *parts* (facts, queries, batches)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    # ``inputs.py --digest <workload> <seed>`` prints the digest of the
    # workload's inputs; ``run.py`` calls it under a second hash seed.
    if sys.argv[1:2] != ["--digest"] or len(sys.argv) != 4:
        sys.exit("usage: inputs.py --digest <workload> <seed>")
    from workloads import WORKLOADS

    print(WORKLOADS[sys.argv[2]].make_inputs(int(sys.argv[3]))["sha256"])
