"""Repairs (possible worlds) of an uncertain database.

A *repair* is a maximal consistent subset of an uncertain database: it
contains exactly one fact from every block.  The number of repairs is the
product of the block sizes, so enumeration is exponential in general; the
functions below expose enumeration (as a generator), counting, sampling and
consistency checks so that callers can pick the cheapest primitive.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Sequence

from .atoms import Fact
from .database import UncertainDatabase

#: A repair is represented as a frozenset of facts.
Repair = FrozenSet[Fact]


def count_repairs(db: UncertainDatabase) -> int:
    """The number of repairs of *db* (the product of block sizes)."""
    total = 1
    for block in db.blocks():
        total *= len(block)
    return total


def enumerate_repairs(db: UncertainDatabase) -> Iterator[Repair]:
    """Yield every repair of *db*.

    The empty database has exactly one repair: the empty set.  Blocks are
    iterated in a deterministic order so that the enumeration is stable for
    a given database.
    """
    blocks: List[Sequence[Fact]] = [
        sorted(block, key=str) for block in sorted(db.blocks(), key=_block_sort_key)
    ]
    if not blocks:
        yield frozenset()
        return
    for choice in itertools.product(*blocks):
        yield frozenset(choice)


def _block_sort_key(block: FrozenSet[Fact]) -> str:
    return min(str(f) for f in block)


def is_repair(db: UncertainDatabase, candidate: Iterable[Fact]) -> bool:
    """``True`` iff *candidate* is a repair of *db*.

    A repair must (i) be a subset of the database, (ii) be consistent, and
    (iii) contain a fact from every block (maximality).
    """
    chosen = set(candidate)
    if not chosen.issubset(db.facts):
        return False
    seen_blocks = set()
    for fact in chosen:
        key = fact.block_key
        if key in seen_blocks:
            return False
        seen_blocks.add(key)
    return seen_blocks == set(db.block_keys())


def is_possible_world(db: UncertainDatabase, candidate: Iterable[Fact]) -> bool:
    """``True`` iff *candidate* is a possible world (consistent subset) of *db*.

    Possible worlds, unlike repairs, need not be maximal (Definition 9).
    """
    chosen = set(candidate)
    if not chosen.issubset(db.facts):
        return False
    seen_blocks = set()
    for fact in chosen:
        key = fact.block_key
        if key in seen_blocks:
            return False
        seen_blocks.add(key)
    return True


def enumerate_possible_worlds(db: UncertainDatabase) -> Iterator[FrozenSet[Fact]]:
    """Yield every possible world (consistent subset) of *db*.

    The number of worlds is the product over blocks of (block size + 1),
    since a world may omit a block entirely.
    """
    blocks: List[List[Optional[Fact]]] = [
        [None] + sorted(block, key=str)
        for block in sorted(db.blocks(), key=_block_sort_key)
    ]
    if not blocks:
        yield frozenset()
        return
    for choice in itertools.product(*blocks):
        yield frozenset(fact for fact in choice if fact is not None)


def count_possible_worlds(db: UncertainDatabase) -> int:
    """The number of possible worlds of *db*."""
    total = 1
    for block in db.blocks():
        total *= len(block) + 1
    return total


def random_repair(db: UncertainDatabase, rng: Optional[random.Random] = None) -> Repair:
    """Sample a repair uniformly at random.

    Blocks draw in :func:`enumerate_repairs` order, so a seeded *rng* picks
    the same repair however the database was populated.
    """
    rng = rng if rng is not None else random.Random()
    return frozenset(
        rng.choice(sorted(block, key=str))
        for block in sorted(db.blocks(), key=_block_sort_key)
    )


def greedy_repair(
    db: UncertainDatabase,
    prefer: Callable[[Fact], float],
) -> Repair:
    """Build a repair by picking, in each block, a fact maximising *prefer*."""
    return frozenset(max(block, key=lambda f: (prefer(f), str(f))) for block in db.blocks())


def every_repair_satisfies(
    db: UncertainDatabase,
    predicate: Callable[[Repair], bool],
) -> bool:
    """``True`` iff *predicate* holds in every repair (early exit on failure)."""
    return all(predicate(repair) for repair in enumerate_repairs(db))


def some_repair_satisfies(
    db: UncertainDatabase,
    predicate: Callable[[Repair], bool],
) -> bool:
    """``True`` iff *predicate* holds in at least one repair."""
    return any(predicate(repair) for repair in enumerate_repairs(db))


def falsifying_repair(
    db: UncertainDatabase,
    predicate: Callable[[Repair], bool],
) -> Optional[Repair]:
    """Return a repair violating *predicate*, or ``None`` if none exists.

    This is the "no"-certificate of membership in coNP mentioned in the
    introduction of the paper.
    """
    for repair in enumerate_repairs(db):
        if not predicate(repair):
            return repair
    return None
