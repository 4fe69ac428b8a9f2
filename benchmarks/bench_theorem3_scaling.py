"""E7 — Theorem 3 scaling: polynomial solver versus exponential oracle.

The paper's claim is asymptotic (membership in P).  The observable
consequence is that the Theorem 3 solver's runtime grows polynomially with
the database size while the repair-enumeration oracle blows up with the
number of conflicting blocks.  Each benchmark below pins one point of that
comparison; ``repro.experiments.figures.run_all_experiments`` collects the
trend.
"""

import pytest

from repro.certainty import certain_brute_force, certain_terminal_cycles
from repro.query import cycle_query_c, figure4_query
from repro.workloads import synthetic_instance

C2 = cycle_query_c(2)


@pytest.mark.parametrize("size", [4, 8, 16, 32])
def test_theorem3_solver_scaling_c2(benchmark, size):
    db = synthetic_instance(C2, seed=size, domain_size=2 * size, witnesses=size, noise_per_relation=size)
    result = benchmark(certain_terminal_cycles, db, C2)
    assert result in (True, False)


@pytest.mark.parametrize("size", [2, 4, 6])
def test_oracle_scaling_c2(benchmark, size):
    """The oracle on the *same generator* quickly becomes the bottleneck."""
    db = synthetic_instance(C2, seed=size, domain_size=2 * size, witnesses=size, noise_per_relation=size)
    result = benchmark(certain_brute_force, db, C2)
    assert result == certain_terminal_cycles(db, C2)


@pytest.mark.parametrize("size", [2, 4, 8])
def test_theorem3_solver_scaling_figure4(benchmark, size):
    query = figure4_query(include_r0=False)
    db = synthetic_instance(query, seed=size, domain_size=2 * size, witnesses=size, noise_per_relation=size)
    result = benchmark(certain_terminal_cycles, db, query)
    assert result in (True, False)
