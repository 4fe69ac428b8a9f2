"""Benchmark harness configuration.

Every benchmark module regenerates one experiment of
``repro.experiments.figures.run_all_experiments`` (one figure, example, or
theorem of the paper).  Benchmarks both *measure* the runtime of the
relevant algorithm and *assert* the qualitative claim the paper makes (who
wins, what the answer is), so ``pytest benchmarks/ --benchmark-only``
doubles as an end-to-end reproduction run.

The repository-root ``conftest.py`` already puts ``src/`` on ``sys.path``.
"""
