"""End-to-end tests of the public API surface (the quickstart workflow)."""

import pathlib
import subprocess
import sys

import repro
from repro import (
    ComplexityBand,
    UncertainDatabase,
    certain_answers,
    classify,
    is_certain,
    parse_facts,
    parse_query,
)


class TestQuickstart:
    def test_module_docstring_example(self):
        q = parse_query("C(x, y | 'Rome'), R(x | 'A')")
        db = UncertainDatabase(
            parse_facts(
                [
                    "C('PODS', 2016 | 'Rome')",
                    "C('PODS', 2016 | 'Paris')",
                    "C('KDD', 2017 | 'Rome')",
                    "R('PODS' | 'A')",
                    "R('KDD' | 'A')",
                    "R('KDD' | 'B')",
                ],
                schema=q.schema(),
            )
        )
        assert classify(q).band is ComplexityBand.FO
        assert is_certain(db, q) is False

    def test_quickstart_script_runs(self):
        repo = pathlib.Path(__file__).resolve().parents[1]
        script = repo / "examples" / "quickstart.py"
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=300
        )
        assert result.returncode == 0, result.stderr

    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_certain_answers_workflow(self):
        q = parse_query("Emp(name | dept), Dept(dept | city)", free=["name"])
        schema = q.schema()
        db = UncertainDatabase(
            parse_facts(
                [
                    "Emp('ada' | 'db')",
                    "Emp('bob' | 'os')",
                    "Emp('bob' | 'net')",
                    "Dept('db' | 'Mons')",
                    "Dept('os' | 'Mons')",
                    "Dept('net' | 'Paris')",
                ],
                schema=schema,
            )
        )
        answers = certain_answers(db, q)
        names = {value.value for (value,) in answers}
        # 'ada' certainly works in a department with a city; so does 'bob'
        # (every repair keeps one of his two departments, each of which has a city).
        assert names == {"ada", "bob"}

    def test_certain_answers_drop_uncertain_tuples(self):
        q = parse_query("Emp(name | dept), Dept(dept | 'Mons')", free=["name"])
        schema = q.schema()
        db = UncertainDatabase(
            parse_facts(
                [
                    "Emp('ada' | 'db')",
                    "Emp('bob' | 'os')",
                    "Dept('db' | 'Mons')",
                    "Dept('os' | 'Mons')",
                    "Dept('os' | 'Paris')",
                ],
                schema=schema,
            )
        )
        names = {value.value for (value,) in certain_answers(db, q)}
        # bob's department might be located in Paris, so only ada is certain.
        assert names == {"ada"}


class TestIncrementalViewAPI:
    """The incremental-view surface exported at top level (quickstart §7)."""

    def _instance(self):
        q = parse_query("Emp(name | dept), Dept(dept | city)", free=["name"])
        schema = q.schema()
        db = UncertainDatabase(
            parse_facts(
                [
                    "Emp('ada' | 'db')",
                    "Emp('bob' | 'os')",
                    "Emp('bob' | 'net')",
                    "Dept('db' | 'Mons')",
                    "Dept('os' | 'Mons')",
                    "Dept('net' | 'Paris')",
                ],
                schema=schema,
            )
        )
        return q, schema, db

    def test_top_level_exports(self):
        from repro import ChangeSet, MaterializedCertainView, SupportIndex, ViewManager

        assert ChangeSet and MaterializedCertainView and SupportIndex and ViewManager

    def test_view_manager_workflow(self):
        from repro import ViewManager

        q, schema, db = self._instance()
        inserts = []
        with ViewManager(db) as manager:
            view = manager.register(q)
            assert {v.value for (v,) in view.answers} == {"ada", "bob"}
            view.subscribe(on_insert=lambda t: inserts.append(t[0].value))
            # db.batch(): one consolidated maintenance step for the batch.
            with db.batch():
                db.add(schema["Emp"].fact("eve", "db"))
                db.add(schema["Dept"].fact("db", "Lille"))
            assert {v.value for (v,) in view.answers} == {"ada", "bob", "eve"}
            assert view.answers == frozenset(certain_answers(db, q))
        assert inserts == ["eve"]

    def test_bulk_mutations_are_batched(self):
        from repro import ViewManager

        q, schema, db = self._instance()
        with ViewManager(db) as manager:
            view = manager.register(q)
            baseline = view.stats.refreshes
            db.bulk_add(
                parse_facts(["Emp('zed' | 'os')", "Emp('kim' | 'db')"], schema=schema)
            )
            assert view.stats.refreshes == baseline + 1  # one batch, one refresh
            assert view.answers == frozenset(certain_answers(db, q))
