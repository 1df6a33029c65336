"""The mutant table (``tests/mutants.py``) follows the code and the tests:
each row's old text occurs exactly once in its file, which the script needs
to apply the row, each node id it names exists, so that a renamed test
cannot leave a row that only ever survives, and the mutated file still
compiles: a syntax error fails the file's collection, and so every test in
it, a kill that checks no behaviour. No row is run here."""

import ast

import pytest

from mutants import MUTANTS, ROOT
from test_golden import CASES

IDS = [m.name for m in MUTANTS]


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_old_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_the_mutated_file_compiles(mutant):
    path = ROOT / mutant.path
    compile(path.read_text().replace(mutant.old, mutant.new, 1), str(path), "exec")


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_each_node_id_names_a_test_that_exists(mutant):
    # a node id is a file, then classes and a test function by `::`; a
    # golden test's `[case]` must be a case of the corpus
    for node in mutant.tests:
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        scope = ast.parse((ROOT / path).read_text()).body
        for name in names:
            name, _, case = name.partition("[")
            defs = {d.name: d for d in scope if isinstance(d, (ast.ClassDef, ast.FunctionDef))}
            assert name in defs, f"{node}: no {name} in {path}"
            scope = defs[name].body
            if case and path == "tests/test_golden.py":
                assert case.removesuffix("]") in CASES, node
