"""The mutant list of ``tests/mutants.py`` stays in step with the code."""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_once_and_its_tests_exist(mutant):
    # a refactor that moves or repeats the snippet must update the list
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), test
