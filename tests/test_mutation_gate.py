import ast
from pathlib import Path

import pytest

import mutation_gate

TESTS = Path(__file__).resolve().parent


def test_every_guard_has_its_catcher_file():
    catchers = {mutation_gate.catcher(guard) for guard in mutation_gate.GUARDS}
    assert {name for name in catchers if not (TESTS / name).is_file()} == set()


def test_tier1_files_put_the_catcher_first_and_keep_every_file():
    every = mutation_gate.tier1_files()
    assert every == sorted(f"tests/{path.name}" for path in TESTS.glob("test_*.py"))
    for name in {mutation_gate.catcher(guard) for guard in mutation_gate.GUARDS}:
        files = mutation_gate.tier1_files(name)
        assert files[0] == f"tests/{name}" and sorted(files) == every


# A condition that spans lines inside an if header, where padding placed
# after the replacement would come before the colon, and an expression
# that spans lines inside a bound.
TWO_LINE_SOURCE = '''\
def check(items, limit):
    if not (items
            or limit):
        raise ValueError("nothing to check")
    return len(items) > (limit
                         + 1)
'''


@pytest.mark.parametrize("edit, match", [
    ("drop", "not (items\n            or limit)"),
    ("true", "not (items\n            or limit)"),
    ("flip", "len(items) > (limit\n                         + 1)"),
    ("less", "limit\n                         + 1"),
])
def test_a_two_line_match_mutates_into_source_that_parses(edit, match):
    guard = mutation_gate.Guard("two-line", "check.py", "check", edit, match)
    mutant = mutation_gate.mutate(guard, TWO_LINE_SOURCE)
    ast.parse(mutant)
    assert mutant.count("\n") == TWO_LINE_SOURCE.count("\n")
