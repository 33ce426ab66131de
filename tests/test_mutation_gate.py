from pathlib import Path

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
