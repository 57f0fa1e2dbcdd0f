"""A static check of the mutation audit's list, tools/mutants.py: each entry
still points at the line it mutates, and each killing test it names exists.
No mutant is applied and no suite is run."""

import importlib.util
from pathlib import Path

MUTANTS_PY = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def test_every_mutant_entry_fits_the_tree():
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS_PY)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    problems = {m.name: mutants.static_problem(m) for m in mutants.MUTANTS}
    assert {name: why for name, why in problems.items() if why} == {}
