"""The mutant list of scripts/mutants.py stays in step with the program.

The mutants themselves run outside tier-1 (``python3 scripts/mutants.py``);
here each one's edit must still apply and its tests must still exist."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_edits_text_found_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_names_tests_that_exist(mutant):
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


def test_mutant_names_are_unique_and_there_are_enough():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 15
