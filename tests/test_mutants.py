"""The fault list of `benchmarks/mutants.py`."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "benchmarks" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_each_fault_edits_one_place(name, file, old, new):
    """Each old text occurs exactly once, so each entry still seeds its
    one fault after the code around it changes."""
    assert old != new
    assert (ROOT / file).read_text().count(old) == 1


def test_fault_runs_leave_out_the_fault_list_test():
    """In a mutated copy the test above fails for every fault, so the fault
    runs must not include it, or each fault would read as killed."""
    assert "--ignore=tests/test_mutants.py" in mutants.TIER1
