"""The fault list and the file list of `benchmarks/mutants.py`."""
import importlib.util
import subprocess
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


def test_tracked_files_leaves_out_a_file_deleted_from_the_working_tree(tmp_path):
    """A tracked file deleted but not staged is left out, so the copy into
    a fault run's tree does not fail on it."""
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "sub").mkdir()
    for name in ("kept.txt", "gone.txt", "sub/kept.txt"):
        (tmp_path / name).write_text(name)
    git("add", ".")
    git("commit", "-q", "-m", "files")
    (tmp_path / "gone.txt").unlink()
    assert sorted(mutants.tracked_files(tmp_path)) == ["kept.txt", "sub/kept.txt"]
