"""The argument parsers of `benchmarks/record.py`."""
import argparse
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "record", Path(__file__).resolve().parent.parent / "benchmarks" / "record.py"
)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)


@pytest.mark.parametrize(
    "text, want",
    [("401", [401]), ("401-403", [401, 402, 403]), ("401,405", [401, 405]),
     ("401-402,410", [401, 402, 410]), ("7-7", [7])],
)
def test_seeds(text, want):
    assert record.seeds(text) == want


@pytest.mark.parametrize("text", ["410-401", "401,3-2"])
def test_seeds_rejects_a_reversed_range(text):
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        record.seeds(text)


@pytest.mark.parametrize("text", ["", "401,", "a-b", "-3"])
def test_seeds_rejects_non_integers(text):
    with pytest.raises(ValueError):
        record.seeds(text)


def test_reversed_seeds_are_a_usage_error(tmp_path, capsys):
    out = tmp_path / "trajectory.json"
    with pytest.raises(SystemExit) as exc:
        record.main(["--workload", "oracle_small", "--seeds", "410-401", "--out", str(out)])
    assert exc.value.code == 2
    assert "empty seed range" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def checkout_root(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    return tmp_path


def test_checkout(checkout_root):
    root = checkout_root.resolve()
    assert record.checkout(f"parent={checkout_root}") == ("parent", root)
    assert record.checkout(f"x={checkout_root}/perfbench/..") == ("x", root)


@pytest.mark.parametrize("text", ["{dir}", "={dir}", "parent={dir}/perfbench"])
def test_checkout_rejects(checkout_root, text):
    with pytest.raises(argparse.ArgumentTypeError):
        record.checkout(text.format(dir=checkout_root))
