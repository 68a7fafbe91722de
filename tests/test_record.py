"""The argument parsers, summary and bad-run report of `benchmarks/record.py`."""
import argparse
import importlib.util
import json
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


def _entry(label, workload, seed, **metrics):
    return {"label": label, "workload": workload, "seed": seed,
            "contract": {"metrics": {k: {"value": v} for k, v in metrics.items()}}}


def test_summary_compares_medians_quartiles_and_pairs():
    entries = [
        _entry("parent", "w", seed, run_s=run_s, rate=rate)
        for seed, run_s, rate in ((1, 1.0, 5.0), (2, 2.0, 5.0), (3, 3.0, 5.0), (4, 4.0, 5.0))
    ] + [
        _entry("change", "w", seed, run_s=run_s, rate=rate)
        for seed, run_s, rate in ((1, 0.5, 6.0), (2, 2.0, 4.0), (3, 2.5, 7.0), (4, 3.5, 8.0))
    ]
    # a failed run carries no metrics and is no side's pair
    entries.append({"label": "change", "workload": "w", "seed": 5, "contract": None})
    lines = record.summary(entries, [{"name": "run_s", "better": "lower"},
                                     {"name": "rate", "better": "higher"},
                                     {"name": "setup_s", "better": "lower"}],
                           "parent", "change")
    assert lines == [
        # parent Q1/median/Q3 of 1..4 = 1.75/2.5/3.25; change of 0.5, 2, 2.5,
        # 3.5 = 1.625/2.25/2.75; seed 2 is a tie
        "w run_s (lower is better): parent 2.5 [1.75, 3.25], change 2.25 [1.625, 2.75];"
        " change wins 3/4 pairs; median gap -0.25 within parent's IQR 1.5",
        # parent's IQR is 0, so any gap exceeds it
        "w rate (higher is better): parent 5 [5, 5], change 6.5 [5.5, 7.25];"
        " change wins 3/4 pairs; median gap +1.5 exceeds parent's IQR 0",
        # setup_s, which no run reports, gets no line
    ]


def test_summary_flags_a_median_worse_than_the_metric_bound():
    """A metric with a bound gets how much worse the change's median is,
    relative to the base's, and whether that exceeds the bound."""
    entries = [_entry("parent", "w", seed, setup_s=setup_s, rate=rate)
               for seed, setup_s, rate in ((1, 0.0201, 10.0), (2, 0.0201, 10.0))]
    entries += [_entry("change", "w", seed, setup_s=setup_s, rate=rate)
                for seed, setup_s, rate in ((1, 0.0271, 9.5), (2, 0.0271, 9.5))]
    lines = record.summary(entries, [{"name": "setup_s", "better": "lower", "bound": 0.25},
                                     {"name": "rate", "better": "higher", "bound": 0.1}],
                           "parent", "change")
    assert lines == [
        "w setup_s (lower is better): parent 0.0201 [0.0201, 0.0201], change 0.0271"
        " [0.0271, 0.0271]; change wins 0/2 pairs; median gap +0.007 exceeds parent's"
        " IQR 0; 34.8% worse, OVER the 25% bound",
        "w rate (higher is better): parent 10 [10, 10], change 9.5 [9.5, 9.5]; change"
        " wins 0/2 pairs; median gap -0.5 exceeds parent's IQR 0; 5.0% worse, within"
        " the 10% bound",
    ]


def test_main_summarises_a_traced_pair_by_its_per_layer_metrics(tmp_path, monkeypatch,
                                                                capsys):
    """A traced run reports per-layer metrics and no end-to-end ones: each
    per-layer metric of BENCHMARK.json that a run reports gets its line,
    and a metric that no run reports gets none."""
    labels = {}
    for label in ("parent", "change"):
        (tmp_path / label / "perfbench").mkdir(parents=True)
        (tmp_path / label / "perfbench" / "run.py").write_text("")
        labels[(tmp_path / label).resolve()] = label

    def run(root, workload, seed, seconds, trace):
        assert trace == 1
        metrics = {"matrices.build.self_s": {"parent": 2.0, "change": 1.0}[labels[root]] * seed,
                   "graph.verify.edges": 100}
        if labels[root] == "parent":
            metrics["oracle.valid_ratio"] = 0.5
        return {"exit_code": 0, "env": None, "stderr": None,
                "contract": {"correct": True, "attempted": 10, "failed": 0,
                             "metrics": {k: {"value": v} for k, v in metrics.items()}}}

    monkeypatch.setattr(record, "run", run)
    assert record.main(["--workload", "oracle_small", "--seeds", "1-2", "--trace", "1",
                        "--checkout", f"parent={tmp_path / 'parent'}",
                        "--checkout", f"change={tmp_path / 'change'}",
                        "--out", str(tmp_path / "trajectory.json")]) == 0
    assert capsys.readouterr().out.splitlines()[4:] == [
        "oracle_small graph.verify.edges (lower is better): parent 100 [100, 100],"
        " change 100 [100, 100]; change wins 0/2 pairs; median gap +0 within"
        " parent's IQR 0",
        "oracle_small matrices.build.self_s (lower is better): parent 3 [2.5, 3.5],"
        " change 1.5 [1.25, 1.75]; change wins 2/2 pairs; median gap -1.5 exceeds"
        " parent's IQR 1",
        "oracle_small oracle.valid_ratio: no runs of both sides",
    ]


def test_main_names_each_bad_run_and_exits_1(tmp_path, monkeypatch, capsys):
    def result(exit_code=0, correct=True, failed=0, contract=True):
        return {"exit_code": exit_code, "env": None, "stderr": None,
                "contract": {"correct": correct, "attempted": 200, "failed": failed,
                             "metrics": {"run_s": {"value": 0.4}}} if contract else None}

    results = iter([result(), result(exit_code=1, contract=False), result(correct=False),
                    result(correct=False, failed=3), result()])
    monkeypatch.setattr(record, "run", lambda *args: next(results))
    out = tmp_path / "trajectory.json"
    assert record.main(["--workload", "sweep_connect", "--seeds", "1-5", "--out", str(out)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[5:] == [
        "BAD RUN sweep_connect seed 2 this: exit 1, failed None/None ops",
        "BAD RUN sweep_connect seed 3 this: exit 0, failed 0/200 ops",
        "BAD RUN sweep_connect seed 4 this: exit 0, failed 3/200 ops",
    ]
    assert len(json.loads(out.read_text())) == 5


def test_main_exits_0_on_clean_runs_of_this_series(tmp_path, monkeypatch, capsys):
    """A bad run recorded by an earlier series does not fail this one."""
    out = tmp_path / "trajectory.json"
    out.write_text(json.dumps([{"label": "this", "workload": "oracle_small", "seed": 9,
                                "exit_code": 1, "contract": None}]))
    monkeypatch.setattr(record, "run", lambda *args: {
        "exit_code": 0, "env": None, "stderr": None,
        "contract": {"correct": True, "attempted": 10, "failed": 0, "metrics": {}}})
    assert record.main(["--workload", "oracle_small", "--seeds", "1", "--out", str(out)]) == 0
    assert "BAD RUN" not in capsys.readouterr().out
