import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_report_runs_on_builtin_grids(capsys):
    _load("scenario_report").main()
    out = capsys.readouterr().out
    for name in ("toy5", "train14", "large36"):
        assert f"=== {name}:" in out
    assert out.count("single-disconnect effects") == 3


def _canned_run(calls, incorrect=()):
    """Stands in for subprocess.run: git answers with a sha, the benchmark
    command with an info and a result line whose figures depend on the side
    and seed.  A (side, seed) in `incorrect` gets the output of an incorrect
    run: empty metrics and exit status 1."""

    def run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return subprocess.CompletedProcess(argv, 0, stdout=f"sha-of-{Path(cwd).name}\n")
        opts = dict(zip(argv[2::2], argv[3::2]))
        side = "change" if Path(cwd) == SCRIPTS.parent else "parent"
        seed, trace = int(opts["--seed"]), int(opts["--trace"])
        calls.append((argv[:2], opts["--seconds"], side, opts["--workload"], seed, trace))
        p90 = (80.0 if side == "change" else 100.0) + seed % 3
        metrics = (
            {"shield.project.self_us": {"value": 5.9 if side == "change" else 13.1,
                                        "unit": "us/call"}}
            if trace else
            {"setup_s": {"value": 0.4, "unit": "s"},
             "steps_per_s": {"value": 1e6 / p90, "unit": "steps/s"},
             "decision_us_p50": {"value": p90 / 2, "unit": "us"},
             "decision_us_p90": {"value": p90, "unit": "us"},
             "peak_rss_mb": {"value": 80.0, "unit": "MB"}}
        )
        correct = (side, seed) not in incorrect
        info = {"digests": ["d0", "d1", f"d2-{side}"][: 2 + (side == "change")],
                "host_probe_us": 300.0}
        result = {"correct": correct, "attempted": 10, "failed": 0,
                  "metrics": metrics if correct else {}}
        stdout = "noise\n" + json.dumps({"info": info}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(argv, 0 if correct else 1, stdout=stdout, stderr="")

    return run


def test_bench_record_summarizes_canned_runs(tmp_path, monkeypatch):
    bench_record = _load("bench_record")
    calls = []
    monkeypatch.setattr(bench_record.subprocess, "run", _canned_run(calls))
    parent = tmp_path / "parent"
    data = bench_record.record(parent, "t", [1, 2, 3, 4])

    bench = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    assert (data["command"], data["seconds"]) == (bench["command"], bench["run_seconds"])
    assert data["seeds"] == [1, 2, 3, 4] and data["trace_seed"] == bench_record.TRACE_SEED
    assert data["sides"] == {"parent": {"sha": "sha-of-parent"},
                             "change": {"sha": f"sha-of-{SCRIPTS.parent.name}"}}
    workloads = bench["workloads"]
    assert list(data["workloads"]) == [w["name"] for w in workloads]
    # every run is the benchmark's command at its run length
    assert {(tuple(argv), seconds) for argv, seconds, *_ in calls} == {
        (tuple(bench["command"]), str(bench["run_seconds"]))
    }
    # pairs alternate which side runs first; the traced runs come last
    first = [c[2:] for c in calls if c[3] == workloads[0]["name"]]
    assert [side for side, *_ in first] == [
        "parent", "change", "change", "parent", "parent", "change", "change", "parent",
        "parent", "change",
    ]
    assert [trace for *_, trace in first] == [0] * 8 + [1, 1]
    assert [seed for _, _, seed, _ in first[8:]] == [bench_record.TRACE_SEED] * 2

    w = data["workloads"][workloads[0]["name"]]
    assert w["pairs"] == 4 and w["failed"] == {"parent": 0, "change": 0}
    assert w["digests_agree"]  # the change's extra round is not compared
    assert list(w["end_to_end"]) == [m["name"] for m in bench["end_to_end"]]
    p90 = w["end_to_end"]["decision_us_p90"]
    assert p90["parent"]["runs"] == [101.0, 102.0, 100.0, 101.0]
    assert p90["parent"]["median"] == 101.0
    assert (p90["parent"]["q1"], p90["parent"]["q3"]) == (100.75, 101.25)
    assert p90["change"]["median"] == 81.0 and p90["change_wins"] == 4
    assert w["end_to_end"]["steps_per_s"]["change_wins"] == 4
    assert w["end_to_end"]["setup_s"]["change_wins"] == 0  # ties count for neither
    assert w["per_layer"] == {"parent": {"shield.project.self_us": 13.1},
                              "change": {"shield.project.self_us": 5.9}}


@pytest.mark.parametrize("side", ["parent", "change"])
def test_bench_record_stops_at_an_incorrect_run(tmp_path, monkeypatch, side):
    bench_record = _load("bench_record")
    calls = []
    monkeypatch.setattr(bench_record.subprocess, "run", _canned_run(calls, {(side, 2)}))
    with pytest.raises(RuntimeError, match="seed 2 trace 0: exit 1, correct False"):
        bench_record.record(tmp_path / "parent", "t", [1, 2, 3])
    assert calls[-1][2:] == (side, calls[0][3], 2, 0)


def test_bench_record_rejects_output_without_a_result():
    bench_record = _load("bench_record")
    with pytest.raises(ValueError):
        bench_record.parse_run("CHECK FAILED: something\n")
    assert bench_record.parse_seeds("701-703") == [701, 702, 703]
    assert bench_record.parse_seeds("5") == [5]
