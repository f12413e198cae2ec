"""The benchmark command end to end: determinism across processes, the
result line, and refusal without the program's sources.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["perfbench/run.py", "--workload", "train14-stress", "--seconds", "0.2", "--trace"]


def _run(cwd: Path, seed: int, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, str(trace), "--seed", str(seed)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _lines(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def test_same_seed_same_digests_and_result_shape():
    a, b, c = _run(ROOT, 5), _run(ROOT, 5), _run(ROOT, 6)
    for done in (a, b, c):
        assert done.returncode == 0, done.stderr
    (ia, ra), (ib, _), (ic, _) = _lines(a), _lines(b), _lines(c)
    n = min(len(ia["digests"]), len(ib["digests"]))
    assert n >= 1 and ia["digests"][:n] == ib["digests"][:n]
    assert ia["digests"][0] != ic["digests"][0]
    assert set(ra) == {"correct", "attempted", "failed", "metrics"}
    assert ra["correct"] is True and ra["failed"] == 0 and ra["attempted"] % 3 == 0
    assert set(ra["metrics"]) == {
        "setup_s", "steps_per_s", "decision_us_p50", "decision_us_p90", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in ra["metrics"].values())


def test_traced_run_reports_layers():
    done = _run(ROOT, 5, trace=1)
    assert done.returncode == 0, done.stderr
    _, res = _lines(done)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(res["metrics"]) == {m["name"] for m in bench["per_layer"]}
    for name in ("shield.project.calls", "grid.solve.calls", "harness.run_episode.self_us"):
        assert res["metrics"][name]["value"] > 0
    assert res["metrics"]["training.update.ms"]["value"] == 0


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, 5)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
