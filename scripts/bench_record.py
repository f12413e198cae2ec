"""Record one point of the benchmark trajectory: a parent checkout and this
one, measured side by side with the benchmark's own command and run length.

    python3 scripts/bench_record.py --parent <checkout of the parent commit> \
        --tag <tag> --seeds <first>-<last>

Pick seeds no earlier record used.  For every workload in BENCHMARK.json
and every seed, BENCHMARK.json's `command` runs once with --trace 0 and
its `run_seconds` in each checkout, alternating which side goes first, and
then once more per side with --trace 1 and seed TRACE_SEED.  Each run is a
fresh process started in its own checkout, so each side measures its own
`src/`.  A run that exits non-zero or reports itself incorrect stops the
recording, so every pair compares the same seed.  BENCH_<tag>.json,
written at the root of this checkout, holds:

- the command, the run length, the seeds and the git sha of each side
  (-dirty with uncommitted changes);
- per workload and side, the median and quartiles of every end-to-end
  metric over the pairs, with every run's value, and the pairs the change
  wins (ties count for neither side);
- the failed operations, and whether the per-round digests of each pair
  agree over their common rounds;
- the per-layer metrics of each side's traced run.

The script only reads what the benchmark prints; it changes nothing under
perfbench/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_SEED = 11


def parse_seeds(text: str) -> list[int]:
    """'701-710', both ends included, or one seed."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_run(stdout: str) -> tuple[dict, dict]:
    """run.py's last two lines: the info object and the result object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"expected an info and a result line, got {stdout!r}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def run_once(bench: dict, checkout: Path, workload: str, seed: int, trace: int):
    """One run of the benchmark's command; raises unless it exits 0 with a
    correct result."""
    done = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    where = f"{checkout}: {workload} seed {seed} trace {trace}"
    try:
        info, result = parse_run(done.stdout)
    except ValueError as exc:
        raise RuntimeError(f"{where}: {done.stderr[-2000:]}") from exc
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(
            f"{where}: exit {done.returncode}, correct {result['correct']}: "
            f"{done.stderr[-2000:]}"
        )
    return info, result


def git_sha(checkout: Path) -> str | None:
    """HEAD's sha, suffixed -dirty when the working tree has changes."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=checkout, capture_output=True, text=True,
    )
    return done.stdout.strip() or None


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": values}


def _digests_agree(a: list[str], b: list[str]) -> bool:
    common = min(len(a), len(b))
    return common > 0 and a[:common] == b[:common]


def record_workload(bench: dict, checkouts: dict, workload: str, seeds) -> dict:
    runs = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(bench, checkouts[side], workload, seed, 0))
    traced = {side: run_once(bench, checkouts[side], workload, TRACE_SEED, 1)
              for side in SIDES}

    end_to_end = {}
    for m in bench["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for _, r in runs[side]]
                  for side in SIDES}
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        end_to_end[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            **{side: summary(values[side]) for side in SIDES},
            "change_wins": int(wins),
        }
    return {
        "pairs": len(seeds),
        "failed": {side: sum(r["failed"] for _, r in runs[side]) for side in SIDES},
        "digests_agree": all(
            _digests_agree(p["digests"], c["digests"])
            for (p, _), (c, _) in zip(runs["parent"], runs["change"])
        ),
        "host_probe_us": {
            side: summary([info["host_probe_us"] for info, _ in runs[side]]) for side in SIDES
        },
        "end_to_end": end_to_end,
        "per_layer": {
            side: {k: v["value"] for k, v in traced[side][1]["metrics"].items()}
            for side in SIDES
        },
    }


def record(parent: Path, tag: str, seeds) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": Path(parent).resolve(), "change": ROOT}
    return {
        "tag": tag,
        "command": bench["command"],
        "seconds": bench["run_seconds"],
        "seeds": list(seeds),
        "trace_seed": TRACE_SEED,
        "sides": {side: {"sha": git_sha(checkouts[side])} for side in SIDES},
        "workloads": {
            w["name"]: record_workload(bench, checkouts, w["name"], seeds)
            for w in bench["workloads"]
        },
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="'<first>-<last>' or one seed; pick seeds no earlier record used")
    args = p.parse_args(argv)
    out = ROOT / f"BENCH_{args.tag}.json"
    data = record(args.parent, args.tag, args.seeds)
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
