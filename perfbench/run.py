"""gridshield benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
`src/`.  The run repeats whole rounds of the workload's operations until
their timed wall-clock reaches --seconds (and at least the workload's
memory rounds have run), checks each episode as it ends and each round
after it, outside the timed region, then replays round 0 and compares its
digest.  The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  Their times are
scaled to a reference host speed: a fixed Python loop is timed at every
episode start (outside the timed region), and throughput is multiplied,
latencies divided, by the run's median reading over PROBE_REF_NS.  The
unscaled figures are in the info line.  With --trace 1 the program's public
functions are wrapped in spans, the metrics are the per-layer ones (not
scaled), and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter_ns

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
# Reference duration of the host probe loop (gsbench.probes.host_probe_ns);
# timed metrics are scaled to a host that runs the loop in this time.
PROBE_REF_NS = 300_000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of process start to the point where the
    first timed operation would begin (imports, grids, parameters), each
    scaled to the reference host speed by the probe that process reads."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        ready, host = (float(x) for x in done.stdout.split()[-2:])
        samples.append((ready - t0) / host)
    return statistics.median(samples)


def decision_percentile(latency_us: np.ndarray, controller: np.ndarray, q: float) -> float:
    """The q-th percentile of each controller's decision latencies, as a
    geometric mean over the controllers.  A workload that mixes controllers
    has one latency mode per controller, and a percentile of the mixture can
    fall in the gap between two modes, where it jumps with the mix."""
    per = [np.percentile(latency_us[controller == c], q) for c in np.unique(controller)]
    return float(np.exp(np.mean(np.log(per))))


def _end_to_end(
    steps: int, timed_ns: int, latency, host: float, setup_s: float, peak_rss_kb: int
) -> dict:
    """Times are scaled to the reference host speed: throughput is
    multiplied by `host` (median probe / PROBE_REF_NS), times divided by it.
    `latency` is the pair (nanoseconds, controller index) per decision."""
    lat = np.frombuffer(latency[0], dtype=np.int64) / 1e3
    ctl = np.frombuffer(latency[1], dtype=np.uint8)
    values = {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (steps / (timed_ns / 1e9) * host, "steps/s"),
        "decision_us_p50": (decision_percentile(lat, ctl, 50) / host, "us"),
        "decision_us_p90": (decision_percentile(lat, ctl, 90) / host, "us"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def _layer_metrics(tracer, steps: int) -> dict:
    idx = {n: i for i, n in enumerate(tracer.names)}

    def calls(n):
        return tracer.calls[idx[n]]

    def per_call(n, total=False, scale=1e3):
        c = calls(n)
        ns = (tracer.total_ns if total else tracer.self_ns)[idx[n]]
        return ns / c / scale if c else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    run_episode_steps = steps if calls("harness.run_episode") else 0
    values = {
        "grid.solve.calls": (calls("grid.solve"), "count"),
        "grid.solve.self_us": (per_call("grid.solve"), "us/call"),
        "grid.factor.calls": (calls("grid.factor"), "count"),
        "grid.factor.miss_ratio": (ratio(calls("grid.factor"), calls("grid.solve")), "ratio"),
        "environment.step.calls": (calls("environment.step"), "count"),
        "environment.step.self_us": (per_call("environment.step"), "us/call"),
        "environment.reset.calls": (calls("environment.reset"), "count"),
        "shield.predict.calls": (calls("shield.predict"), "count"),
        "shield.predict.per_step": (ratio(calls("shield.predict"), steps), "count/step"),
        "shield.predict.us": (per_call("shield.predict", total=True), "us/call"),
        "shield.predict.miss_ratio": (
            ratio(
                tracer.calls_under("environment.solve_state", "shield.predict"),
                calls("shield.predict"),
            ),
            "ratio",
        ),
        "shield.project.calls": (calls("shield.project"), "count"),
        "shield.project.self_us": (per_call("shield.project"), "us/call"),
        "shield.cbf_mask.calls": (calls("shield.cbf_mask"), "count"),
        "shield.cbf_mask.self_us": (per_call("shield.cbf_mask"), "us/call"),
        "agent.act.self_us": (per_call("agent.act"), "us/call"),
        "agent.ground.calls": (calls("agent.ground"), "count"),
        "agent.ground.self_us": (per_call("agent.ground"), "us/call"),
        "agent.features.per_step": (ratio(calls("agent.features"), steps), "count/step"),
        "agent.features.us": (per_call("agent.features", total=True), "us/call"),
        "agent.forward.us": (per_call("agent.forward", total=True), "us/call"),
        "training.rollout.self_s": (
            tracer.self_ns[idx["training.rollout"]] / 1e9, "s"
        ),
        "training.update.ms": (per_call("training.update", total=True, scale=1e6), "ms/call"),
        "harness.run_episode.self_us": (
            ratio(tracer.self_ns[idx["harness.run_episode"]] / 1e3, run_episode_steps),
            "us/step",
        ),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _run_round(workload, recorder, r: int):
    """Round r's operations, each timed on its own; an operation that
    raises yields its exception as output.  Each episode is checked as it
    ends, outside the timed region.  Returns the ops, their outputs, the
    episode summaries each recorded and the round's timed nanoseconds."""
    ops = workload.ops(r)
    outputs, episodes, elapsed = [], [], 0
    for op in ops:
        recorder.finish = op.finish
        excluded = recorder.excluded_ns
        t0 = perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # counted as a failed operation
            out = exc
        elapsed += perf_counter_ns() - t0 - (recorder.excluded_ns - excluded)
        outputs.append(out)
        episodes.append(recorder.take_episodes())
    return ops, outputs, episodes, elapsed


def replay_errors(workload, recorder, first_digest: str) -> list[str]:
    """Round 0 again, caches now warm: its records must not change."""
    replay = workload.check(*_run_round(workload, recorder, 0)[:3])
    errors = list(replay.errors)
    if replay.digest != first_digest:
        errors.append(f"round 0 replayed to digest {replay.digest}, first run {first_digest}")
    return errors


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "gridshield" / "__init__.py").is_file():
        print(f"no gridshield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from gsbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    workload = spec.make(args.seed)
    if args.probe:
        ready = time.time()
        from gsbench.probes import host_probe_ns

        host = statistics.median(host_probe_ns() for _ in range(21)) / PROBE_REF_NS
        print(repr(ready), repr(host))
        return 0

    from gsbench.probes import Recorder, Tracer

    recorder = Recorder().install()
    tracer = Tracer(recorder.clock).install() if args.trace else None

    budget_ns = int(args.seconds * 1e9)
    timed_ns = 0
    attempted = failed = 0
    errors: list[str] = []
    digests: list[str] = []
    peak_rss_kb = 0
    r = 0
    while timed_ns < budget_ns or r < spec.memory_rounds:
        ops, outputs, episodes, elapsed = _run_round(workload, recorder, r)
        timed_ns += elapsed
        verdict = workload.check(ops, outputs, episodes)
        del ops, outputs, episodes  # the next round must not find them alive
        attempted += verdict.attempted
        failed += verdict.failed
        errors += verdict.errors
        digests.append(verdict.digest)
        r += 1
        if r == spec.memory_rounds:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    steps = recorder.steps
    latency = (recorder.latency_ns[:], recorder.latency_controller[:])
    probes = np.frombuffer(recorder.probe_ns, dtype=np.int64).copy()
    if tracer is not None:
        tracer.uninstall()

    errors += replay_errors(workload, recorder, digests[0])
    recorder.uninstall()
    if not latency[0]:
        errors.append("the run took no decision")

    correct = not errors
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": r,
        "steps": steps,
        "decisions": len(latency[0]),
        "timed_s": timed_ns / 1e9,
        "wall_steps_per_s": steps / (timed_ns / 1e9),
        "host_probe_us": float(np.median(probes)) / 1e3 if len(probes) else 0.0,
        "digests": digests,
    }
    if not correct:
        metrics = {}
    elif tracer is not None:
        metrics = _layer_metrics(tracer, steps)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.npz")
    else:
        metrics = _end_to_end(
            steps, timed_ns, latency, float(np.median(probes)) / PROBE_REF_NS,
            setup_seconds(args.workload, args.seed), peak_rss_kb,
        )
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}) + "\n"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
