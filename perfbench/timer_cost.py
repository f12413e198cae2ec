"""Cost of the benchmark's `agent.act` timer.

    python3 perfbench/timer_cost.py

Swaps `gridshield.agent.act` for a function that returns at once, then
times 200,000 calls of it bare and through the Recorder's wrapper (the
timer plus the bookkeeping the checks need).  Prints, as medians over
seven repeats, the time the wrapper adds per call and the latency it
records for a call that does nothing.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gridshield.agent as agent_mod  # noqa: E402

from gsbench.probes import Recorder  # noqa: E402

CALLS = 200_000
ARGS = (None, None, object(), None, None, None, None)


def _per_call_ns(fn) -> float:
    t0 = perf_counter_ns()
    for _ in range(CALLS):
        fn(*ARGS)
    return (perf_counter_ns() - t0) / CALLS


def main() -> None:
    agent_mod.act = bare = lambda *args: None
    rec = Recorder().install()
    wrapped = agent_mod.act
    added, recorded = [], []
    for _ in range(7):
        n0 = len(rec.latency_ns)
        added.append(_per_call_ns(wrapped) - _per_call_ns(bare))
        recorded.append(statistics.median(rec.latency_ns[n0:]))
    rec.uninstall()
    print(f"the timer adds {statistics.median(added):.0f} ns to each act call")
    print(f"it records {statistics.median(recorded):.0f} ns for an act call that does nothing")


if __name__ == "__main__":
    main()
