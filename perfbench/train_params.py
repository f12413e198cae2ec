"""Policy parameters trained the way the program's suites train them.

    python3 perfbench/train_params.py

Trains flat, hierarchy+shield and hierarchy+CBF on train14 with
`harness.train_params_for` under the default `RunConfig` (nominal mode,
200 updates x 4 episodes, base seed 0), which is what the stress and
transfer suites evaluate, and writes each variant's parameters to
perfbench/params/<variant>.npz.  The evaluation workloads load them, so
their traffic is that of a trained controller.  Takes a few minutes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gridshield import harness  # noqa: E402
from gridshield.agent import AgentVariant  # noqa: E402

PARAMS = HERE / "params"
VARIANTS = (AgentVariant.FLAT, AgentVariant.HIERARCHY_SHIELD, AgentVariant.HIERARCHY_CBF)
NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


def main() -> None:
    PARAMS.mkdir(exist_ok=True)
    for variant in VARIANTS:
        t0 = time.perf_counter()
        res = harness.train_params_for(variant, harness.RunConfig())
        np.savez(PARAMS / f"{variant.value}.npz", **dict(zip(NAMES, res.params.layers())))
        print(
            f"{variant.value}: {time.perf_counter() - t0:.0f} s, margin return "
            f"{res.margin_returns[0]:.3f} -> {res.margin_returns[-1]:.3f}",
            flush=True,
        )


if __name__ == "__main__":
    main()
