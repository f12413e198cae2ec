"""The three workloads.  Each builds its inputs from the run's seed, hands
out one round of operations at a time, and checks a finished round.

A round is the unit a run repeats until its time is up, so every run
attempts whole rounds of the same operations:

* train14-train: one `training.train` call of 2 updates x 24 episodes,
  hierarchy+shield, train14, nominal mode; 48 episodes and 2 updates
  count as 50 operations.
* train14-stress: one `harness.run_episode` each for flat, shield-only and
  hierarchy+shield on train14 with the forced outage at step 10.
* large36-zeroshot: one `harness.run_episode` each for hierarchy+shield and
  hierarchy+CBF on large36, nominal mode.

The evaluation workloads run the parameters the suites would train
(perfbench/params/); the round's seed picks the episodes.  Each episode is
checked as it ends, and the round check compares the summaries with the
records and training results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gridshield import harness, training
from gridshield.agent import VARIANT_SHIELD_MODE, AgentVariant, PolicyParams
from gridshield.environment import EnvConfig
from gridshield.grids import builtin_grid
from gridshield.training import TrainConfig

from . import checks

RHO_MAX = 0.98
PARAMS = Path(__file__).resolve().parent.parent / "params"
UPDATES_PER_ROUND = 2
EPISODES_PER_UPDATE = 24


@dataclass
class Op:
    label: str
    run: object  # zero-argument callable, the timed part
    # (episode, index) -> checks.Summary, run on each episode as it ends
    finish: object
    weight: int = 1  # operations it stands for


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str = ""


def trained_params(variant: AgentVariant) -> PolicyParams | None:
    """The variant's parameters as the suites train them (see
    perfbench/train_params.py); None for the untrained shield-only proposer."""
    if variant is AgentVariant.SHIELD_ONLY:
        return None
    with np.load(PARAMS / f"{variant.value}.npz") as f:
        return PolicyParams(*(f[k] for k in ("w1", "b1", "w2", "b2", "w3", "b3")))


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


class EvalWorkload:
    """Evaluation episodes through `harness.run_episode`."""

    def __init__(self, grid: str, env_cfg: EnvConfig, variants, seed: int):
        self.grid = grid
        self.spec = builtin_grid(grid)
        self.env_cfg = env_cfg
        self.variants = variants
        self.seed = seed
        self.shield_cfgs = {v: harness.shield_config_for(v, RHO_MAX) for v in variants}
        self.params = {v: trained_params(v) for v in variants}
        self.checkers = {
            v: checks.Checker(self.spec, env_cfg, RHO_MAX, VARIANT_SHIELD_MODE[v].value)
            for v in variants
        }

    def ops(self, r: int) -> list[Op]:
        ep_seed = self.seed * 100_000 + r
        return [self._op(v, ep_seed) for v in self.variants]

    def _op(self, v: AgentVariant, ep_seed: int) -> Op:
        label = f"{v.value} episode {ep_seed}"
        checker = self.checkers[v]
        return Op(
            label,
            lambda: harness.run_episode(
                self.spec, self.env_cfg, v, self.params[v], self.shield_cfgs[v], ep_seed,
                grid_name=self.grid,
            ),
            lambda ep, i: checker.summarise(ep, label),
        )

    def check(self, ops: list[Op], outputs: list, episodes: list[list]) -> Verdict:
        verdict = Verdict(attempted=len(ops))
        digests = []
        for v, op, out, eps in zip(self.variants, ops, outputs, episodes):
            if isinstance(out, BaseException):
                verdict.failed += 1
                verdict.errors.append(f"{op.label}: raised {out!r}")
                continue
            errs = self._record(op.label, out, eps)
            if len(eps) == 1:
                errs += eps[0].errors
            if errs:
                verdict.failed += 1
                verdict.errors += errs
            digests.append(repr(out).encode())
        verdict.digest = _sha(*digests)
        return verdict

    @staticmethod
    def _record(label: str, rec, eps: list) -> list[str]:
        """The episode record against the summary of its transitions."""
        if len(eps) != 1:
            return [f"{label}: {len(eps)} resets recorded for one episode"]
        (ep,) = eps
        out = []
        if rec.steps != ep.steps:
            out.append(f"{label}: record says {rec.steps} steps, {ep.steps} were taken")
        if ep.failure is None or rec.failure != ep.failure:
            out.append(f"{label}: record failure {rec.failure} differs from the last step's")
        if rec.reward != ep.reward:
            out.append(f"{label}: record reward {rec.reward!r}, steps sum to {ep.reward!r}")
        if rec.vetoes != ep.vetoes:
            out.append(f"{label}: record says {rec.vetoes} vetoes, decisions {ep.vetoes}")
        return out


class TrainWorkload:
    """REINFORCE training of hierarchy+shield on train14."""

    variant = AgentVariant.HIERARCHY_SHIELD

    def __init__(self, seed: int):
        self.spec = builtin_grid("train14")
        self.env_cfg = EnvConfig()
        self.train_cfg = TrainConfig(
            episodes_per_update=EPISODES_PER_UPDATE, total_updates=UPDATES_PER_ROUND
        )
        self.shield_cfg = harness.shield_config_for(self.variant, RHO_MAX)
        self.checker = checks.Checker(
            self.spec, self.env_cfg, RHO_MAX, VARIANT_SHIELD_MODE[self.variant].value
        )
        self.seed = seed

    def ops(self, r: int) -> list[Op]:
        train_seed = self.seed * 10_000 + r
        return [
            Op(
                f"training seed {train_seed}",
                lambda: training.train(
                    self.spec, self.env_cfg, self.train_cfg, self.shield_cfg,
                    self.variant, train_seed,
                ),
                lambda ep, i, label=f"training seed {train_seed} episode": (
                    self.checker.summarise(ep, f"{label} {i}")
                ),
                weight=UPDATES_PER_ROUND * (EPISODES_PER_UPDATE + 1),
            )
        ]

    def check(self, ops: list[Op], outputs: list, episodes: list[list]) -> Verdict:
        (op,), (res,), (eps,) = ops, outputs, episodes
        verdict = Verdict(attempted=op.weight)
        if isinstance(res, BaseException):
            verdict.failed = op.weight
            verdict.errors.append(f"{op.label}: raised {res!r}")
            return verdict
        n_eps = UPDATES_PER_ROUND * EPISODES_PER_UPDATE
        if len(eps) != n_eps or len(res.margin_returns) != UPDATES_PER_ROUND:
            verdict.failed = op.weight
            verdict.errors.append(
                f"{op.label}: {len(eps)} episodes and {len(res.margin_returns)} updates "
                f"recorded, expected {n_eps} and {UPDATES_PER_ROUND}"
            )
            return verdict
        for ep in eps:
            if ep.errors:
                verdict.failed += 1
                verdict.errors += ep.errors
        gamma = self.train_cfg.discount
        for u in range(UPDATES_PER_ROUND):
            batch = eps[u * EPISODES_PER_UPDATE : (u + 1) * EPISODES_PER_UPDATE]
            errs = checks.training_update(
                [ep.rewards for ep in batch], res.mean_returns[u], res.margin_returns[u], gamma,
                f"{op.label} update {u}",
            )
            if u == UPDATES_PER_ROUND - 1:
                errs += checks.finite_params(res.params, op.label)
            if errs:
                verdict.failed += 1
                verdict.errors += errs
        verdict.digest = _sha(
            *(np.ascontiguousarray(a).tobytes() for a in res.params.layers()),
            json.dumps([res.mean_returns, res.margin_returns]).encode(),
        )
        return verdict


@dataclass(frozen=True)
class WorkloadSpec:
    make: object  # seed -> workload
    # Peak RSS is read after this many rounds, so it measures a fixed amount
    # of work whatever the program's speed; a run lasts at least this long.
    memory_rounds: int


WORKLOADS = {
    "train14-train": WorkloadSpec(TrainWorkload, 4),
    "train14-stress": WorkloadSpec(
        lambda seed: EvalWorkload(
            "train14",
            EnvConfig(stress_mode=True),
            (AgentVariant.FLAT, AgentVariant.SHIELD_ONLY, AgentVariant.HIERARCHY_SHIELD),
            seed,
        ),
        40,
    ),
    "large36-zeroshot": WorkloadSpec(
        lambda seed: EvalWorkload(
            "large36",
            EnvConfig(),
            (AgentVariant.HIERARCHY_SHIELD, AgentVariant.HIERARCHY_CBF),
            seed,
        ),
        80,
    ),
}
