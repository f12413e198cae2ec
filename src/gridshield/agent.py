"""Size-invariant observation features, categorical policy and hierarchical
action grounding.

The policy consumes a fixed-length aggregate of the grid state (top-k
loadings, margin, demand ratio, ...) and emits logits over five abstract
intents.  A low-level executor grounds each intent to a concrete primitive
on whatever grid is in front of it, which is what lets one parameter vector
drive grids of different sizes.  The agent only proposes: shield.project
decides what each decision executes.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache

import numpy as np

from . import environment as env
from . import shield as shield_mod
from .environment import Action, EnvConfig, EnvState, NOOP, StepOutcome
from .grid import GridSpec, compiled
from .shield import ShieldConfig, ShieldDecision, ShieldMode

FEATURE_DIM = 11
TOP_K = 5
HIGH_LOAD_THRESHOLD = 0.9
HIDDEN_SIZES = (64, 64)


class AbstractAction(IntEnum):
    HOLD = 0
    RELIEVE_RANK1 = 1
    RELIEVE_RANK2 = 2
    RELIEVE_RANK3 = 3
    RESTORE_LINE = 4


N_ABSTRACT = len(AbstractAction)


class AgentVariant(Enum):
    FLAT = "flat"
    SHIELD_ONLY = "shield_only"
    HIERARCHY_ONLY = "hierarchy_only"
    HIERARCHY_SHIELD = "hierarchy_shield"
    HIERARCHY_CBF = "hierarchy_cbf"


# Shield mode each variant runs with.
VARIANT_SHIELD_MODE = {
    AgentVariant.FLAT: ShieldMode.OFF,
    AgentVariant.SHIELD_ONLY: ShieldMode.VETO,
    AgentVariant.HIERARCHY_ONLY: ShieldMode.OFF,
    AgentVariant.HIERARCHY_SHIELD: ShieldMode.PROJECTION,
    AgentVariant.HIERARCHY_CBF: ShieldMode.CBF_MASK,
}


def extract_features(state: EnvState, spec: GridSpec, config: EnvConfig) -> np.ndarray:
    """Fixed-length feature vector, independent of grid size.

    Layout: top-5 loading ratios (descending, zero-padded), fraction of
    lines above 0.9, mean loading, safety margin, fraction of lines out of
    service, total demand / total capacity, time remaining fraction.
    """
    rho = state.last_solution.rho
    n_lines = rho.size
    mean = rho.sum() / n_lines
    if mean == mean:
        ascending = sorted(rho.tolist())
        high = n_lines - bisect_right(ascending, HIGH_LOAD_THRESHOLD)
    else:  # np.sort puts NaNs last, where sorted() would leave them anywhere
        ascending = np.sort(rho).tolist()
        high = np.count_nonzero(rho > HIGH_LOAD_THRESHOLD)
    top = ascending[: -TOP_K - 1 : -1] + [0.0] * (TOP_K - n_lines)
    return np.array(top + [
        high / n_lines,
        mean,
        1.0 - ascending[-1],
        1.0 - np.count_nonzero(state.line_status) / n_lines,
        state.load_demands.sum() / compiled(spec).total_capacity,
        1.0 - state.t / config.horizon,
    ])


@dataclass
class PolicyParams:
    """Feed-forward net: input -> H1 -> H2 -> logits, rectified hiddens."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    def layers(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.w1.shape[0], self.w1.shape[1], self.w2.shape[1], self.w3.shape[1])

    def n_params(self) -> int:
        return sum(a.size for a in self.layers())


def init_policy_params(
    seed: int,
    input_dim: int = FEATURE_DIM,
    hidden: tuple[int, int] = HIDDEN_SIZES,
    n_actions: int = N_ABSTRACT,
) -> PolicyParams:
    """Weights uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero."""
    rng = np.random.default_rng(seed)
    dims = (input_dim, *hidden, n_actions)
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        s = np.sqrt(6.0 / (fan_in + fan_out))
        layers += [rng.uniform(-s, s, size=(fan_in, fan_out)), np.zeros(fan_out)]
    return PolicyParams(*layers)


def policy_logits(params: PolicyParams, x: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single feature vector or a batch."""
    h1 = np.maximum(x @ params.w1 + params.b1, 0.0)
    h2 = np.maximum(h1 @ params.w2 + params.b2, 0.0)
    return h2 @ params.w3 + params.b3


def action_distribution(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax (max subtraction); rows sum to 1."""
    if logits.ndim == 1:
        # max() over the list equals the reduction: a NaN leaves every entry
        # NaN either way
        e = np.exp(logits - max(logits.tolist()))
        e /= e.sum()
        return e
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sample_abstract(dist: np.ndarray, rng: np.random.Generator) -> AbstractAction:
    """Inverse-CDF sample from a categorical distribution: the first intent
    whose running sum of probabilities, added left to right, exceeds a
    uniform draw, else the last."""
    r = rng.random()
    probs = dist.tolist()
    total = 0.0
    for i, p in enumerate(probs):
        total += p
        # a NaN sum counts as exceeding, as numpy's searchsorted orders it
        if not total <= r:
            return AbstractAction(i)
    return AbstractAction(len(probs) - 1)


def ranked_lines(state: EnvState) -> np.ndarray:
    """In-service lines ordered by loading, heaviest first (ties by id)."""
    in_service = state.line_status.nonzero()[0]
    # in_service ascends, so a stable sort breaks ties by id
    return in_service[(-state.last_solution.rho[in_service]).argsort(kind="stable")]


def _longest_out_reconnect(state: EnvState) -> Action:
    eligible = np.flatnonzero((~state.line_status) & (state.cooldowns == 0))
    if eligible.size == 0:
        return NOOP
    best = max((int(l) for l in eligible), key=lambda l: (state.out_steps[l], -l))
    return env.reconnect(best)


def ground_action(
    abstract: AbstractAction,
    state: EnvState,
    spec: GridSpec,
    ranked: np.ndarray | None = None,
) -> Action:
    """Model-based executor for abstract intents.

    Relieve-rank-k searches the neighborhood of the k-th most loaded line
    for the disconnection with the lowest predicted peak loading (no
    admissibility filtering; the executor alone gives no safety guarantee).
    Falls back to NoOp when every candidate would island load or generation.
    The answer is read from the state's relieve table; only targets the
    table defers to shield.lowest_peak run a search.  `ranked` is
    ranked_lines(state), for a caller grounding several intents on one
    state.
    """
    if abstract is AbstractAction.HOLD:
        return NOOP
    if abstract is AbstractAction.RESTORE_LINE:
        return _longest_out_reconnect(state)

    rank = int(abstract)  # RELIEVE_RANK1..3 -> 1..3
    if ranked is None:
        ranked = ranked_lines(state)
    if rank > len(ranked):
        return NOOP
    target = ranked[rank - 1]
    best = int(shield_mod.relieve_table(state, spec)[target])
    if best < 0:
        # the in-service lines sharing a bus with the target, target included
        hood = np.flatnonzero(compiled(spec).line_adjacency[target] & state.line_status)
        best = shield_mod.lowest_peak(state, spec, 1 + hood) or 0
    # position 0 is NoOp
    return shield_mod.default_candidates(spec)[best]


@lru_cache(maxsize=64)
def base_ranking(spec: GridSpec) -> tuple[int, ...]:
    """Line ids ordered by base-dispatch loading, heaviest first."""
    setpoints = env.base_dispatch(spec)
    c = compiled(spec)
    solution = env.solve_state(spec, setpoints, c.base_demand, np.ones(spec.n_lines, bool))
    return tuple(sorted(range(spec.n_lines), key=lambda l: (-solution.rho[l], l)))


def ground_action_direct(
    abstract: AbstractAction, state: EnvState, spec: GridSpec
) -> Action:
    """Flat grounding: each intent is a fixed concrete primitive with no
    lookahead.  Relieve-rank-k disconnects the line holding rank k in the
    base-dispatch loading order, the way a flat policy's outputs are bound
    to fixed action indices."""
    if abstract is AbstractAction.HOLD:
        return NOOP
    if abstract is AbstractAction.RESTORE_LINE:
        return _longest_out_reconnect(state)
    rank = int(abstract)
    ranked = base_ranking(spec)
    if rank > len(ranked):
        return NOOP
    return env.disconnect(ranked[rank - 1])


@dataclass(frozen=True)
class ActResult:
    """One executed action plus full decision provenance."""

    decision: ShieldDecision
    # The sampled intent; None without a policy.
    abstract: AbstractAction | None = None
    # Mask applied to the intent distribution before sampling (None when no
    # masking happened); needed to reconstruct log-probabilities.
    mask: np.ndarray | None = None
    # The policy's input features for the state; None without a policy.
    features: np.ndarray | None = None


def _policy_sample(
    params: PolicyParams,
    state: EnvState,
    spec: GridSpec,
    env_cfg: EnvConfig,
    mask: np.ndarray | None = None,
) -> tuple[AbstractAction, np.ndarray]:
    """Intent sampled from the state's stream, and its feature vector."""
    x = extract_features(state, spec, env_cfg)
    dist = action_distribution(policy_logits(params, x))
    if mask is not None:
        dist = dist * mask
        dist = dist / dist.sum()
    return sample_abstract(dist, state.rng), x


def act(
    variant: AgentVariant,
    params: PolicyParams | None,
    state: EnvState,
    spec: GridSpec,
    shield_cfg: ShieldConfig,
    env_cfg: EnvConfig,
) -> ActResult:
    """One decision, random draws from the state's stream: the variant
    proposes and shield.project decides.  Shield-only proposes a uniformly
    random feasible action, flat grounds its intent directly and the
    hierarchies through the executor; hierarchy+CBF samples only among the
    grounded intents cbf_mask admits, so its shield never vetoes."""
    expected = VARIANT_SHIELD_MODE[variant]
    if shield_cfg.mode is not expected:
        raise ValueError(f"{variant.value} requires shield mode {expected.value}")

    abstract = mask = x = None
    if variant is AgentVariant.SHIELD_ONLY:
        actions = env.enumerate_actions(spec, env_cfg)
        feasible = [a for a in actions if env.action_feasible(state, a, spec)]
        proposed = feasible[int(state.rng.integers(len(feasible)))]
    elif variant is AgentVariant.HIERARCHY_CBF:
        ranked = ranked_lines(state)
        grounded = [ground_action(a, state, spec, ranked) for a in AbstractAction]
        mask = shield_mod.cbf_mask(state, grounded, spec, shield_cfg)
        abstract, x = _policy_sample(params, state, spec, env_cfg, mask=mask)
        proposed = grounded[abstract]
    else:
        abstract, x = _policy_sample(params, state, spec, env_cfg)
        if variant is AgentVariant.FLAT:
            proposed = ground_action_direct(abstract, state, spec)
        else:
            proposed = ground_action(abstract, state, spec)
    return ActResult(shield_mod.project(state, proposed, spec, shield_cfg), abstract, mask, x)


def episode(
    variant: AgentVariant,
    params: PolicyParams | None,
    spec: GridSpec,
    env_cfg: EnvConfig,
    shield_cfg: ShieldConfig,
    seed: int,
) -> Iterator[tuple[EnvState, ActResult, StepOutcome]]:
    """The one episode loop of training, evaluation and audits: reset, then
    act -> step until termination.  Yields (state acted on, act's result,
    step's outcome) per step, the reset state first and a terminated outcome
    last.  A learned variant without params raises ValueError."""
    if variant is not AgentVariant.SHIELD_ONLY and params is None:
        raise ValueError(f"variant {variant.value} requires trained policy params")
    state = env.reset(spec, env_cfg, seed)
    while True:
        res = act(variant, params, state, spec, shield_cfg, env_cfg)
        outcome = env.step(state, res.decision.executed, spec, env_cfg)
        yield state, res, outcome
        if outcome.terminated:
            return
        state = outcome.next_state


def discounted_return(rewards, gamma: float) -> float:
    """Sum of gamma^t * r_t."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size == 0:
        return 0.0
    return float(np.dot(gamma ** np.arange(rewards.size), rewards))
