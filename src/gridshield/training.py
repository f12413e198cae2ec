"""Policy-gradient training: REINFORCE with reward-to-go advantages, a
per-time-step mean baseline and a hand-rolled Adam optimizer.

The gradient estimate is the batch mean over trajectories of
sum_t grad log pi(a_t | x_t) * (G_t - b_t), where G_t is the discounted
return from step t onward (the reward-to-go) and b_t the mean G_t over the
batch's trajectories that reach step t (Williams, 1992).  Masked steps (CBF
variant) use the renormalized distribution, i.e. a softmax restricted to the
open intents, so log-probabilities stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import agent as agent_mod
from . import environment as env
from .agent import AgentVariant, PolicyParams, discounted_return, init_policy_params
from .environment import EnvConfig
from .grid import GridSpec
from .shield import ShieldConfig


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-3
    discount: float = 0.99
    episodes_per_update: int = 4
    total_updates: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8


@dataclass
class Trajectory:
    features: np.ndarray  # (T, FEATURE_DIM)
    actions: np.ndarray   # (T,) abstract intent indices
    rewards: np.ndarray   # (T,)
    masks: np.ndarray     # (T, N_ABSTRACT) bool; all-true when unmasked


@dataclass
class UpdateDiagnostics:
    mean_return: float
    grad_norm: float


class AdamOptimizer:
    """Adaptive-moment gradient ascent over the policy's parameter list."""

    def __init__(self, cfg: TrainConfig):
        self.cfg = cfg
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None
        self.steps = 0

    def update(self, params: PolicyParams, grads: list[np.ndarray]) -> PolicyParams:
        layers = params.layers()
        if self.m is None:
            self.m = [np.zeros_like(a) for a in layers]
            self.v = [np.zeros_like(a) for a in layers]
        self.steps += 1
        b1, b2, eps, lr = (
            self.cfg.beta1,
            self.cfg.beta2,
            self.cfg.epsilon,
            self.cfg.learning_rate,
        )
        new_layers = []
        for i, (theta, g) in enumerate(zip(layers, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.steps)
            v_hat = self.v[i] / (1 - b2**self.steps)
            new_layers.append(theta + lr * m_hat / (np.sqrt(v_hat) + eps))
        return PolicyParams(*new_layers)


def returns_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Backward recursion G_t = r_t + gamma * G_{t+1}."""
    out = np.zeros_like(rewards, dtype=float)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def policy_objective_and_grads(
    params: PolicyParams, trajectories: list[Trajectory], cfg: TrainConfig
) -> tuple[float, list[np.ndarray], UpdateDiagnostics]:
    """Surrogate objective J and its analytic gradient.

    J = (1/n_traj) * sum over steps of log pi(a_t|x_t) * (G_t - b_t), where
    G_t is the step's discounted reward-to-go and b_t the mean G_t over the
    trajectories that reach step t (both constants w.r.t. theta).  A step
    only its own trajectory reaches has zero advantage.
    """
    if not trajectories:
        raise ValueError("policy gradient update requires at least one trajectory")

    xs = np.concatenate([tr.features for tr in trajectories], axis=0)
    acts = np.concatenate([tr.actions for tr in trajectories], axis=0)
    masks = np.concatenate([tr.masks for tr in trajectories], axis=0)
    to_go = [returns_to_go(tr.rewards, cfg.discount) for tr in trajectories]
    longest = max(g.size for g in to_go)
    totals = np.zeros(longest)
    reach = np.zeros(longest)
    for g in to_go:
        totals[: g.size] += g
        reach[: g.size] += 1
    baseline = totals / reach
    adv = np.concatenate([g - baseline[: g.size] for g in to_go])
    n_traj = len(trajectories)

    # Forward pass with cached pre-activations.
    z1 = xs @ params.w1 + params.b1
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ params.w2 + params.b2
    h2 = np.maximum(z2, 0.0)
    logits = h2 @ params.w3 + params.b3
    probs = agent_mod.action_distribution(np.where(masks, logits, -np.inf))

    rows = np.arange(acts.size)
    log_p = np.log(probs[rows, acts])
    objective = float(np.sum(log_p * adv) / n_traj)

    # Backward pass: dJ/dlogits = (onehot - p) * adv / n_traj.
    d_logits = -probs * (adv / n_traj)[:, None]
    d_logits[rows, acts] += adv / n_traj

    g_w3 = h2.T @ d_logits
    g_b3 = d_logits.sum(axis=0)
    d_h2 = (d_logits @ params.w3.T) * (z2 > 0)
    g_w2 = h1.T @ d_h2
    g_b2 = d_h2.sum(axis=0)
    d_h1 = (d_h2 @ params.w2.T) * (z1 > 0)
    g_w1 = xs.T @ d_h1
    g_b1 = d_h1.sum(axis=0)

    grads = [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3]
    grad_norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
    mean_return = float(np.mean([g[0] if g.size else 0.0 for g in to_go]))
    return objective, grads, UpdateDiagnostics(mean_return, grad_norm)


def policy_gradient_update(
    params: PolicyParams,
    trajectories: list[Trajectory],
    cfg: TrainConfig,
    optimizer: AdamOptimizer,
) -> tuple[PolicyParams, UpdateDiagnostics]:
    """One REINFORCE step; the optimizer carries its moments across updates."""
    _, grads, diag = policy_objective_and_grads(params, trajectories, cfg)
    return optimizer.update(params, grads), diag


def rollout(
    spec: GridSpec,
    env_cfg: EnvConfig,
    variant: AgentVariant,
    params: PolicyParams,
    shield_cfg: ShieldConfig,
    seed: int,
) -> Trajectory:
    """One agent.episode, collecting (features, intent, reward, mask) per step."""
    feats, acts, rews, masks = [], [], [], []
    all_open = np.ones(agent_mod.N_ABSTRACT, bool)
    for _, res, outcome in agent_mod.episode(variant, params, spec, env_cfg, shield_cfg, seed):
        feats.append(res.features)
        acts.append(res.abstract)
        rews.append(outcome.reward)
        masks.append(all_open if res.mask is None else res.mask)
    return Trajectory(
        features=np.array(feats),
        actions=np.array(acts, dtype=np.intp),
        rewards=np.array(rews),
        masks=np.array(masks, dtype=bool),
    )


def margin_return(rewards: np.ndarray, gamma: float) -> float:
    """Discounted return with the per-step survival bonus removed: the part
    a policy controls while the episode lasts.  The collapse penalty stays."""
    return discounted_return(rewards - env.SURVIVAL_BONUS, gamma)


@dataclass
class TrainResult:
    """Per-update batch means of the discounted return, of the margin return
    and the gradient norm, next to the final parameters."""

    params: PolicyParams
    mean_returns: list[float] = field(default_factory=list)
    margin_returns: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)


def train(
    spec: GridSpec,
    env_cfg: EnvConfig,
    train_cfg: TrainConfig,
    shield_cfg: ShieldConfig,
    variant: AgentVariant,
    seed: int,
) -> TrainResult:
    """Train the intent policy with the same act pathway used at evaluation
    time (the shield is active during training iff the variant carries it)."""
    if variant is AgentVariant.SHIELD_ONLY:
        raise ValueError("shield_only uses a random proposer; nothing to train")

    params = init_policy_params(seed)
    optimizer = AdamOptimizer(train_cfg)
    result = TrainResult(params=params)
    episode_index = 0
    for _ in range(train_cfg.total_updates):
        batch = []
        for _ in range(train_cfg.episodes_per_update):
            ep_seed = seed * 1_000_000 + episode_index
            batch.append(rollout(spec, env_cfg, variant, params, shield_cfg, ep_seed))
            episode_index += 1
        params, diag = policy_gradient_update(params, batch, train_cfg, optimizer)
        result.mean_returns.append(diag.mean_return)
        result.margin_returns.append(
            float(np.mean([margin_return(tr.rewards, train_cfg.discount) for tr in batch]))
        )
        result.grad_norms.append(diag.grad_norm)
    result.params = params
    return result
