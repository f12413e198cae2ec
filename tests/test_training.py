import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from gridshield import agent, environment as env, harness, shield, training
from gridshield.agent import (
    AgentVariant,
    PolicyParams,
    action_distribution,
    extract_features,
    init_policy_params,
    policy_logits,
)
from gridshield.environment import EnvConfig
from gridshield.shield import ShieldConfig, ShieldMode
from gridshield.training import (
    AdamOptimizer,
    TrainConfig,
    Trajectory,
    policy_gradient_update,
    policy_objective_and_grads,
    returns_to_go,
    rollout,
    train,
)


def tiny_params(seed=0, input_dim=6, hidden=(6, 6), n_actions=4, jitter_biases=False):
    p = init_policy_params(seed, input_dim=input_dim, hidden=hidden, n_actions=n_actions)
    if jitter_biases:
        # keep preactivations away from the relu kink (finite differences
        # are invalid exactly at the non-differentiable point)
        rng = np.random.default_rng(seed + 1000)
        p.b1 += rng.uniform(0.05, 0.2, size=p.b1.shape)
        p.b2 += rng.uniform(0.05, 0.2, size=p.b2.shape)
    return p


def _min_preactivation(params, trajs):
    xs = np.concatenate([tr.features for tr in trajs])
    z1 = xs @ params.w1 + params.b1
    h1 = np.maximum(z1, 0)
    z2 = h1 @ params.w2 + params.b2
    return min(float(np.abs(z1).min()), float(np.abs(z2).min()))


def random_trajectories(rng, n_traj, n_actions=4, input_dim=6, t_max=12):
    out = []
    for _ in range(n_traj):
        t = int(rng.integers(2, t_max))
        out.append(
            Trajectory(
                features=rng.normal(size=(t, input_dim)),
                actions=rng.integers(0, n_actions, size=t).astype(np.intp),
                rewards=rng.normal(size=t),
                masks=np.ones((t, n_actions), dtype=bool),
            )
        )
    return out


class TestReturns:
    def test_returns_to_go_matches_recursion(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=30)
        gamma = 0.95
        gs = returns_to_go(rewards, gamma)
        for t in range(29):
            assert gs[t] == pytest.approx(rewards[t] + gamma * gs[t + 1], abs=1e-12)
        assert gs[29] == pytest.approx(rewards[29])


class TestPolicyGradientUpdate:
    def test_zero_advantage_leaves_params_unchanged(self):
        # rewards engineered so G_t = r_t + gamma * G_{t+1} is the same
        # constant everywhere; advantages vanish and Adam applies a zero step
        cfg = TrainConfig()
        c, gamma = 2.0, cfg.discount
        rewards = np.array([c * (1 - gamma)] * 3 + [c])
        assert np.allclose(returns_to_go(rewards, gamma), c)
        params = tiny_params()
        trajs = [
            Trajectory(
                features=np.zeros((4, 6)),
                actions=np.zeros(4, dtype=np.intp),
                rewards=rewards.copy(),
                masks=np.ones((4, 4), dtype=bool),
            )
            for _ in range(3)
        ]
        new, diag = policy_gradient_update(params, trajs, cfg, AdamOptimizer(cfg))
        for a, b in zip(params.layers(), new.layers()):
            assert np.array_equal(a, b)
        assert diag.grad_norm == 0.0

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            policy_gradient_update(tiny_params(), [], TrainConfig(), AdamOptimizer(TrainConfig()))

    def test_single_step_matches_closed_form(self):
        # two-action policy, single-step trajectory: with identity-like
        # hiddens the output-layer gradient is h2 (outer) (onehot - p) * adv
        params = init_policy_params(0, input_dim=2, hidden=(2, 2), n_actions=2)
        params.w1[:] = np.eye(2)
        params.b1[:] = 0.0
        params.w2[:] = np.eye(2)
        params.b2[:] = 0.0
        params.w3[:] = np.array([[0.3, -0.2], [0.1, 0.4]])
        params.b3[:] = 0.0
        x = np.array([1.0, 2.0])  # positive, so relu is identity
        action = 1
        reward = 2.0
        traj = Trajectory(
            features=x[None, :],
            actions=np.array([action], dtype=np.intp),
            rewards=np.array([reward]),
            masks=np.ones((1, 2), dtype=bool),
        )
        cfg = TrainConfig()
        # batch of one: baseline equals the only G_t, advantage = 0; build a
        # two-trajectory batch to get a non-zero advantage instead
        traj2 = Trajectory(
            features=x[None, :],
            actions=np.array([0], dtype=np.intp),
            rewards=np.array([0.0]),
            masks=np.ones((1, 2), dtype=bool),
        )
        _, grads, _ = policy_objective_and_grads(params, [traj, traj2], cfg)
        logits = policy_logits(params, x)
        p = action_distribution(logits)
        adv1, adv2 = reward - 1.0, 0.0 - 1.0  # baseline = mean of G_t = 1.0
        d1 = (np.eye(2)[1] - p) * adv1 / 2
        d2 = (np.eye(2)[0] - p) * adv2 / 2
        expected_w3 = np.outer(x, d1) + np.outer(x, d2)
        assert np.abs(grads[4] - expected_w3).max() <= 1e-10
        assert np.abs(grads[5] - (d1 + d2)).max() <= 1e-10

    def test_reward_to_go_advantage_with_per_step_baseline(self):
        # three trajectories of lengths 3, 1 and 2 at gamma = 0.5:
        #   rewards [1, 2, 4] -> G_t [3, 4, 4]
        #   rewards [2]       -> G_t [2]
        #   rewards [0, 6]    -> G_t [3, 6]
        # b_t averages G_t over the trajectories that reach step t:
        # b = [8/3, 5, 4], so the advantages are [1/3, -1, 0], [-2/3] and
        # [1/3, 1].  A whole-episode return would give every step of the
        # first trajectory 1/3.
        params = init_policy_params(0, input_dim=3, hidden=(3, 3), n_actions=3)
        params.w1[:] = np.eye(3)
        params.b1[:] = 0.0
        params.w2[:] = np.eye(3)
        params.b2[:] = 0.0
        params.w3[:] = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.3], [-0.6, 0.2, 0.1]])
        params.b3[:] = 0.0
        rng = np.random.default_rng(11)
        spec = [([1.0, 2.0, 4.0], [0, 2, 1]), ([2.0], [1]), ([0.0, 6.0], [2, 0])]
        trajs = [
            Trajectory(
                features=rng.uniform(0.5, 2.0, size=(len(r), 3)),  # relu acts as identity
                actions=np.array(a, dtype=np.intp),
                rewards=np.array(r),
                masks=np.ones((len(r), 3), dtype=bool),
            )
            for r, a in spec
        ]
        advantages = [[1 / 3, -1.0, 0.0], [-2 / 3], [1 / 3, 1.0]]
        _, grads, diag = policy_objective_and_grads(params, trajs, TrainConfig(discount=0.5))
        expected_w3 = np.zeros((3, 3))
        expected_b3 = np.zeros(3)
        for tr, adv in zip(trajs, advantages):
            for x, a, g in zip(tr.features, tr.actions, adv):
                d = (np.eye(3)[a] - action_distribution(policy_logits(params, x))) * g / 3
                expected_w3 += np.outer(x, d)
                expected_b3 += d
        assert np.abs(grads[4] - expected_w3).max() <= 1e-12
        assert np.abs(grads[5] - expected_b3).max() <= 1e-12
        assert diag.mean_return == pytest.approx(8 / 3, abs=1e-12)

    def test_analytic_gradient_matches_finite_differences(self):
        # central differences over every parameter of a tiny network;
        # batches are drawn clear of relu kinks where the objective is not
        # differentiable
        rng = np.random.default_rng(3)
        cfg = TrainConfig()
        h = 1e-5
        for batch_idx in range(10):
            params = tiny_params(seed=batch_idx, jitter_biases=True)
            trajs = random_trajectories(rng, n_traj=3)
            while _min_preactivation(params, trajs) < 5e-4:
                trajs = random_trajectories(rng, n_traj=3)
            obj, grads, _ = policy_objective_and_grads(params, trajs, cfg)
            for layer_idx, grad in enumerate(grads):
                flat = params.layers()[layer_idx]
                it = np.nditer(flat, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _, _ = policy_objective_and_grads(params, trajs, cfg)
                    flat[idx] = orig - h
                    dn, _, _ = policy_objective_and_grads(params, trajs, cfg)
                    flat[idx] = orig
                    fd = (up - dn) / (2 * h)
                    scale = max(abs(fd), abs(grad[idx]), 1e-8)
                    assert abs(grad[idx] - fd) / scale <= 1e-4

    def test_masked_steps_use_renormalized_distribution(self):
        params = tiny_params()
        mask = np.array([True, False, True, False])
        traj = Trajectory(
            features=np.ones((1, 6)),
            actions=np.array([2], dtype=np.intp),
            rewards=np.array([1.0]),
            masks=mask[None, :],
        )
        traj2 = Trajectory(
            features=np.ones((1, 6)),
            actions=np.array([0], dtype=np.intp),
            rewards=np.array([0.0]),
            masks=mask[None, :],
        )
        _, grads, _ = policy_objective_and_grads(params, [traj, traj2], TrainConfig())
        # gradients w.r.t. the closed actions' output weights must vanish
        assert np.abs(grads[4][:, 1]).max() == 0.0
        assert np.abs(grads[4][:, 3]).max() == 0.0


class TestAdam:
    def test_ascent_direction(self):
        cfg = TrainConfig(learning_rate=0.01)
        opt = AdamOptimizer(cfg)
        params = tiny_params()
        before = params.w3.copy()
        grads = [np.zeros_like(a) for a in params.layers()]
        grads[4] = np.ones_like(params.w3)
        new = opt.update(params, grads)
        assert np.all(new.w3 > before)  # positive gradient raises weights

    def test_deterministic_sequence(self):
        def run():
            cfg = TrainConfig()
            opt = AdamOptimizer(cfg)
            params = tiny_params(7)
            rng = np.random.default_rng(0)
            for _ in range(5):
                grads = [rng.normal(size=a.shape) for a in params.layers()]
                params = opt.update(params, grads)
            return params

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a.layers(), b.layers()))


class TestTrain:
    def test_zero_updates_returns_initial_params(self, train14):
        cfg = TrainConfig(total_updates=0)
        result = train(
            train14,
            EnvConfig(),
            cfg,
            ShieldConfig(mode=ShieldMode.PROJECTION),
            AgentVariant.HIERARCHY_SHIELD,
            seed=5,
        )
        init = init_policy_params(5)
        assert all(np.array_equal(a, b) for a, b in zip(result.params.layers(), init.layers()))

    def test_fixed_seed_reproducible(self, toy5):
        def run():
            return train(
                toy5,
                EnvConfig(horizon=25),
                TrainConfig(total_updates=3, episodes_per_update=2),
                ShieldConfig(mode=ShieldMode.PROJECTION),
                AgentVariant.HIERARCHY_SHIELD,
                seed=1,
            )

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a.params.layers(), b.params.layers()))
        assert a.mean_returns == b.mean_returns

    def test_shield_only_rejected(self, toy5):
        with pytest.raises(ValueError):
            train(
                toy5,
                EnvConfig(),
                TrainConfig(),
                ShieldConfig(mode=ShieldMode.VETO),
                AgentVariant.SHIELD_ONLY,
                seed=0,
            )

    def test_rollout_records_one_tuple_per_step(self, toy5):
        params = init_policy_params(0)
        traj = rollout(
            toy5,
            EnvConfig(horizon=15),
            AgentVariant.HIERARCHY_SHIELD,
            params,
            ShieldConfig(mode=ShieldMode.PROJECTION),
            seed=3,
        )
        assert traj.features.shape[0] == traj.actions.shape[0] == traj.rewards.shape[0]
        assert traj.features.shape[0] <= 15
        first = env.reset(toy5, EnvConfig(horizon=15), 3)
        np.testing.assert_array_equal(
            traj.features[0], extract_features(first, toy5, EnvConfig(horizon=15))
        )

    @pytest.mark.parametrize(
        "variant",
        [
            AgentVariant.FLAT,
            AgentVariant.HIERARCHY_ONLY,
            AgentVariant.HIERARCHY_SHIELD,
            AgentVariant.HIERARCHY_CBF,
        ],
    )
    def test_training_and_evaluation_walk_the_same_episode(self, train14, variant):
        # training's rollout and evaluation's run_episode both consume
        # agent.episode, so one (params, seed) gives one episode
        env_cfg = EnvConfig(stress_mode=True, horizon=30)
        shield_cfg = harness.shield_config_for(variant, 0.98)
        params = init_policy_params(7)
        vetoes = 0
        for seed in (4, 5, 6):
            traj = rollout(train14, env_cfg, variant, params, shield_cfg, seed)
            rec = harness.run_episode(train14, env_cfg, variant, params, shield_cfg, seed)
            steps = list(agent.episode(variant, params, train14, env_cfg, shield_cfg, seed))
            assert len(traj.rewards) == rec.steps == len(steps)
            assert sum(traj.rewards.tolist()) == rec.reward
            assert sum(int(res.decision.vetoed) for _, res, _ in steps) == rec.vetoes
            assert [int(res.abstract) for _, res, _ in steps] == traj.actions.tolist()
            vetoes += rec.vetoes
        # the projection shield does veto on these episodes
        assert vetoes > 0 or variant is not AgentVariant.HIERARCHY_SHIELD


GOLDEN_TRAIN = Path(__file__).parent / "data" / "golden_train_train14.json"


def train_golden() -> str:
    """Per-update returns of a short hierarchy+shield training on train14, as
    float.hex, and a sha256 of the final parameters' bytes, as JSON text.
    Run this module as a script to rewrite the committed golden."""
    from gridshield.grids import builtin_grid

    result = train(
        builtin_grid("train14"),
        EnvConfig(),
        TrainConfig(episodes_per_update=4, total_updates=2),
        ShieldConfig(mode=ShieldMode.PROJECTION),
        AgentVariant.HIERARCHY_SHIELD,
        seed=11,
    )
    digest = hashlib.sha256()
    for layer in result.params.layers():
        digest.update(np.ascontiguousarray(layer).tobytes())
    payload = {
        "mean_returns": [float(r).hex() for r in result.mean_returns],
        "margin_returns": [float(r).hex() for r in result.margin_returns],
        "params_sha256": digest.hexdigest(),
    }
    return json.dumps(payload, indent=2) + "\n"


def test_training_matches_golden():
    # any change to a solve, a reward, a feature, a decision or the update
    # shows up as a differing return or parameter digest
    assert train_golden() == GOLDEN_TRAIN.read_text()


if __name__ == "__main__":
    GOLDEN_TRAIN.write_text(train_golden())
