import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridshield import agent, environment as env, grid, shield
from gridshield.agent import (
    AbstractAction,
    AgentVariant,
    FEATURE_DIM,
    action_distribution,
    act,
    discounted_return,
    extract_features,
    ground_action,
    ground_action_direct,
    init_policy_params,
    policy_logits,
    sample_abstract,
)
from gridshield.environment import EnvConfig, NOOP, disconnect, reset, step
from gridshield.grid import GenSpec, GridSpec, LineSpec, LoadSpec
from gridshield.shield import ShieldConfig, ShieldMode


class TestFeatures:
    def test_idle_grid_vector(self):
        # all rho = 0, full service, t = 0
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 0, 1, 1.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
            loads=(LoadSpec(0, 1, 0.0),),
            slack_bus=0,
        )
        state = reset(spec, EnvConfig(), seed=0)
        x = extract_features(state, spec, EnvConfig())
        demand_ratio = 0.0
        expected = np.array([0, 0, 0, 0, 0, 0, 0, 1.0, 0, demand_ratio, 1.0])
        assert np.allclose(x, expected)

    def test_top_k_sorted_and_padded(self, triangle):
        state = reset(triangle, EnvConfig(load_noise_sigma=0.0), seed=0)
        # fabricate a known rho profile on the stored solution
        sol = state.last_solution
        object.__setattr__(sol, "rho", np.array([0.5, 0.2, 0.9]))
        x = extract_features(state, triangle, EnvConfig())
        assert np.allclose(x[:5], [0.9, 0.5, 0.2, 0.0, 0.0])

    def test_size_invariance_via_duplicated_lines(self):
        # a grid of n identical parallel lines and its line-duplicated twin
        # share every aggregate statistic (top-k saturated by equal values,
        # same mean, margin, demand ratio), so features must match
        def parallel(n):
            return GridSpec(
                buses=(0, 1),
                lines=tuple(LineSpec(i, 0, 1, 2.0 / n, 1.0 / n) for i in range(n)),
                generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
                loads=(LoadSpec(0, 1, 0.8),),
                slack_bus=0,
            )

        cfg = EnvConfig(load_noise_sigma=0.0)
        base, doubled = parallel(6), parallel(12)
        xa = extract_features(reset(base, cfg, seed=0), base, cfg)
        xb = extract_features(reset(doubled, cfg, seed=0), doubled, cfg)
        assert np.allclose(xa, xb)

    def test_fixed_length_across_builtin_grids(self, toy5, train14, large36):
        for spec in (toy5, train14, large36):
            state = reset(spec, EnvConfig(), seed=0)
            assert extract_features(state, spec, EnvConfig()).shape == (FEATURE_DIM,)

    @pytest.mark.parametrize("name", ["toy5", "train14", "large36", "triangle"])
    def test_equals_mean_formulation_bit_for_bit(self, name, request):
        # triangle has fewer lines than TOP_K: the zero-padded branch
        spec = request.getfixturevalue(name)
        cfg = EnvConfig(load_noise_sigma=0.1)
        state = reset(spec, cfg, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(40):
            rho = state.last_solution.rho
            want = np.empty(FEATURE_DIM)
            top = np.sort(rho)[::-1][:5]
            want[:5] = np.pad(top, (0, 5 - top.size))
            want[5] = np.count_nonzero(rho > agent.HIGH_LOAD_THRESHOLD) / rho.size
            want[6] = rho.mean()
            want[7] = 1.0 - rho.max()
            want[8] = 1.0 - state.line_status.mean()
            want[9] = state.load_demands.sum() / grid.compiled(spec).p_max.sum()
            want[10] = 1.0 - state.t / cfg.horizon
            got = extract_features(state, spec, cfg)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
            # random disconnects and reconnects vary the service fraction
            action = env.enumerate_actions(spec, cfg)[int(rng.integers(1 + 2 * spec.n_lines))]
            outcome = step(state, action, spec, cfg)
            if outcome.terminated:
                state = reset(spec, cfg, seed=int(rng.integers(1000)))
            else:
                state = outcome.next_state

    @given(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.9, 0.95, 1.3, np.inf, np.nan]) | st.floats(0.0, 3.0),
            min_size=1, max_size=12,
        ),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_equals_sort_and_pad_formulation_bit_for_bit(self, rho, seed):
        # ties, fewer than five lines, unbounded loadings and NaN (np.sort
        # puts it last, so it leads the top five)
        rng = np.random.default_rng(seed)
        n = len(rho)
        spec = GridSpec(
            buses=(0, 1),
            lines=tuple(LineSpec(i, 0, 1, 1.0 + i, 1.0) for i in range(n)),
            generators=(GenSpec(0, 0, 0.0, 2.0, 0.5), GenSpec(1, 1, 0.0, 1.5, 0.5)),
            loads=(LoadSpec(0, 1, 0.7),),
            slack_bus=0,
        )
        cfg = EnvConfig(horizon=int(rng.integers(1, 300)))
        state = reset(spec, cfg, seed=0)
        state = dataclasses.replace(
            state,
            t=int(rng.integers(cfg.horizon)),
            line_status=rng.random(n) < 0.7,
            load_demands=state.load_demands * rng.uniform(0.8, 1.2),
            last_solution=dataclasses.replace(state.last_solution, rho=np.array(rho)),
        )
        rho = state.last_solution.rho
        top = np.sort(rho)[::-1][:5]
        padded = np.zeros(5)
        padded[: top.size] = top
        want = np.empty(FEATURE_DIM)
        want[:5] = padded
        want[5] = np.count_nonzero(rho > agent.HIGH_LOAD_THRESHOLD) / n
        want[6] = rho.sum() / n
        want[7] = 1.0 - rho.max()
        want[8] = 1.0 - np.count_nonzero(state.line_status) / n
        want[9] = state.load_demands.sum() / grid.compiled(spec).p_max.sum()
        want[10] = 1.0 - state.t / cfg.horizon
        got = extract_features(state, spec, cfg)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


class TestPolicyNetwork:
    def test_zero_weights_zero_logits(self):
        p = init_policy_params(0)
        for a in p.layers():
            a[:] = 0.0
        x = np.ones(FEATURE_DIM)
        assert np.all(policy_logits(p, x) == 0.0)

    def test_forward_matches_independent_reimplementation(self):
        rng = np.random.default_rng(5)
        p = init_policy_params(5)
        x = rng.normal(size=FEATURE_DIM)
        # second, hand-written forward pass
        h1 = np.maximum(x @ p.w1 + p.b1, 0)
        h2 = np.maximum(h1 @ p.w2 + p.b2, 0)
        expected = h2 @ p.w3 + p.b3
        assert np.abs(policy_logits(p, x) - expected).max() <= 1e-12

    def test_batch_forward_consistent(self):
        p = init_policy_params(1)
        xs = np.random.default_rng(2).normal(size=(7, FEATURE_DIM))
        batch = policy_logits(p, xs)
        rows = np.stack([policy_logits(p, x) for x in xs])
        assert np.abs(batch - rows).max() <= 1e-12

    def test_init_deterministic(self):
        a, b = init_policy_params(9), init_policy_params(9)
        assert all(np.array_equal(x, y) for x, y in zip(a.layers(), b.layers()))


class TestActionDistribution:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(action_distribution(np.zeros(2)), [0.5, 0.5])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, logits, c):
        logits = np.array(logits)
        a = action_distribution(logits)
        b = action_distribution(logits + c)
        assert np.abs(a - b).max() <= 1e-12

    @given(st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=8))
    def test_normalized_and_nonnegative(self, logits):
        d = action_distribution(np.array(logits))
        assert abs(d.sum() - 1.0) <= 1e-12
        assert np.all(d >= 0)

    def test_extreme_logits_no_overflow(self):
        d = action_distribution(np.array([1000.0, 0.0]))
        assert d[0] == pytest.approx(1.0)
        assert np.isfinite(d).all()

    @given(st.integers(min_value=0, max_value=10_000))
    def test_equals_np_max_formulation_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 10, size=(int(rng.integers(1, 9)), 5))
        logits[rng.random(logits.shape) < 0.2] = -np.inf  # masked entries
        logits[:, 0] = np.where(np.isinf(logits).all(axis=1), 0.0, logits[:, 0])
        if seed % 3 == 0:  # a NaN turns its row all NaN
            logits.flat[int(rng.integers(logits.size))] = np.nan
        for x in (logits, logits[0]):  # batched and 1-D
            z = x - np.max(x, axis=-1, keepdims=True)
            e = np.exp(z)
            want = e / e.sum(axis=-1, keepdims=True)
            got = action_distribution(x)
            assert got.shape == want.shape
            assert [v.hex() for v in got.ravel().tolist()] == [
                v.hex() for v in want.ravel().tolist()
            ]
        # a vector takes no keepdims reductions, yet equals its row of a batch
        batch = action_distribution(logits)
        for x, row in zip(logits, batch):
            got = action_distribution(x).tolist()
            assert [v.hex() for v in got] == [v.hex() for v in row.tolist()]


class TestSampling:
    def test_deterministic_distribution(self):
        rng = np.random.default_rng(0)
        d = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert all(sample_abstract(d, rng) == AbstractAction.HOLD for _ in range(20))

    def test_replay_same_rng_state(self):
        d = np.array([0.3, 0.2, 0.2, 0.2, 0.1])
        rng = np.random.default_rng(4)
        snap = rng.bit_generator.state
        a = sample_abstract(d, rng)
        rng.bit_generator.state = snap
        assert sample_abstract(d, rng) == a

    def test_empirical_frequencies_within_3_sigma(self):
        # statistical oracle: binomial 3-sigma band around p = 0.75
        rng = np.random.default_rng(123)
        d = np.array([0.25, 0.75, 0.0, 0.0, 0.0])
        n = 100_000
        draws = sum(int(sample_abstract(d, rng)) == 1 for _ in range(n))
        p_hat = draws / n
        sigma = np.sqrt(0.75 * 0.25 / n)
        assert abs(p_hat - 0.75) <= 3 * sigma

    @given(st.integers(min_value=0, max_value=10_000))
    def test_equals_cumsum_searchsorted_formulation(self, seed):
        # masked softmax rows, an all-masked NaN row, and draws placed on,
        # just below and just above every cumulative boundary
        class Draw:
            def __init__(self, r):
                self.r = r

            def random(self):
                return self.r

        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 5, size=5)
        mask = rng.random(5) < 0.6
        with np.errstate(invalid="ignore"):
            dists = [action_distribution(logits), *(d / d.sum() for d in (
                action_distribution(logits) * mask, np.zeros(5)))]
        for dist in dists:
            cum = np.cumsum(dist)
            edges = [r for c in cum[np.isfinite(cum)].tolist() if 0 <= c < 1
                     for r in (c, np.nextafter(c, 0.0), np.nextafter(c, 1.0))]
            for r in [0.0, float(rng.random()), np.nextafter(1.0, 0.0), *edges]:
                want = min(int(np.searchsorted(cum, r, side="right")), dist.size - 1)
                assert sample_abstract(dist, Draw(r)) == want


class TestGrounding:
    def test_hold_is_noop(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        assert ground_action(AbstractAction.HOLD, state, train14) == NOOP

    def test_relieve_rank1_matches_exhaustive_predict(self, train14):
        # unique flow-reducing disconnect in the top line's neighborhood
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(train14, cfg, seed=0)
        action = ground_action(AbstractAction.RELIEVE_RANK1, state, train14)
        ranked = agent.ranked_lines(state)
        ends = {train14.lines[ranked[0]].from_bus, train14.lines[ranked[0]].to_bus}
        hood = [ell for ell, line in enumerate(train14.lines)
                if state.line_status[ell] and ends & {line.from_bus, line.to_bus}]
        best = None
        for ell in hood:
            pred = shield.predict(state, disconnect(ell), train14)
            key = (pred.max_rho, ell)
            if best is None or key < best:
                best = key
        assert action == disconnect(best[1])

    @given(st.integers(min_value=0, max_value=10_000))
    def test_ranked_lines_equals_lexsort_formulation(self, seed):
        # few distinct loadings, so ties are common, and random outages
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        rho = rng.integers(0, 4, size=n) / 4.0
        status = rng.random(n) < 0.7
        state = SimpleNamespace(line_status=status, last_solution=SimpleNamespace(rho=rho))
        in_service = np.flatnonzero(status)
        want = in_service[np.lexsort((in_service, -rho[in_service]))]
        got = agent.ranked_lines(state)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_restore_all_in_service_noop(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        assert ground_action(AbstractAction.RESTORE_LINE, state, train14) == NOOP

    def test_restore_reconnects_longest_out(self, toy5):
        cfg = EnvConfig(load_noise_sigma=0.0, reconnection_cooldown=1)
        state = reset(toy5, cfg, seed=0)
        state = step(state, disconnect(1), toy5, cfg).next_state
        state = step(state, disconnect(2), toy5, cfg).next_state
        state = step(state, NOOP, toy5, cfg).next_state
        action = ground_action(AbstractAction.RESTORE_LINE, state, toy5)
        assert action == env.reconnect(1)  # out the longest

    def test_relieve_falls_back_when_all_candidates_island(self, two_bus):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(two_bus, cfg, seed=0)
        action = ground_action(AbstractAction.RELIEVE_RANK1, state, two_bus)
        assert action == NOOP  # cutting the only line strands the load

    def test_direct_grounding_targets_ranked_line(self, train14):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(train14, cfg, seed=0)
        ranked = agent.ranked_lines(state)
        a1 = ground_action_direct(AbstractAction.RELIEVE_RANK1, state, train14)
        a3 = ground_action_direct(AbstractAction.RELIEVE_RANK3, state, train14)
        assert a1 == disconnect(ranked[0])
        assert a3 == disconnect(ranked[2])


class TestAct:
    def test_flat_never_vetoes(self, train14):
        params = init_policy_params(0)
        cfg = ShieldConfig(mode=ShieldMode.OFF)
        steps = agent.episode(AgentVariant.FLAT, params, train14, EnvConfig(), cfg, 1)
        for _, res, _ in itertools.islice(steps, 15):
            assert not res.decision.vetoed

    def test_hierarchy_cbf_zero_vetoes_over_episode(self, train14):
        params = init_policy_params(0)
        cfg = ShieldConfig(mode=ShieldMode.CBF_MASK)
        env_cfg = EnvConfig(stress_mode=True)
        steps = agent.episode(AgentVariant.HIERARCHY_CBF, params, train14, env_cfg, cfg, 2)
        vetoes = sum(int(res.decision.vetoed) for _, res, _ in steps)
        assert vetoes == 0

    def test_shield_only_vetoed_proposal_becomes_noop(self, toy5):
        cfg = ShieldConfig(mode=ShieldMode.VETO)
        env_cfg = EnvConfig(load_noise_sigma=0.0)
        saw_veto = False
        # an episode that ends early would only replay from the same seed
        steps = agent.episode(AgentVariant.SHIELD_ONLY, None, toy5, env_cfg, cfg, 0)
        for _, res, _ in itertools.islice(steps, 60):
            if res.decision.vetoed and not res.decision.corrected:
                assert res.decision.executed == NOOP
                saw_veto = True
        assert saw_veto  # toy5 has an islanding action, random walk finds it

    def test_variant_mode_mismatch_rejected(self, train14):
        params = init_policy_params(0)
        state = reset(train14, EnvConfig(), seed=0)
        with pytest.raises(ValueError):
            act(AgentVariant.FLAT, params, state, train14,
                ShieldConfig(mode=ShieldMode.VETO), EnvConfig())

    def test_replay_determinism(self, train14):
        params = init_policy_params(3)
        cfg = ShieldConfig(mode=ShieldMode.PROJECTION)
        labels = []
        for _ in range(2):
            steps = agent.episode(
                AgentVariant.HIERARCHY_SHIELD, params, train14, EnvConfig(), cfg, 17
            )
            labels.append(
                [res.decision.executed.label() for _, res, _ in itertools.islice(steps, 25)]
            )
        assert labels[0] == labels[1]


class TestDiscountedReturn:
    def test_geometric_sum(self):
        assert discounted_return([1.0, 1.0, 1.0], 0.5) == pytest.approx(1.75)

    def test_empty(self):
        assert discounted_return([], 0.9) == 0.0

    def test_matches_backward_recursion_oracle(self):
        rng = np.random.default_rng(8)
        rewards = rng.normal(size=57)
        gamma = 0.97
        acc = 0.0
        for r in rewards[::-1]:
            acc = r + gamma * acc
        assert discounted_return(rewards, gamma) == pytest.approx(acc, abs=1e-12)
