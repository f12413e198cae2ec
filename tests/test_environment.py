import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridshield import environment as env, grid
from gridshield.environment import (
    Action,
    ActionKind,
    EnvConfig,
    FailureMode,
    NOOP,
    OVERLOAD_GRACE,
    compute_reward,
    disconnect,
    enumerate_actions,
    reconnect,
    redispatch,
    reset,
    sample_disturbance,
    step,
)
from gridshield.grid import GenSpec, GridSpec, LineSpec, LoadSpec, safety_margin
from gridshield.grids import builtin_grid


def ring_spec(n_lines, n_gens=1, p_max=2.0):
    """Ring of n_lines buses (n_lines lines), gen(s) at the first buses."""
    n = n_lines
    lines = tuple(
        LineSpec(i, i, (i + 1) % n, 5.0, 1.0) for i in range(n_lines)
    )
    gens = tuple(GenSpec(g, g, 0.0, p_max, 0.5) for g in range(n_gens))
    return GridSpec(
        buses=tuple(range(n)),
        lines=lines,
        generators=gens,
        loads=(LoadSpec(0, n - 1, 0.5),),
        slack_bus=0,
    )


class TestReset:
    def test_same_seed_identical_states(self, train14):
        cfg = EnvConfig()
        a = reset(train14, cfg, seed=7)
        b = reset(train14, cfg, seed=7)
        assert a.t == b.t == 0
        assert np.array_equal(a.line_status, b.line_status)
        assert np.array_equal(a.gen_setpoints, b.gen_setpoints)
        assert np.array_equal(a.load_demands, b.load_demands)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_seed_changes_only_rng(self, train14):
        cfg = EnvConfig()
        a = reset(train14, cfg, seed=1)
        b = reset(train14, cfg, seed=2)
        assert a.t == b.t
        assert np.array_equal(a.line_status, b.line_status)
        assert np.array_equal(a.gen_setpoints, b.gen_setpoints)
        assert a.rng.bit_generator.state != b.rng.bit_generator.state

    def test_demand_exceeding_capacity_raises(self):
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 0, 1, 1.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 0.5, 0.1),),
            loads=(LoadSpec(0, 1, 1.0),),
            slack_bus=0,
        )
        with pytest.raises(env.InfeasibleDispatchError):
            reset(spec, EnvConfig(), seed=0)

    def test_setpoints_within_bounds(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        p_min = np.array([g.p_min for g in train14.generators])
        p_max = np.array([g.p_max for g in train14.generators])
        assert np.all(state.gen_setpoints >= p_min - 1e-12)
        assert np.all(state.gen_setpoints <= p_max + 1e-12)


class TestEnumerateActions:
    def test_twenty_lines_no_redispatch(self):
        spec = ring_spec(20)
        actions = enumerate_actions(spec, EnvConfig(redispatch_enabled=False))
        assert len(actions) == 41

    def test_fiftynine_lines_no_redispatch(self):
        spec = ring_spec(59)
        actions = enumerate_actions(spec, EnvConfig(redispatch_enabled=False))
        assert len(actions) == 119

    def test_two_gens_redispatch_three_lines(self):
        spec = ring_spec(3, n_gens=2, p_max=1.0)
        actions = enumerate_actions(spec, EnvConfig(redispatch_enabled=True))
        assert len(actions) == 11

    def test_ordering_stable(self, toy5):
        cfg = EnvConfig()
        a = enumerate_actions(toy5, cfg)
        assert a[0] == NOOP
        assert a[1] == disconnect(0)
        assert a[1 + toy5.n_lines] == reconnect(0)
        assert a == enumerate_actions(toy5, cfg)


class TestFeasibleActions:
    def test_fresh_state_mask(self, toy5):
        cfg = EnvConfig()
        state = reset(toy5, cfg, seed=0)
        for a in enumerate_actions(toy5, cfg):
            ok = env.action_feasible(state, a, toy5)
            if a.kind is ActionKind.DISCONNECT or a.kind is ActionKind.NOOP:
                assert ok
            if a.kind is ActionKind.RECONNECT:
                assert not ok

    def test_cooldown_blocks_reconnect(self, toy5):
        cfg = EnvConfig(load_noise_sigma=0.0, reconnection_cooldown=3)
        state = reset(toy5, cfg, seed=0)
        out = step(state, disconnect(4), toy5, cfg)
        s = out.next_state
        assert not s.line_status[4] and s.cooldowns[4] == 3
        assert not env.action_feasible(s, reconnect(4), toy5)
        for _ in range(3):
            s = step(s, NOOP, toy5, cfg).next_state
        assert s.cooldowns[4] == 0
        assert env.action_feasible(s, reconnect(4), toy5)

    def test_redispatch_bounds(self):
        spec = ring_spec(3, n_gens=2, p_max=1.0)
        cfg = EnvConfig(redispatch_enabled=True, load_noise_sigma=0.0)
        state = reset(spec, cfg, seed=0)
        state.gen_setpoints[0] = 1.0  # pin at p_max
        delta = min(0.1 * 1.0, 0.5)
        assert not env.action_feasible(state, redispatch(0, +delta), spec)
        assert env.action_feasible(state, redispatch(0, -delta), spec)


class TestSampleDisturbance:
    def test_zero_sigma_exact_ones(self, toy5):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(toy5, cfg, seed=0)
        mult, forced = sample_disturbance(state, cfg)
        assert np.all(mult == 1.0)
        assert forced == ()

    def test_stress_step_forces_outage_of_top_line(self, train14):
        cfg = EnvConfig(stress_mode=True, stress_outage_step=10)
        state = reset(train14, cfg, seed=0)
        state.t = 10
        _, forced = sample_disturbance(state, cfg)
        rho = state.last_solution.rho
        assert forced == (int(np.argmax(rho)),)

    def test_no_outage_off_step(self, train14):
        cfg = EnvConfig(stress_mode=True, stress_outage_step=10)
        state = reset(train14, cfg, seed=0)
        _, forced = sample_disturbance(state, cfg)
        assert forced == ()

    def test_replay_from_saved_rng_state(self, train14):
        cfg = EnvConfig()
        state = reset(train14, cfg, seed=0)
        snapshot = state.rng.bit_generator.state
        mult1, _ = sample_disturbance(state, cfg)
        state.rng.bit_generator.state = snapshot
        mult2, _ = sample_disturbance(state, cfg)
        assert np.array_equal(mult1, mult2)

    def test_multipliers_truncated(self, train14):
        cfg = EnvConfig(load_noise_sigma=5.0)
        state = reset(train14, cfg, seed=0)
        mult, _ = sample_disturbance(state, cfg)
        assert np.all(mult >= env.MULTIPLIER_LO)
        assert np.all(mult <= env.MULTIPLIER_HI)

    @pytest.mark.parametrize("sigma", [0.0, 0.02, 0.15, 5.0])
    def test_clamp_equals_np_clip_bit_for_bit(self, large36, sigma):
        cfg = EnvConfig(load_noise_sigma=sigma)
        for seed in range(20):
            state = reset(large36, cfg, seed=seed)
            got, _ = sample_disturbance(state, cfg)
            draw = np.random.default_rng(seed).standard_normal(large36.n_loads)
            want = np.clip(1.0 + sigma * draw, env.MULTIPLIER_LO, env.MULTIPLIER_HI)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


class TestStep:
    def test_noop_zero_noise_fixed_point(self, train14):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(train14, cfg, seed=0)
        out = step(state, NOOP, train14, cfg)
        assert np.abs(out.rho - state.last_solution.rho).max() <= 1e-8
        assert np.array_equal(out.next_state.line_status, state.line_status)
        assert np.array_equal(out.next_state.gen_setpoints, state.gen_setpoints)
        assert np.array_equal(out.next_state.load_demands, state.load_demands)

    def test_islanding_terminates_infeasible(self, toy5):
        # line 5 is the sole feeder of the leaf load at bus 4
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(toy5, cfg, seed=0)
        out = step(state, disconnect(5), toy5, cfg)
        assert out.terminated
        assert out.failure is FailureMode.INFEASIBLE_TOPOLOGY

    def test_persistent_overload_collapses_after_grace(self):
        # demand above the line limit keeps rho > 1 from the first step
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 0, 1, 1.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 3.0, 0.5),),
            loads=(LoadSpec(0, 1, 1.3),),
            slack_bus=0,
        )
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(spec, cfg, seed=0)
        failure = None
        for k in range(1, OVERLOAD_GRACE + 1):
            out = step(state, NOOP, spec, cfg)
            state = out.next_state
            if out.terminated:
                failure = out.failure
                break
        assert k == OVERLOAD_GRACE
        assert failure is FailureMode.THERMAL_COLLAPSE

    def test_infeasible_action_degrades_to_noop(self, toy5):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(toy5, cfg, seed=0)
        out = step(state, reconnect(0), toy5, cfg)  # line 0 already in service
        assert not out.terminated
        assert np.array_equal(out.next_state.line_status, state.line_status)

    def test_conservation_after_steps(self, train14):
        cfg = EnvConfig()
        state = reset(train14, cfg, seed=11)
        for _ in range(10):
            out = step(state, NOOP, train14, cfg)
            state = out.next_state
            sol = state.last_solution
            assert sol.feasible
            assert abs(sol.injections.sum()) <= 1e-8
            total_gen_effective = sol.injections.sum() + state.load_demands.sum()
            assert total_gen_effective == pytest.approx(state.load_demands.sum(), abs=1e-8)

    def test_determinism_full_episode(self, train14):
        cfg = EnvConfig(stress_mode=True)
        seqs = []
        for _ in range(2):
            state = reset(train14, cfg, seed=123)
            rhos = []
            for _ in range(40):
                out = step(state, NOOP, train14, cfg)
                rhos.append(out.rho.copy())
                state = out.next_state
                if out.terminated:
                    break
            seqs.append(np.array(rhos))
        assert np.array_equal(seqs[0], seqs[1])

    def test_cooldown_monotonic_decrease(self, toy5):
        cfg = EnvConfig(load_noise_sigma=0.0, reconnection_cooldown=3)
        state = reset(toy5, cfg, seed=0)
        state = step(state, disconnect(4), toy5, cfg).next_state
        prev = state.cooldowns.copy()
        for _ in range(4):
            state = step(state, NOOP, toy5, cfg).next_state
            assert np.all(state.cooldowns <= prev)
            prev = state.cooldowns.copy()

    def test_horizon_time_limit(self, toy5):
        cfg = EnvConfig(horizon=5, load_noise_sigma=0.0)
        state = reset(toy5, cfg, seed=0)
        for i in range(5):
            out = step(state, NOOP, toy5, cfg)
            state = out.next_state
        assert out.terminated
        assert out.failure is FailureMode.TIME_LIMIT
        assert state.t == 5


def reference_step(state, action, spec, config):
    """The step as written before it took the peak once: a where-masked
    solve, an np.where streak, (streak >= OVERLOAD_GRACE).any() and the
    safety_margin reward, each array op spelled out."""
    c = grid.compiled(spec)
    if not env.action_feasible(state, action, spec):
        action = NOOP
    status = state.line_status.copy()
    cooldowns = np.maximum(state.cooldowns - 1, 0)
    setpoints = state.gen_setpoints.copy()
    env.apply_action(status, cooldowns, setpoints, action, config)
    mult = 1.0 + config.load_noise_sigma * state.rng.standard_normal(spec.n_loads)
    mult = np.minimum(np.maximum(mult, env.MULTIPLIER_LO), env.MULTIPLIER_HI)
    if config.stress_mode and state.t == config.stress_outage_step:
        loading = np.where(state.line_status, state.last_solution.rho, -1.0)
        if loading.max() >= 0 and status[np.argmax(loading)]:
            status[np.argmax(loading)] = False
            cooldowns[np.argmax(loading)] = config.reconnection_cooldown
    demands = c.base_demand * mult
    out_steps = np.where(status, 0, state.out_steps + 1)
    topo = grid._topology(spec, status.tobytes())
    injections = np.bincount(
        c.injection_bus_idx, np.concatenate((setpoints, -demands)), minlength=spec.n_buses
    )
    balanced = np.where(topo.in_island, injections, 0.0)
    balanced[c.slack_idx] = 0.0
    balanced[c.slack_idx] = -balanced.sum()
    angles = np.zeros(spec.n_buses)
    if topo.red.size:
        angles[topo.red] = grid._solve_reduced(topo, balanced[topo.red])
    flows = np.where(topo.active, c.susceptance * (angles[c.from_idx] - angles[c.to_idx]), 0.0)
    rho = np.abs(flows) / c.limits
    streak = np.where(rho > 1.0, state.overload_streak + 1, 0)
    if state.t + 1 >= config.horizon:
        failure = FailureMode.TIME_LIMIT
    elif not topo.feasible:
        failure = FailureMode.INFEASIBLE_TOPOLOGY
    elif (streak >= OVERLOAD_GRACE).any():
        failure = FailureMode.THERMAL_COLLAPSE
    else:
        failure = None
    reward = env.SURVIVAL_BONUS + min(max(safety_margin(rho), -1.0), 1.0)
    if failure in (FailureMode.THERMAL_COLLAPSE, FailureMode.INFEASIBLE_TOPOLOGY):
        reward -= config.collapse_penalty
    solved = (balanced, angles, flows)
    return reward, rho, streak, out_steps, cooldowns, status, demands, failure, solved


def hexes(a):
    return [float(v).hex() for v in np.asarray(a, dtype=float).ravel().tolist()]


class TestStepBitIdentity:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_step_equals_reference(self, seed):
        # random states: lines out with cooldowns and out-steps, streaks 0-2
        # on overloaded lines, heavy noise, and the stress step's forced cut
        rng = np.random.default_rng(seed)
        for name in ("toy5", "train14", "large36"):
            spec = builtin_grid(name)
            c = grid.compiled(spec)
            for _ in range(4):
                cfg = EnvConfig(
                    horizon=int(rng.integers(2, 40)),
                    load_noise_sigma=float(rng.choice([0.0, 0.02, 0.3, 5.0])),
                    stress_mode=bool(rng.random() < 0.5),
                    stress_outage_step=int(rng.integers(0, 4)),
                    redispatch_enabled=bool(rng.random() < 0.3),
                )
                status = rng.random(spec.n_lines) < 0.85
                setpoints = np.clip(
                    env.base_dispatch(spec) * rng.uniform(0.6, 1.8, spec.n_gens), c.p_min, c.p_max
                )
                solution = env.solve_state(spec, setpoints, c.base_demand, status)
                draw = int(rng.integers(1 << 30))
                state = dataclasses.replace(
                    reset(spec, cfg, seed=0),
                    t=int(rng.integers(0, 4)),
                    line_status=status,
                    cooldowns=np.where(status, 0, rng.integers(0, 4, spec.n_lines)),
                    out_steps=np.where(status, 0, rng.integers(1, 9, spec.n_lines)),
                    gen_setpoints=setpoints,
                    overload_streak=np.where(
                        solution.rho > 1.0, rng.integers(0, OVERLOAD_GRACE, spec.n_lines), 0
                    ),
                    last_solution=solution,
                    rng=np.random.default_rng(draw),
                )
                actions = enumerate_actions(spec, cfg)
                action = actions[int(rng.integers(len(actions)))]
                want = reference_step(
                    dataclasses.replace(state, rng=np.random.default_rng(draw)), action, spec, cfg
                )
                out = step(state, action, spec, cfg)
                nxt = out.next_state
                reward, rho, streak, out_steps, cooldowns, status, demands, failure, solved = want
                assert out.reward.hex() == float(reward).hex()
                assert hexes(out.rho) == hexes(rho)
                sol = nxt.last_solution
                assert [hexes(a) for a in (sol.injections, sol.angles, sol.flows)] == [
                    hexes(a) for a in solved
                ]
                assert hexes(nxt.load_demands) == hexes(demands)
                assert np.array_equal(nxt.overload_streak, streak)
                assert np.array_equal(nxt.out_steps, out_steps)
                assert np.array_equal(nxt.cooldowns, cooldowns)
                assert np.array_equal(nxt.line_status, status)
                assert out.failure is failure
                assert out.terminated == (failure is not None)


class TestReward:
    def test_margin_reward(self):
        cfg = EnvConfig()
        assert compute_reward(0.85, False, cfg) == pytest.approx(1.15)

    def test_boundary(self):
        cfg = EnvConfig()
        assert compute_reward(1.0, False, cfg) == pytest.approx(1.0)

    def test_collapse_penalty(self):
        cfg = EnvConfig(collapse_penalty=100.0)
        assert compute_reward(1.3, True, cfg) == pytest.approx(-99.3)

    def test_margin_clamped(self):
        cfg = EnvConfig()
        assert compute_reward(3.5, False, cfg) == pytest.approx(0.0)

    def test_empty_rho_raises(self):
        # no lines, no peak: a step's reward stays undefined
        spec = GridSpec(
            buses=(0,),
            lines=(),
            generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
            loads=(LoadSpec(0, 0, 1.0),),
            slack_bus=0,
        )
        cfg = EnvConfig()
        state = env.reset(spec, cfg, seed=0)
        with pytest.raises(ValueError):
            env.step(state, NOOP, spec, cfg)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=1, max_size=12),
        st.booleans(),
    )
    def test_equals_np_clip_formulation_bit_for_bit(self, rho, collapse):
        cfg = EnvConfig()
        rho = np.array(rho)
        want = env.SURVIVAL_BONUS + float(np.clip(safety_margin(rho), -1.0, 1.0))
        if collapse:
            want -= cfg.collapse_penalty
        got = compute_reward(float(rho.max()), collapse, cfg)
        assert type(got) is float
        assert got.hex() == want.hex()


class TestClassifyTermination:
    def test_time_limit_takes_precedence(self, toy5):
        # the last step both reaches the horizon and islands load
        cfg = EnvConfig(horizon=200, load_noise_sigma=0.0)
        state = reset(toy5, cfg, seed=0)
        state.t = 199
        out = step(state, disconnect(5), toy5, cfg)
        assert not out.next_state.last_solution.feasible
        assert out.terminated and out.failure is FailureMode.TIME_LIMIT

    def test_islanded_load_classified(self, toy5):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(toy5, cfg, seed=0)
        out = step(state, disconnect(5), toy5, cfg)
        assert out.terminated and out.failure is FailureMode.INFEASIBLE_TOPOLOGY

    def test_none_while_running(self, toy5):
        cfg = EnvConfig()
        state = reset(toy5, cfg, seed=0)
        state.t = 3
        out = step(state, NOOP, toy5, cfg)
        assert not out.terminated and out.failure is None
