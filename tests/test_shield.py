import itertools

import numpy as np
import pytest

from gridshield import environment as env
from gridshield import shield
from gridshield.environment import EnvConfig, NOOP, disconnect, reconnect, redispatch, reset, step
from gridshield.grid import GenSpec, GridSpec, LineSpec, LoadSpec
from gridshield.shield import (
    ShieldConfig,
    ShieldMode,
    admissible_set,
    cbf_mask,
    default_candidates,
    is_admissible,
    l0_distance,
    predict,
    project,
)


def parallel_spec(limits, demand=1.0):
    """Bus 0 (gen) feeding bus 1 over len(limits) parallel lines with
    distinct susceptances, so each disconnect shifts loading differently."""
    n = len(limits)
    lines = tuple(
        LineSpec(i, 0, 1, float(2.0 + i), float(limits[i])) for i in range(n)
    )
    return GridSpec(
        buses=(0, 1),
        lines=lines,
        generators=(GenSpec(0, 0, 0.0, 4.0, 0.5),),
        loads=(LoadSpec(0, 1, demand),),
        slack_bus=0,
    )


@pytest.fixture
def veto_cfg():
    return ShieldConfig(mode=ShieldMode.VETO)


@pytest.fixture
def proj_cfg():
    return ShieldConfig(mode=ShieldMode.PROJECTION)


class TestPredict:
    def test_matches_step_at_zero_noise(self, train14):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = reset(train14, cfg, seed=0)
        pred = predict(state, NOOP, train14)
        out = step(state, NOOP, train14, cfg)
        assert np.abs(pred.rho - out.rho).max() <= 1e-8

    def test_islanding_prediction_unbounded(self, toy5):
        state = reset(toy5, EnvConfig(), seed=0)
        pred = predict(state, disconnect(5), toy5)
        assert not pred.feasible
        assert pred.max_rho == float("inf")

    def test_redundant_line_disconnect_matches_solver_oracle(self, triangle):
        state = reset(triangle, EnvConfig(), seed=0)
        pred = predict(state, disconnect(0), triangle)
        status = np.array([False, True, True])
        inj = env.bus_injections(triangle, state.gen_setpoints, state.load_demands)
        from gridshield.grid import solve_dc_power_flow

        oracle = solve_dc_power_flow(triangle, inj, status)
        assert np.abs(pred.rho - oracle.rho).max() <= 1e-12
        assert pred.rho.max() > state.last_solution.rho.max()

    def test_does_not_mutate_state(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        before = state.line_status.copy()
        predict(state, disconnect(3), train14)
        assert np.array_equal(state.line_status, before)


class TestAdmissibility:
    def test_threshold_cases(self):
        # single line, limit 1.0: demand sets predicted max rho exactly
        for demand, admissible in ((0.97, True), (0.99, False)):
            spec = parallel_spec([1.0, 10.0], demand=demand)
            # second line huge limit: rho dominated by... use single-line spec
            spec = GridSpec(
                buses=(0, 1),
                lines=(LineSpec(0, 0, 1, 1.0, 1.0),),
                generators=(GenSpec(0, 0, 0.0, 4.0, 0.5),),
                loads=(LoadSpec(0, 1, demand),),
                slack_bus=0,
            )
            state = reset(spec, EnvConfig(load_noise_sigma=0.0), seed=0)
            cfg = ShieldConfig(mode=ShieldMode.VETO, rho_max=0.98)
            assert is_admissible(state, NOOP, spec, cfg) is admissible

    def test_islanding_inadmissible_regardless_of_rho(self, toy5):
        state = reset(toy5, EnvConfig(), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.VETO, rho_max=100.0)
        assert not is_admissible(state, disconnect(5), toy5, cfg)

    def test_admissible_set_preserves_order(self, train14, proj_cfg):
        state = reset(train14, EnvConfig(), seed=0)
        candidates = list(default_candidates(train14))
        result = admissible_set(state, candidates, train14, proj_cfg)
        positions = [candidates.index(a) for a in result]
        assert positions == sorted(positions)
        assert NOOP in result  # lightly loaded state

    def test_identity_when_all_admissible(self, train14, proj_cfg):
        state = reset(train14, EnvConfig(), seed=0)
        candidates = [NOOP]
        assert admissible_set(state, candidates, train14, proj_cfg) == [NOOP]


class TestL0Distance:
    def test_identity(self, toy5):
        a = disconnect(2)
        assert l0_distance(a, a, toy5) == 0

    def test_noop_to_disconnect(self, toy5):
        assert l0_distance(NOOP, disconnect(1), toy5) == 1

    def test_two_disconnects(self, toy5):
        # brute-force comparison of encoding vectors
        va = shield.encode_action(disconnect(0), toy5)
        vb = shield.encode_action(disconnect(3), toy5)
        assert int(np.count_nonzero(va != vb)) == 2
        assert l0_distance(disconnect(0), disconnect(3), toy5) == 2

    def test_disconnect_vs_reconnect_same_line(self, toy5):
        assert l0_distance(disconnect(1), reconnect(1), toy5) == 1

    def test_redispatch_encoding(self, train14):
        a = redispatch(0, 0.3)
        b = redispatch(1, 0.1)
        assert l0_distance(a, NOOP, train14) == 1
        assert l0_distance(a, b, train14) == 2
        assert l0_distance(a, redispatch(0, -0.3), train14) == 1

    def test_metric_properties_exhaustive(self, toy5):
        cfg = EnvConfig(redispatch_enabled=False)
        actions = env.enumerate_actions(toy5, cfg)
        for a, b in itertools.product(actions, repeat=2):
            d_ab = l0_distance(a, b, toy5)
            assert d_ab >= 0
            assert d_ab == l0_distance(b, a, toy5)
            equal_encoding = np.array_equal(
                shield.encode_action(a, toy5), shield.encode_action(b, toy5)
            )
            assert (d_ab == 0) == equal_encoding
        for a, b, c in itertools.product(actions[:7], repeat=3):
            assert l0_distance(a, c, toy5) <= l0_distance(a, b, toy5) + l0_distance(b, c, toy5)


class TestProject:
    def test_admissible_pass_through_identical(self, train14, proj_cfg):
        state = reset(train14, EnvConfig(), seed=0)
        proposed = disconnect(4)  # the cross tie; improves loading
        decision = project(state, proposed, train14, proj_cfg)
        assert decision.executed == proposed
        assert not decision.vetoed and not decision.corrected
        assert decision.l0_distance == 0

    def test_veto_mode_falls_to_noop(self, toy5, veto_cfg):
        state = reset(toy5, EnvConfig(), seed=0)
        decision = project(state, disconnect(5), toy5, veto_cfg)  # would island
        assert decision.vetoed
        assert decision.executed == NOOP
        assert not decision.corrected

    def test_projection_picks_lower_predicted_rho_on_l0_tie(self, train14):
        # post-outage train14: NoOp is inadmissible and several disconnects
        # relieve the overload, all at l0=1 from the NoOp proposal; the tie
        # must break toward the lowest predicted peak, verified by
        # exhaustively scoring the candidate set
        cfg = EnvConfig(load_noise_sigma=0.0, stress_mode=True, stress_outage_step=0)
        state = reset(train14, cfg, seed=0)
        state = step(state, NOOP, train14, cfg).next_state
        shield_cfg = ShieldConfig(mode=ShieldMode.PROJECTION, rho_max=0.98)
        assert not is_admissible(state, NOOP, train14, shield_cfg)
        preds = {
            ell: predict(state, disconnect(ell), train14).max_rho
            for ell in range(train14.n_lines)
            if state.line_status[ell]
        }
        admissible = {e: p for e, p in preds.items() if p <= 0.98}
        assert len(admissible) >= 2  # a real tie at l0 = 1
        best = min(admissible, key=lambda e: (admissible[e], e))
        decision = project(state, NOOP, train14, shield_cfg)
        assert decision.vetoed and decision.corrected
        assert decision.executed == disconnect(best)
        assert decision.l0_distance == 1

    def test_exhaustive_minimality_oracle(self, train14):
        # stress state: lose the top line, then check every veto decision
        cfg = EnvConfig(load_noise_sigma=0.0, stress_mode=True, stress_outage_step=0)
        state = reset(train14, cfg, seed=0)
        state = step(state, NOOP, train14, cfg).next_state  # outage applied
        shield_cfg = ShieldConfig(mode=ShieldMode.PROJECTION)
        proposed = NOOP
        decision = project(state, proposed, train14, shield_cfg)
        assert decision.vetoed and decision.corrected
        candidates = default_candidates(train14)
        scored = []
        for idx, cand in enumerate(candidates):
            p = predict(state, cand, train14)
            if p.feasible and p.max_rho <= shield_cfg.rho_max:
                scored.append((l0_distance(cand, proposed, train14), p.max_rho, idx, cand))
        best = min(scored)
        assert decision.executed == best[3]
        assert all(s[0] >= decision.l0_distance for s in scored)

    def test_empty_admissible_set_last_resort(self):
        # single overloaded line: no disconnect helps (islands), NoOp stays hot
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 0, 1, 1.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 4.0, 0.5),),
            loads=(LoadSpec(0, 1, 1.5),),
            slack_bus=0,
        )
        state = reset(spec, EnvConfig(load_noise_sigma=0.0), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.PROJECTION, rho_max=0.98)
        decision = project(state, disconnect(0), spec, cfg)
        assert decision.executed == NOOP
        assert decision.vetoed and not decision.corrected
        assert decision.last_resort

    def test_off_mode_rejected(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        with pytest.raises(ValueError):
            project(state, NOOP, train14, ShieldConfig(mode=ShieldMode.OFF))


class TestCbfMask:
    def test_nominal_state_admits_noop(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.CBF_MASK)
        mask = cbf_mask(state, [NOOP, disconnect(0)], train14, cfg)
        assert mask[0]

    def test_all_inadmissible_forces_noop_only(self):
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 0, 1, 1.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 4.0, 0.5),),
            loads=(LoadSpec(0, 1, 1.5),),
            slack_bus=0,
        )
        state = reset(spec, EnvConfig(load_noise_sigma=0.0), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.CBF_MASK, rho_max=0.98)
        mask = cbf_mask(state, [NOOP, disconnect(0)], spec, cfg)
        assert mask.tolist() == [True, False]

    def test_mask_matches_is_admissible(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.CBF_MASK)
        candidates = list(default_candidates(train14))
        mask = cbf_mask(state, candidates, train14, cfg)
        for a, m in zip(candidates, mask):
            assert m == is_admissible(state, a, train14, cfg)


class TestIdentityDecision:
    def test_off_mode_never_modifies(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        action = disconnect(8)
        decision = shield.identity_decision(state, action, train14)
        assert decision.executed == action
        assert not decision.vetoed and not decision.corrected
        assert decision.l0_distance == 0


class TestSoundness:
    def test_executed_actions_admissible_over_stress_episode(self, train14):
        """Every non-last-resort projection decision satisfies the threshold."""
        env_cfg = EnvConfig(stress_mode=True)
        shield_cfg = ShieldConfig(mode=ShieldMode.PROJECTION)
        state = reset(train14, env_cfg, seed=3)
        rng = np.random.default_rng(1)
        for _ in range(60):
            proposed = disconnect(int(rng.integers(train14.n_lines)))
            decision = project(state, proposed, train14, shield_cfg)
            if not decision.last_resort:
                assert decision.predicted_rho_max <= shield_cfg.rho_max + 1e-12
            out = step(state, decision.executed, train14, env_cfg)
            state = out.next_state
            if out.terminated:
                break
