import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridshield import environment as env
from gridshield import shield
from gridshield.agent import AbstractAction, ground_action
from gridshield.environment import EnvConfig, NOOP, disconnect, reconnect, redispatch, reset, step
from gridshield.grid import GenSpec, GridSpec, LineSpec, LoadSpec
from gridshield.grids import builtin_grid
from gridshield.shield import (
    ShieldConfig,
    ShieldMode,
    cbf_mask,
    default_candidates,
    l0_distance,
    predict,
    project,
)

from conftest import random_connected_spec


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


def admissible_by_predict(state, action, spec, rho_max):
    """The reference verdict: the exact zero-disturbance solve is feasible
    and peaks at or below rho_max."""
    pred = predict(state, action, spec)
    return pred.feasible and pred.max_rho <= rho_max


def shield_admissible(state, candidates, spec, rho_max):
    """The shield's own verdicts, kernel screening included."""
    return shield._admissible(state, candidates, spec, rho_max).tolist()


@pytest.fixture
def veto_cfg():
    return ShieldConfig(mode=ShieldMode.VETO)


@pytest.fixture
def proj_cfg():
    return ShieldConfig(mode=ShieldMode.PROJECTION)


class TestShieldConfig:
    @pytest.mark.parametrize("rho_max", [float("nan"), float("inf"), -0.01])
    def test_rho_max_must_be_finite_and_nonnegative(self, rho_max):
        with pytest.raises(ValueError, match="rho_max"):
            ShieldConfig(rho_max=rho_max)

    def test_zero_rho_max_accepted(self):
        assert ShieldConfig(rho_max=0.0).rho_max == 0.0


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
            assert admissible_by_predict(state, NOOP, spec, cfg.rho_max) is admissible
            assert shield_admissible(state, [NOOP], spec, cfg.rho_max) == [admissible]

    def test_islanding_inadmissible_regardless_of_rho(self, toy5):
        state = reset(toy5, EnvConfig(), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.VETO, rho_max=100.0)
        assert not admissible_by_predict(state, disconnect(5), toy5, cfg.rho_max)
        assert shield_admissible(state, [disconnect(5)], toy5, cfg.rho_max) == [False]

    def test_admissible_set_preserves_order(self, train14, proj_cfg):
        state = reset(train14, EnvConfig(), seed=0)
        candidates = list(default_candidates(train14))
        mask = shield_admissible(state, candidates, train14, proj_cfg.rho_max)
        want = [admissible_by_predict(state, a, train14, proj_cfg.rho_max) for a in candidates]
        assert mask == want
        assert mask[0]  # NoOp, on a lightly loaded state

    def test_identity_when_all_admissible(self, train14, proj_cfg):
        state = reset(train14, EnvConfig(), seed=0)
        assert admissible_by_predict(state, NOOP, train14, proj_cfg.rho_max)
        assert shield_admissible(state, [NOOP], train14, proj_cfg.rho_max) == [True]


class TestL0Distance:
    def test_identity(self):
        a = disconnect(2)
        assert l0_distance(a, a) == 0

    def test_noop_to_disconnect(self):
        assert l0_distance(NOOP, disconnect(1)) == 1

    def test_two_disconnects(self):
        # the two actions touch disjoint line slots, one each
        assert l0_distance(disconnect(0), NOOP) == 1
        assert l0_distance(NOOP, disconnect(3)) == 1
        assert l0_distance(disconnect(0), disconnect(3)) == 2

    def test_disconnect_vs_reconnect_same_line(self):
        assert l0_distance(disconnect(1), reconnect(1)) == 1

    def test_redispatch_encoding(self):
        a = redispatch(0, 0.3)
        b = redispatch(1, 0.1)
        assert l0_distance(a, NOOP) == 1
        assert l0_distance(a, b) == 2
        assert l0_distance(a, redispatch(0, -0.3)) == 1
        assert l0_distance(a, disconnect(0)) == 2  # line 0 and generator 0 are distinct slots

    def test_metric_properties_exhaustive(self, toy5):
        cfg = EnvConfig(redispatch_enabled=False)
        actions = env.enumerate_actions(toy5, cfg)
        for a, b in itertools.product(actions, repeat=2):
            d_ab = l0_distance(a, b)
            assert d_ab == l0_distance(b, a)
            # NoOp touches no line slot, every other action exactly one
            if a == b:
                assert d_ab == 0
            elif NOOP in (a, b) or a.line == b.line:
                assert d_ab == 1
            else:
                assert d_ab == 2
        for a, b, c in itertools.product(actions[:7], repeat=3):
            assert l0_distance(a, c) <= l0_distance(a, b) + l0_distance(b, c)


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
        assert not admissible_by_predict(state, NOOP, train14, shield_cfg.rho_max)
        assert shield_admissible(state, [NOOP], train14, shield_cfg.rho_max) == [False]
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
                scored.append((l0_distance(cand, proposed), p.max_rho, idx, cand))
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


class _Searched(Exception):
    pass


def _no_search(*args, **kwargs):
    raise _Searched


class TestNoOpShortcut:
    """Projection answers an inadmissible proposal with NoOp, without the
    search over every candidate, exactly when NoOp is admissible."""

    @pytest.mark.parametrize("name", ["toy5", "train14", "large36"])
    def test_search_runs_only_when_noop_is_inadmissible(self, name, monkeypatch):
        spec = builtin_grid(name)
        state = reset(spec, EnvConfig(), seed=0)
        noop_peak = predict(state, NOOP, spec).max_rho
        worse = [k for k in range(spec.n_lines)
                 if predict(state, disconnect(k), spec).max_rho > noop_peak]
        assert worse
        monkeypatch.setattr(shield, "_admissible", _no_search)
        at_noop = ShieldConfig(mode=ShieldMode.PROJECTION, rho_max=noop_peak)
        for k in worse:
            decision = project(state, disconnect(k), spec, at_noop)
            assert decision == shield.ShieldDecision(
                NOOP, disconnect(k), True, True, noop_peak, 1, False
            )
        below_noop = ShieldConfig(
            mode=ShieldMode.PROJECTION, rho_max=float(np.nextafter(noop_peak, 0.0))
        )
        with pytest.raises(_Searched):
            project(state, disconnect(worse[0]), spec, below_noop)

    def test_redispatch_and_reconnection_skip_the_search(self, train14, monkeypatch):
        cfg = EnvConfig(load_noise_sigma=0.0)
        state = step(reset(train14, cfg, seed=0), disconnect(4), train14, cfg).next_state
        state = dataclasses.replace(state, cooldowns=np.zeros_like(state.cooldowns))
        noop_peak = predict(state, NOOP, train14).max_rho
        proposals = [reconnect(4), redispatch(train14.n_gens - 1, 0.1)]
        peaks = [predict(state, p, train14).max_rho for p in proposals]
        assert noop_peak < min(peaks)
        # NoOp admissible, both proposals not
        rho_max = float(np.nextafter(min(peaks), 0.0))
        cfg = ShieldConfig(mode=ShieldMode.PROJECTION, rho_max=rho_max)
        wants = [_ref_project(state, p, train14, cfg) for p in proposals]
        monkeypatch.setattr(shield, "_admissible", _no_search)
        for proposed, want in zip(proposals, wants):
            got = project(state, proposed, train14, cfg)
            assert got.executed == NOOP and got.corrected
            assert _bits(got) == _bits(want)


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

    def test_mask_matches_predict(self, train14):
        state = reset(train14, EnvConfig(), seed=0)
        cfg = ShieldConfig(mode=ShieldMode.CBF_MASK)
        candidates = list(default_candidates(train14))
        mask = cbf_mask(state, candidates, train14, cfg)
        for a, m in zip(candidates, mask):
            assert m == admissible_by_predict(state, a, train14, cfg.rho_max)


class TestIdentityDecision:
    """In Off mode ``project`` passes every proposal through unchanged."""

    def test_off_mode_never_modifies(self, train14, toy5):
        off = ShieldConfig(mode=ShieldMode.OFF)
        state = reset(train14, EnvConfig(), seed=0)
        action = disconnect(8)
        decision = project(state, action, train14, off)
        assert decision.executed == action
        assert not decision.vetoed and not decision.corrected
        assert decision.l0_distance == 0
        # even a proposal that islands the grid runs unchanged, unflagged
        state = reset(toy5, EnvConfig(), seed=0)
        action = disconnect(5)
        assert not admissible_by_predict(state, action, toy5, 0.98)
        decision = project(state, action, toy5, off)
        assert decision.executed == decision.proposed == action
        assert not decision.vetoed and not decision.corrected and not decision.last_resort
        assert decision.l0_distance == 0
        assert decision.predicted_rho_max == predict(state, action, toy5).max_rho


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


# Reference decisions computed the way the shield computed them before the
# kernel: predict on every candidate, in candidate order.

def _ref_project(state, proposed, spec, cfg):
    prop = predict(state, proposed, spec)
    admissible = prop.feasible and prop.max_rho <= cfg.rho_max
    if cfg.mode is ShieldMode.OFF:
        return shield.ShieldDecision(proposed, proposed, False, False, prop.max_rho, 0, False)
    if cfg.mode is ShieldMode.CBF_MASK:
        return shield.ShieldDecision(
            proposed, proposed, False, False, prop.max_rho, 0, not admissible
        )
    if admissible:
        return shield.ShieldDecision(proposed, proposed, False, False, prop.max_rho, 0, False)
    noop = predict(state, NOOP, spec)
    veto = shield.ShieldDecision(
        NOOP, proposed, True, False, noop.max_rho, l0_distance(NOOP, proposed),
        not (noop.feasible and noop.max_rho <= cfg.rho_max),
    )
    if cfg.mode is ShieldMode.VETO:
        return veto
    scored = []
    for idx, cand in enumerate(default_candidates(spec)):
        p = predict(state, cand, spec)
        if p.feasible and p.max_rho <= cfg.rho_max:
            scored.append((l0_distance(cand, proposed), p.max_rho, idx, cand))
    if not scored:
        return veto
    l0, peak, _, chosen = min(scored, key=lambda s: s[:3])
    return shield.ShieldDecision(chosen, proposed, True, True, peak, l0, False)


def _ref_cbf_mask(state, candidates, spec, cfg):
    preds = [predict(state, a, spec) for a in candidates]
    mask = np.array([p.feasible and p.max_rho <= cfg.rho_max for p in preds])
    if not mask.any():
        mask = np.array([a == NOOP for a in candidates])
    return mask


def _ref_ground(abstract, state, spec):
    rho = state.last_solution.rho
    ranked = sorted(np.flatnonzero(state.line_status).tolist(), key=lambda l: (-rho[l], l))
    if int(abstract) > len(ranked):
        return NOOP
    target = spec.lines[ranked[int(abstract) - 1]]
    buses = {target.from_bus, target.to_bus}
    best = None
    for ell, line in enumerate(spec.lines):
        if state.line_status[ell] and buses & {line.from_bus, line.to_bus}:
            key = (predict(state, disconnect(ell), spec).max_rho, ell)
            if best is None or key < best:
                best = key
    if best is None or not np.isfinite(best[0]):
        return NOOP
    return disconnect(best[1])


def _bits(decision):
    """Decision fields with floats as their exact bit pattern."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(decision))


def _check_decisions(state, spec, rho_max, proposals):
    relieve = [AbstractAction(r) for r in (1, 2, 3)]
    grounded = [ground_action(a, state, spec) for a in relieve]
    for a, got in zip(relieve, grounded):
        assert got == _ref_ground(a, state, spec)
    # the proposals, a redispatch of the last generator and, when a line is
    # out, its reconnection while it is still cooling down (so degraded)
    g = spec.n_gens - 1
    checks = [(state, p) for p in [*proposals, redispatch(g, 0.5 * spec.generators[g].ramp_limit)]]
    out = np.flatnonzero(~state.line_status)
    if out.size:
        cooldowns = state.cooldowns.copy()
        cooldowns[out[0]] = 2
        checks.append((dataclasses.replace(state, cooldowns=cooldowns), reconnect(int(out[0]))))
    for mode in ShieldMode:
        cfg = ShieldConfig(mode=mode, rho_max=rho_max)
        for at, proposed in checks:
            assert _bits(project(at, proposed, spec, cfg)) == _bits(
                _ref_project(at, proposed, spec, cfg)
            )
    candidates = [NOOP, *grounded, *proposals]
    np.testing.assert_array_equal(
        cbf_mask(state, candidates, spec, cfg), _ref_cbf_mask(state, candidates, spec, cfg)
    )


def _thresholds(state, spec):
    """0.98 plus rho_max set exactly to candidates' exact peaks."""
    peaks = sorted(
        {p for p in (predict(state, a, spec).max_rho for a in default_candidates(spec))
         if np.isfinite(p)}
    )
    return [0.98] + peaks[:2] + peaks[len(peaks) // 2 : len(peaks) // 2 + 1] + peaks[-1:]


class TestDecisionEquivalence:
    """project (in all four modes), cbf_mask and ground_action decide exactly
    as a shield that predicts every candidate, recorded peaks bit for bit."""

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_specs_with_outages(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(3, 16)))
        base = reset(spec, EnvConfig(), seed=0)
        for p in (1.0, 0.8):
            status = rng.random(spec.n_lines) < p
            state = dataclasses.replace(base, line_status=status)
            k = int(rng.integers(spec.n_lines))
            proposals = [NOOP, disconnect(k), reconnect(k)]
            for rho_max in _thresholds(state, spec):
                _check_decisions(state, spec, rho_max, proposals)

    def test_tied_peaks(self):
        # twin parallel lines: cutting either twin predicts the same peak
        twin = (LineSpec(0, 0, 1, 5.0, 1.0), LineSpec(1, 0, 1, 5.0, 1.0))
        spec = GridSpec(
            buses=(0, 1, 2),
            lines=twin + (LineSpec(2, 1, 2, 4.0, 1.2), LineSpec(3, 0, 2, 3.0, 1.0)),
            generators=(GenSpec(0, 0, 0.0, 4.0, 0.5),),
            loads=(LoadSpec(0, 1, 0.4), LoadSpec(1, 2, 0.9)),
            slack_bus=0,
        )
        state = reset(spec, EnvConfig(load_noise_sigma=0.0), seed=0)
        p0 = predict(state, disconnect(0), spec).max_rho
        assert p0 == predict(state, disconnect(1), spec).max_rho
        for rho_max in [0.98, p0] + _thresholds(state, spec):
            _check_decisions(state, spec, rho_max, [NOOP, disconnect(3), reconnect(2)])

    @pytest.mark.parametrize("name", ["train14", "large36"])
    def test_builtin_stress_states(self, name):
        spec = builtin_grid(name)
        cfg = EnvConfig(stress_mode=True, stress_outage_step=1)
        state = reset(spec, cfg, seed=4)
        rng = np.random.default_rng(4)
        for _ in range(4):
            k = int(rng.integers(spec.n_lines))
            for rho_max in _thresholds(state, spec)[:3]:
                _check_decisions(state, spec, rho_max, [NOOP, disconnect(k)])
            out = step(state, disconnect(k), spec, cfg)
            if out.terminated:
                break
            state = out.next_state


def _hood_positions(spec, state, target):
    """1 + every in-service line sharing a bus with the target, in id order."""
    ends = {spec.lines[target].from_bus, spec.lines[target].to_bus}
    return 1 + np.array(
        [ell for ell, line in enumerate(spec.lines)
         if state.line_status[ell] and ends & {line.from_bus, line.to_bus}],
        dtype=np.intp,
    )


def _check_relieve_table(state, spec) -> int:
    """Every in-service target's row against lowest_peak; returns the
    number of rows the table answered itself."""
    table = shield.relieve_table(state, spec)
    answered = 0
    for k in np.flatnonzero(state.line_status):
        if table[k] >= 0:
            want = shield.lowest_peak(state, spec, _hood_positions(spec, state, k))
            assert table[k] == (0 if want is None else want)
            answered += 1
    return answered


class TestRelieveTable:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_lowest_peak_on_random_specs(self, seed):
        # random outages strand buses, split off islands and leave bridges
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(2, 31)))
        base = reset(spec, EnvConfig(), seed=0)
        for p in (1.0, 0.85, 0.6):
            state = dataclasses.replace(base, line_status=rng.random(spec.n_lines) < p)
            _check_relieve_table(state, spec)

    @pytest.mark.parametrize("name", ["toy5", "train14", "large36"])
    def test_matches_lowest_peak_on_builtin_grids(self, name):
        spec = builtin_grid(name)
        state = reset(spec, EnvConfig(), seed=0)
        rng = np.random.default_rng(7)
        for _ in range(4):
            # on these grids ties and NaN neighbors are rare, so the
            # comparison is not vacuous
            assert _check_relieve_table(state, spec) >= 0.8 * np.count_nonzero(state.line_status)
            status = state.line_status.copy()
            status[rng.choice(np.flatnonzero(status))] = False
            state = dataclasses.replace(state, line_status=status)

    def test_twin_lines_defer(self):
        # cutting either of two identical parallel lines predicts the same
        # peak, so the table leaves their rows to lowest_peak
        twin = (LineSpec(0, 0, 1, 5.0, 1.0), LineSpec(1, 0, 1, 5.0, 1.0))
        spec = GridSpec(
            buses=(0, 1),
            lines=twin,
            generators=(GenSpec(0, 0, 0.0, 4.0, 0.5),),
            loads=(LoadSpec(0, 1, 0.4),),
            slack_bus=0,
        )
        state = reset(spec, EnvConfig(), seed=0)
        np.testing.assert_array_equal(shield.relieve_table(state, spec), [-1, -1])
        grounded = ground_action(AbstractAction.RELIEVE_RANK1, state, spec)
        assert grounded == disconnect(0)
