"""The benchmark's correctness checks: the reference DC solve against hand
solutions, and each check against a planted fault.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT / "perfbench"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from gridshield import harness  # noqa: E402
from gridshield.agent import AgentVariant, init_policy_params  # noqa: E402
from gridshield.environment import EnvConfig, NOOP, disconnect, reconnect  # noqa: E402
from gridshield.grid import GenSpec, GridSpec, LineSpec, LoadSpec  # noqa: E402
from gridshield.grids import builtin_grid  # noqa: E402

from gsbench import checks  # noqa: E402
from gsbench.probes import Recorder  # noqa: E402
from gsbench.refdc import RefGrid  # noqa: E402

RHO_MAX = 0.98


def _spec(lines, load_bus):
    return GridSpec(
        buses=tuple(range(1 + max(max(u, v) for u, v in lines))),
        lines=tuple(LineSpec(i, u, v, 1.0, 1.0) for i, (u, v) in enumerate(lines)),
        generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
        loads=(LoadSpec(0, load_bus, 1.0),),
        slack_bus=0,
    )


class TestReferenceSolve:
    def test_two_bus(self):
        ref = RefGrid(_spec([(0, 1)], 1)).solve(np.array([1.0]), np.array([1.0]), np.ones(1, bool))
        assert ref.feasible
        np.testing.assert_allclose(ref.flows, [1.0], atol=1e-12)
        np.testing.assert_allclose(ref.rho, [1.0], atol=1e-12)

    def test_two_bus_line_out_strands_the_load(self):
        ref = RefGrid(_spec([(0, 1)], 1)).solve(np.array([1.0]), np.array([1.0]), np.zeros(1, bool))
        assert not ref.feasible
        np.testing.assert_array_equal(ref.flows, [0.0])

    def test_triangle_splits_two_thirds_one_third(self):
        # Direct path 0-2 has half the reactance of 0-1-2.
        g = RefGrid(_spec([(0, 1), (0, 2), (1, 2)], 2))
        ref = g.solve(np.array([1.0]), np.array([1.0]), np.ones(3, bool))
        np.testing.assert_allclose(ref.flows, [1 / 3, 2 / 3, 1 / 3], atol=1e-12)

    def test_triangle_with_direct_line_out(self):
        g = RefGrid(_spec([(0, 1), (0, 2), (1, 2)], 2))
        ref = g.solve(np.array([1.0]), np.array([1.0]), np.array([True, False, True]))
        assert ref.feasible
        np.testing.assert_allclose(ref.flows, [1.0, 0.0, 1.0], atol=1e-12)

    def test_slack_absorbs_imbalance(self):
        # Generation 1.5 against demand 1.0: the slack takes the surplus back.
        g = RefGrid(_spec([(0, 1), (0, 2), (1, 2)], 2))
        ref = g.solve(np.array([1.5]), np.array([1.0]), np.ones(3, bool))
        np.testing.assert_allclose(ref.flows, [1 / 3, 2 / 3, 1 / 3], atol=1e-12)

    def test_l0_closed_form(self):
        assert checks.l0(NOOP, NOOP) == 0
        assert checks.l0(NOOP, disconnect(3)) == 1
        assert checks.l0(disconnect(3), disconnect(3)) == 0
        assert checks.l0(disconnect(3), disconnect(4)) == 2
        assert checks.l0(disconnect(3), reconnect(3)) == 1
        assert checks.l0(reconnect(2), disconnect(3)) == 2


def _record(spec, env_cfg, variant, params, seed):
    rec = Recorder().install()
    try:
        record = harness.run_episode(
            spec, env_cfg, variant, params, harness.shield_config_for(variant, RHO_MAX), seed
        )
    finally:
        rec.uninstall()
    (episode,) = rec.take_episodes()
    return record, episode


@pytest.fixture(scope="module")
def projected():
    """A hierarchy+shield stress episode on train14 with corrected vetoes."""
    spec = builtin_grid("train14")
    params = init_policy_params(4242)
    for seed in range(900, 940):
        record, ep = _record(spec, EnvConfig(stress_mode=True), AgentVariant.HIERARCHY_SHIELD, params, seed)
        if any(s.result.decision.corrected for s in ep.steps):
            return spec, record, ep
    pytest.fail("no corrected projection in 40 stress episodes")


SHORT_STRESS = EnvConfig(stress_mode=True, horizon=40)


@pytest.fixture(scope="module")
def masked():
    spec = builtin_grid("train14")
    _, ep = _record(spec, SHORT_STRESS, AgentVariant.HIERARCHY_CBF, init_policy_params(7), 3)
    return spec, ep


@pytest.fixture(scope="module")
def unshielded():
    spec = builtin_grid("train14")
    _, ep = _record(spec, SHORT_STRESS, AgentVariant.FLAT, init_policy_params(7), 3)
    return spec, ep


def _checker(spec, mode, env_cfg=EnvConfig(stress_mode=True)):
    return checks.Checker(spec, env_cfg, RHO_MAX, mode)


def _replace_step(ep, i, **changes):
    steps = list(ep.steps)
    steps[i] = dataclasses.replace(steps[i], **changes)
    return checks.Episode(ep.reset_state, steps)


def _with_solution(state, **changes):
    return dataclasses.replace(
        state, last_solution=dataclasses.replace(state.last_solution, **changes)
    )


def _with_decision(step, **changes):
    decision = dataclasses.replace(step.result.decision, **changes)
    return dataclasses.replace(step.result, decision=decision)


def _executing(checker, step, action, **changes):
    """The step's decision changed to execute `action`, with the predicted
    peak and L0 distance that action really has, so only `changes` and the
    choice itself can be wrong."""
    return _with_decision(
        step,
        executed=action,
        predicted_rho_max=checker.zero_disturbance(step.state, action)[0],
        l0_distance=checks.l0(action, step.result.decision.proposed),
        **changes,
    )


def _admissible_other(checker, step, *avoid):
    return next(
        c for c in checker.candidates
        if c not in avoid and checker._admissible(step.state, c)[1]
    )


class TestChecksPassOnTheProgram:
    def test_projected_episode_passes(self, projected):
        spec, record, ep = projected
        assert _checker(spec, "projection").episode(ep, "ep") == []
        assert harness_record_errors(spec, record, ep) == []

    def test_masked_episode_passes(self, masked):
        spec, ep = masked
        assert _checker(spec, "cbf_mask", SHORT_STRESS).episode(ep, "ep") == []

    def test_unshielded_episode_passes(self, unshielded):
        spec, ep = unshielded
        assert _checker(spec, "off", SHORT_STRESS).episode(ep, "ep") == []

    def test_recorder_checks_each_episode_as_it_ends(self):
        spec = builtin_grid("train14")
        rec = Recorder().install()
        rec.finish = lambda ep, i: (i, len(ep.steps))
        try:
            record = harness.run_episode(
                spec, SHORT_STRESS, AgentVariant.SHIELD_ONLY, None,
                harness.shield_config_for(AgentVariant.SHIELD_ONLY, RHO_MAX), 5,
            )
            kept = list(rec.episodes)  # finished before anyone asked
        finally:
            rec.uninstall()
        assert kept == [(0, record.steps)]
        assert rec.take_episodes() == kept and rec.take_episodes() == []

    def test_tracer_leaves_out_the_checks(self):
        import time

        from gsbench.probes import Tracer

        spec = builtin_grid("train14")
        rec = Recorder().install()
        rec.finish = lambda ep, i: time.sleep(0.2)  # a check, run inside env.step
        tracer = Tracer(rec.clock).install()
        try:
            harness.run_episode(
                spec, SHORT_STRESS, AgentVariant.SHIELD_ONLY, None,
                harness.shield_config_for(AgentVariant.SHIELD_ONLY, RHO_MAX), 5,
            )
        finally:
            tracer.uninstall()
            rec.uninstall()
        assert rec.excluded_ns >= 200_000_000
        for name in ("environment.step", "harness.run_episode"):
            assert tracer.total_ns[tracer.names.index(name)] < 200_000_000


def harness_record_errors(spec, record, ep):
    from gsbench.workloads import EvalWorkload

    summary = _checker(spec, "projection").summarise(ep, "ep")
    return EvalWorkload._record("ep", record, [summary])


class TestPlantedFaults:
    def test_perturbed_rho(self, projected):
        spec, _, ep = projected
        step = ep.steps[4]
        nxt = step.outcome.next_state
        rho = nxt.last_solution.rho.copy()
        rho[0] += 1e-6
        bad = dataclasses.replace(step.outcome, next_state=_with_solution(nxt, rho=rho))
        errs = _checker(spec, "projection").episode(_replace_step(ep, 4, outcome=bad), "ep")
        assert any("rho differs" in e for e in errs)

    def test_perturbed_flows(self, projected):
        spec, _, ep = projected
        flows = ep.reset_state.last_solution.flows.copy()
        flows[2] -= 1e-7
        bad = checks.Episode(_with_solution(ep.reset_state, flows=flows), ep.steps)
        errs = _checker(spec, "projection").episode(bad, "ep")
        assert any("flows differ" in e for e in errs)

    def test_flipped_feasibility(self, projected):
        spec, _, ep = projected
        bad = checks.Episode(_with_solution(ep.reset_state, feasible=False), ep.steps)
        assert any("feasible" in e for e in _checker(spec, "projection").episode(bad, "ep"))

    def test_swapped_projection_choice(self, projected):
        spec, _, ep = projected
        checker = _checker(spec, "projection")
        i = next(k for k, s in enumerate(ep.steps) if s.result.decision.corrected)
        step = ep.steps[i]
        chosen = step.result.decision.executed
        # Another admissible candidate, so only the ordering is wrong.
        other = next(
            c for c in checker.candidates
            if c != chosen and checker._admissible(step.state, c)[1]
        )
        peak = checker.zero_disturbance(step.state, other)[0]
        res = _with_decision(
            step,
            executed=other,
            predicted_rho_max=peak,
            l0_distance=checks.l0(other, step.result.decision.proposed),
        )
        errs = checker.decision(step.state, res, other, "ep")
        assert any("projection chose" in e for e in errs)

    def test_inadmissible_executed_action(self, projected):
        spec, _, ep = projected
        checker = _checker(spec, "projection")
        step = next(s for s in ep.steps if s.result.decision.vetoed and not s.result.decision.last_resort)
        proposed = step.result.decision.proposed  # inadmissible: it was vetoed
        res = _with_decision(
            step, executed=proposed, vetoed=False, corrected=False, l0_distance=0,
            predicted_rho_max=checker.zero_disturbance(step.state, proposed)[0],
        )
        errs = checker.decision(step.state, res, proposed, "ep")
        assert any("last_resort=False" in e for e in errs)
        assert any("passed the shield" in e for e in errs)

    def test_perturbed_predicted_peak(self, projected):
        spec, _, ep = projected
        step = ep.steps[0]
        res = _with_decision(step, predicted_rho_max=step.result.decision.predicted_rho_max + 1e-6)
        errs = _checker(spec, "projection").decision(step.state, res, step.action, "ep")
        assert any("predicted peak" in e for e in errs)

    def test_one_cbf_veto(self, masked):
        spec, ep = masked
        res = _with_decision(ep.steps[5], vetoed=True)
        errs = _checker(spec, "cbf_mask", SHORT_STRESS).episode(_replace_step(ep, 5, result=res), "ep")
        assert any("CBF mask recorded a veto" in e for e in errs)

    def test_perturbed_reward(self, projected):
        spec, _, ep = projected
        bad = dataclasses.replace(ep.steps[3].outcome, reward=ep.steps[3].outcome.reward + 1e-6)
        errs = _checker(spec, "projection").episode(_replace_step(ep, 3, outcome=bad), "ep")
        assert any("reward" in e for e in errs)

    def test_wrong_termination_cause(self, projected):
        spec, _, ep = projected
        last = ep.steps[-1].outcome
        cause = "thermal_collapse" if last.failure.value != "thermal_collapse" else "time_limit"
        from gridshield.environment import FailureMode

        bad = dataclasses.replace(last, failure=FailureMode(cause))
        errs = _checker(spec, "projection").episode(_replace_step(ep, len(ep.steps) - 1, outcome=bad), "ep")
        assert any("reference cause" in e for e in errs)

    def test_premature_termination(self, projected):
        spec, _, ep = projected
        from gridshield.environment import FailureMode

        bad = dataclasses.replace(
            ep.steps[2].outcome, terminated=True, failure=FailureMode.THERMAL_COLLAPSE
        )
        errs = _checker(spec, "projection").episode(_replace_step(ep, 2, outcome=bad), "ep")
        assert any("reference cause None" in e for e in errs)
        assert any("continued after termination" in e for e in errs)

    def test_episode_ended_without_termination(self, projected):
        spec, _, ep = projected
        cut = checks.Episode(ep.reset_state, ep.steps[:-1])
        errs = _checker(spec, "projection").episode(cut, "ep")
        assert any("ended without termination" in e for e in errs)

    def test_step_without_decision(self, projected):
        spec, _, ep = projected
        errs = _checker(spec, "projection").episode(_replace_step(ep, 3, result=None), "ep")
        assert any("no agent.act decision" in e for e in errs)

    def test_stepped_action_differs_from_decision(self, projected):
        spec, _, ep = projected
        checker = _checker(spec, "projection")
        step = ep.steps[0]
        other = next(c for c in checker.candidates if c != step.action)
        errs = checker.decision(step.state, step.result, other, "ep")
        assert any("stepped" in e for e in errs)

    def test_wrong_l0_distance(self, projected):
        spec, _, ep = projected
        step = ep.steps[0]
        res = _with_decision(step, l0_distance=step.result.decision.l0_distance + 1)
        errs = _checker(spec, "projection").decision(step.state, res, step.action, "ep")
        assert any("l0_distance" in e for e in errs)

    def test_admissible_proposal_vetoed(self, projected):
        spec, _, ep = projected
        checker = _checker(spec, "projection")
        step = next(s for s in ep.steps if not s.result.decision.vetoed)
        other = _admissible_other(checker, step, step.result.decision.proposed)
        res = _executing(checker, step, other, vetoed=True, corrected=True, last_resort=False)
        errs = checker.decision(step.state, res, other, "ep")
        assert any("admissible proposal" in e and "was vetoed" in e for e in errs)

    def test_uncorrected_veto_executes_an_action(self, projected):
        spec, _, ep = projected
        checker = _checker(spec, "projection")
        step = next(s for s in ep.steps if s.result.decision.corrected)
        other = _admissible_other(checker, step, NOOP)
        res = _executing(checker, step, other, corrected=False)
        errs = checker.decision(step.state, res, other, "ep")
        assert any("uncorrected veto executed" in e for e in errs)

    def test_uncorrected_projection_with_admissible_candidate(self, projected):
        spec, _, ep = projected
        checker = _checker(spec, "projection")
        step = next(s for s in ep.steps if s.result.decision.corrected)
        noop_ok = checker._admissible(step.state, NOOP)[1]
        res = _executing(checker, step, NOOP, corrected=False, last_resort=not noop_ok)
        errs = checker.decision(step.state, res, NOOP, "ep")
        assert any("uncorrected projection with an admissible candidate" in e for e in errs)

    def test_corrected_projection_without_admissible_candidate(self, projected):
        spec, _, ep = projected
        strict = checks.Checker(spec, EnvConfig(stress_mode=True), 0.01, "projection")
        step = next(s for s in ep.steps if s.result.decision.corrected)
        errs = strict.projection(step.state, step.result.decision, "ep")
        assert any("no candidate is admissible" in e for e in errs)

    def test_unshielded_decision_changes_the_proposal(self, unshielded):
        spec, ep = unshielded
        checker = _checker(spec, "off", SHORT_STRESS)
        step = ep.steps[0]
        other = next(c for c in checker.candidates if c != step.result.decision.proposed)
        res = _executing(checker, step, other)
        errs = checker.decision(step.state, res, other, "ep")
        assert any("unshielded decision changed the proposal" in e for e in errs)

    def test_record_disagrees_with_steps(self, projected):
        spec, record, ep = projected
        bad = dataclasses.replace(record, reward=record.reward + 1.0, steps=record.steps + 1)
        errs = harness_record_errors(spec, bad, ep)
        assert any("reward" in e for e in errs) and any("steps" in e for e in errs)

    def test_record_vetoes_disagree(self, projected):
        spec, record, ep = projected
        errs = harness_record_errors(spec, dataclasses.replace(record, vetoes=record.vetoes + 1), ep)
        assert any("vetoes" in e for e in errs)

    def test_record_failure_disagrees(self, projected):
        spec, record, ep = projected
        other = "time_limit" if record.failure != "time_limit" else "thermal_collapse"
        errs = harness_record_errors(spec, dataclasses.replace(record, failure=other), ep)
        assert any("record failure" in e for e in errs)

    @pytest.mark.parametrize("field", ["mean", "margin"])
    def test_update_return_mismatch(self, projected, field):
        _, _, ep = projected
        rewards = np.array([s.outcome.reward for s in ep.steps])
        mean = checks.discounted(rewards, 0.99)
        margin = checks.discounted(rewards - 1.0, 0.99)
        assert checks.training_update([rewards], mean, margin, 0.99, "u") == []
        if field == "mean":
            mean += 1e-3
        else:
            margin += 1e-3
        errs = checks.training_update([rewards], mean, margin, 0.99, "u")
        assert any(f"{field} return" in e for e in errs)

    def test_non_finite_parameters(self):
        params = init_policy_params(1)
        assert checks.finite_params(params, "p") == []
        params.w2[3, 4] = np.nan
        assert checks.finite_params(params, "p") != []


def _run_module():
    import importlib.util

    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_decision_percentile_per_controller():
    # Two controllers, 100 and 400 us: the mixture's median lies between the
    # modes and moves with the mix, the per-controller figure does not.
    lat = np.array([100.0] * 60 + [400.0] * 40)
    ctl = np.array([0] * 60 + [1] * 40, dtype=np.uint8)
    assert _run_module().decision_percentile(lat, ctl, 50) == pytest.approx(200.0)
    assert _run_module().decision_percentile(lat[20:], ctl[20:], 50) == pytest.approx(200.0)


def test_replayed_round_with_another_digest():
    from gsbench.workloads import Op, Verdict

    run = _run_module()

    class Drifting:
        """A workload whose round 0 checks to a new digest each time."""

        def __init__(self):
            self.checked = 0

        def ops(self, r):
            return [Op("op", lambda: None, lambda ep, i: ep)]

        def check(self, ops, outputs, episodes):
            self.checked += 1
            return Verdict(attempted=1, digest=str(self.checked))

    assert run.replay_errors(Drifting(), Recorder(), "1") == []
    errs = run.replay_errors(Drifting(), Recorder(), "0")
    assert any("replayed to digest" in e for e in errs)
