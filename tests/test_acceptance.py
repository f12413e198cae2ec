"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Trained policies are shared across criteria through session fixtures; the
hierarchy+shield policy is trained exactly as the learning-signal criterion
prescribes (200 updates, nominal mode) and reused for the shield-soundness,
stress-ordering and zero-shot checks.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from gridshield import agent as agent_mod
from gridshield import harness, shield, training
from gridshield.agent import (
    AgentVariant,
    action_distribution,
    discounted_return,
    init_policy_params,
)
from gridshield.environment import EnvConfig
from gridshield.grid import compiled, solve_dc_power_flow
from gridshield.grids import builtin_grid
from gridshield.harness import RunConfig, run_episode, run_suite, shield_config_for
from gridshield.shield import ShieldConfig, ShieldMode
from gridshield.training import TrainConfig, Trajectory, policy_objective_and_grads

from conftest import random_connected_spec

RHO_MAX = 0.98
ACCEPT_TRAIN = TrainConfig(total_updates=200, episodes_per_update=24)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


GOLDEN_ACCEPT = Path(__file__).parent / "data" / "golden_accept_train14.json"


def _accept_train(variant: AgentVariant, seed: int):
    """One acceptance training on nominal train14 and its wall-clock."""
    t0 = time.time()
    result = training.train(
        builtin_grid("train14"),
        EnvConfig(),
        ACCEPT_TRAIN,
        shield_config_for(variant, RHO_MAX),
        variant,
        seed=seed,
    )
    return result, time.time() - t0


@pytest.fixture(scope="session")
def hs_train():
    """The learning-signal run: 200 updates, nominal mode, hierarchy+shield."""
    return _accept_train(AgentVariant.HIERARCHY_SHIELD, 100_000)


@pytest.fixture(scope="session")
def flat_train():
    return _accept_train(AgentVariant.FLAT, 100_001)


def accept_golden(hs_result, flat_result) -> str:
    """Both acceptance trainings' per-update margin returns, as float.hex,
    and a sha256 of each final parameter set, as JSON text.  Run this module
    as a script to rewrite the committed golden."""
    payload = {}
    for name, result in (("hierarchy_shield", hs_result), ("flat", flat_result)):
        digest = hashlib.sha256()
        for layer in result.params.layers():
            digest.update(np.ascontiguousarray(layer).tobytes())
        payload[name] = {
            "margin_returns": [float(r).hex() for r in result.margin_returns],
            "params_sha256": digest.hexdigest(),
        }
    return json.dumps(payload, indent=2) + "\n"


def test_acceptance_trainings_match_golden(hs_train, flat_train):
    # the 200 x 24 trainings the criteria below share: a change that moves
    # any decision, reward or update along them moves a margin return or a
    # parameter digest, however deep into training
    assert accept_golden(hs_train[0], flat_train[0]) == GOLDEN_ACCEPT.read_text()


def _run_shielded_stress_episode(spec, params, seed, env_cfg, shield_cfg):
    """Every (state, shield decision) of one episode, for auditing."""
    return [
        (state, res.decision)
        for state, res, _ in agent_mod.episode(
            AgentVariant.HIERARCHY_SHIELD, params, spec, env_cfg, shield_cfg, seed
        )
    ]


@pytest.fixture(scope="session")
def stress_decisions(hs_train):
    """>= 20 hierarchy+shield stress episodes with full decision provenance.

    Mostly trained policy; a few fresh-init episodes are included so the
    veto/projection path is exercised for the minimality audit.
    """
    spec = builtin_grid("train14")
    env_cfg = EnvConfig(stress_mode=True)
    shield_cfg = shield_config_for(AgentVariant.HIERARCHY_SHIELD, RHO_MAX)
    episodes = []
    for i in range(20):
        episodes.append(
            _run_shielded_stress_episode(spec, hs_train[0].params, 500 + i, env_cfg, shield_cfg)
        )
    raw = init_policy_params(4242)
    for i in range(5):
        episodes.append(
            _run_shielded_stress_episode(spec, raw, 900 + i, env_cfg, shield_cfg)
        )
    return episodes


def test_criterion_1_power_flow_correctness():
    rng = np.random.default_rng(2026)
    t0 = time.time()
    worst_residual = 0.0
    worst_conservation = 0.0
    worst_super = 0.0
    for _ in range(100):
        spec = random_connected_spec(rng, int(rng.integers(5, 51)))
        c = compiled(spec)
        n = spec.n_buses
        status = np.ones(spec.n_lines, bool)
        inj = rng.normal(0, 1, n)
        sol = solve_dc_power_flow(spec, inj, status)
        b_full = np.zeros((n, n))
        for ell in range(spec.n_lines):
            u, v, bs = c.from_idx[ell], c.to_idx[ell], c.susceptance[ell]
            b_full[u, u] += bs
            b_full[v, v] += bs
            b_full[u, v] -= bs
            b_full[v, u] -= bs
        residual = b_full @ sol.angles - sol.injections
        non_slack = np.arange(n) != c.slack_idx
        worst_residual = max(worst_residual, float(np.abs(residual[non_slack]).max()))
        outflow = np.zeros(n)
        np.add.at(outflow, c.from_idx, sol.flows)
        np.add.at(outflow, c.to_idx, -sol.flows)
        worst_conservation = max(worst_conservation, float(np.abs(outflow - sol.injections).max()))
        p2 = rng.normal(0, 1, n)
        f1 = sol.flows
        f2 = solve_dc_power_flow(spec, p2, status).flows
        f12 = solve_dc_power_flow(spec, 0.6 * inj - 1.7 * p2, status).flows
        worst_super = max(worst_super, float(np.abs(f12 - (0.6 * f1 - 1.7 * f2)).max()))
    elapsed = time.time() - t0
    ok = worst_residual <= 1e-8 and worst_conservation <= 1e-8 and worst_super <= 1e-8 and elapsed < 10
    report(
        1,
        ok,
        f"residual {worst_residual:.2e}, conservation {worst_conservation:.2e}, "
        f"superposition {worst_super:.2e}, {elapsed:.1f}s over 100 grids",
    )
    assert ok


def test_criterion_2_shield_soundness(stress_decisions):
    t0 = time.time()
    total_steps = 0
    last_resort_steps = 0
    violations = 0
    for episode in stress_decisions:
        for _, decision in episode:
            total_steps += 1
            if decision.last_resort:
                last_resort_steps += 1
            elif decision.predicted_rho_max > RHO_MAX + 1e-12:
                violations += 1
    frac = last_resort_steps / total_steps
    elapsed = time.time() - t0
    ok = violations == 0 and frac <= 0.05
    report(
        2,
        ok,
        f"{len(stress_decisions)} episodes, {total_steps} steps, "
        f"{violations} threshold violations, last-resort {frac:.2%}",
    )
    assert ok


def test_criterion_3_projection_minimality(stress_decisions):
    spec = builtin_grid("train14")
    shield_cfg = shield_config_for(AgentVariant.HIERARCHY_SHIELD, RHO_MAX)
    candidates = shield.default_candidates(spec)
    vetoes_checked = 0
    mismatches = 0
    for episode in stress_decisions:
        for state, decision in episode:
            if not decision.vetoed or not decision.corrected:
                continue
            vetoes_checked += 1
            scored = []
            for idx, cand in enumerate(candidates):
                pred = shield.predict(state, cand, spec)
                if pred.feasible and pred.max_rho <= shield_cfg.rho_max:
                    scored.append(
                        (shield.l0_distance(cand, decision.proposed), pred.max_rho, idx, cand)
                    )
            best = min(scored)
            if best[3] != decision.executed or best[0] != decision.l0_distance:
                mismatches += 1
    ok = mismatches == 0
    report(3, ok, f"{vetoes_checked} corrected vetoes audited, {mismatches} mismatches")
    assert ok


def test_criterion_4_cbf_zero_vetoes(hs_train):
    spec = builtin_grid("train14")
    env_cfg = EnvConfig(stress_mode=True)
    shield_cfg = shield_config_for(AgentVariant.HIERARCHY_CBF, RHO_MAX)
    total_vetoes = 0
    for i in range(20):
        rec = run_episode(
            spec, env_cfg, AgentVariant.HIERARCHY_CBF, hs_train[0].params, shield_cfg,
            1300 + i, "train14", retain_trace=False,
        )
        total_vetoes += rec.vetoes
    ok = total_vetoes == 0
    report(4, ok, f"20 masked episodes, {total_vetoes} vetoes")
    assert ok


def test_criterion_5_stress_ordering(hs_train, flat_train):
    spec = builtin_grid("train14")
    env_cfg = EnvConfig(stress_mode=True)
    t0 = time.time()
    means = {}
    max_rhos = {}
    for variant, params in (
        (AgentVariant.FLAT, flat_train[0].params),
        (AgentVariant.SHIELD_ONLY, None),
        (AgentVariant.HIERARCHY_SHIELD, hs_train[0].params),
    ):
        recs = [
            run_episode(
                spec, env_cfg, variant, params, shield_config_for(variant, RHO_MAX),
                500 + i, "train14", retain_trace=False,
            )
            for i in range(20)
        ]
        means[variant] = float(np.mean([r.steps for r in recs]))
        max_rhos[variant] = float(np.mean([r.max_rho for r in recs]))
    eval_elapsed = time.time() - t0
    total_elapsed = eval_elapsed + hs_train[1] + flat_train[1]
    ordering = (
        means[AgentVariant.FLAT] + 10 <= means[AgentVariant.SHIELD_ONLY]
        and means[AgentVariant.SHIELD_ONLY] + 10 <= means[AgentVariant.HIERARCHY_SHIELD]
    )
    rho_gap = max_rhos[AgentVariant.HIERARCHY_SHIELD] < max_rhos[AgentVariant.FLAT]
    ok = ordering and rho_gap and total_elapsed < 600
    report(
        5,
        ok,
        f"steps flat {means[AgentVariant.FLAT]:.1f} < shield_only "
        f"{means[AgentVariant.SHIELD_ONLY]:.1f} < hierarchy_shield "
        f"{means[AgentVariant.HIERARCHY_SHIELD]:.1f}; max rho "
        f"{max_rhos[AgentVariant.HIERARCHY_SHIELD]:.2f} vs flat "
        f"{max_rhos[AgentVariant.FLAT]:.2f}; {total_elapsed:.0f}s incl. training",
    )
    assert ok


def test_criterion_6_zero_shot_transfer(hs_train):
    spec = builtin_grid("large36")
    env_cfg = EnvConfig()
    shield_cfg = shield_config_for(AgentVariant.HIERARCHY_SHIELD, RHO_MAX)
    params = hs_train[0].params
    before = [a.copy() for a in params.layers()]
    t0 = time.time()
    recs = [
        run_episode(spec, env_cfg, AgentVariant.HIERARCHY_SHIELD, params, shield_cfg,
                    700 + i, "large36", retain_trace=False)
        for i in range(20)
    ]
    elapsed = time.time() - t0
    unchanged = all(np.array_equal(a, b) for a, b in zip(before, params.layers()))
    timeouts = sum(1 for r in recs if r.failure == "time_limit")
    mean_max = float(np.mean([r.max_rho for r in recs]))
    ok = timeouts >= 16 and mean_max <= 1.0 and unchanged and elapsed < 300
    report(
        6,
        ok,
        f"{timeouts}/20 time-limit episodes, mean max rho {mean_max:.3f}, "
        f"params unchanged: {unchanged}, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_7_gradient_check():
    rng = np.random.default_rng(7)
    cfg = TrainConfig()
    h = 1e-5
    t0 = time.time()
    worst = 0.0
    checked = 0
    for batch_idx in range(10):
        params = init_policy_params(batch_idx, input_dim=6, hidden=(6, 6), n_actions=4)
        params.b1 += rng.uniform(0.05, 0.2, size=params.b1.shape)
        params.b2 += rng.uniform(0.05, 0.2, size=params.b2.shape)
        assert params.n_params() <= 200

        def batch():
            trajs = []
            for _ in range(3):
                t = int(rng.integers(2, 10))
                trajs.append(
                    Trajectory(
                        features=rng.normal(size=(t, 6)),
                        actions=rng.integers(0, 4, size=t).astype(np.intp),
                        rewards=rng.normal(size=t),
                        masks=np.ones((t, 4), dtype=bool),
                    )
                )
            return trajs

        trajs = batch()
        while _min_preactivation(params, trajs) < 5e-4:
            trajs = batch()
        _, grads, _ = policy_objective_and_grads(params, trajs, cfg)
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
                worst = max(worst, abs(grad[idx] - fd) / scale)
                checked += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 30
    report(7, ok, f"{checked} coordinates over 10 batches, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok


def _min_preactivation(params, trajs):
    xs = np.concatenate([tr.features for tr in trajs])
    z1 = xs @ params.w1 + params.b1
    h1 = np.maximum(z1, 0)
    z2 = h1 @ params.w2 + params.b2
    return min(float(np.abs(z1).min()), float(np.abs(z2).min()))


def test_criterion_8_learning_signal(hs_train):
    # Gated on the margin return (discounted return minus the survival
    # bonus).  Every nominal train14 episode runs the full horizon, so the
    # bonus is the same for every policy and only dilutes the ratio; the
    # margin part is what the policy's choices move.
    result, elapsed = hs_train
    lead = float(np.mean(result.margin_returns[:10]))
    trail = float(np.mean(result.margin_returns[-10:]))
    ratio = trail / lead
    ok = ratio >= 1.2 and elapsed < 600
    report(
        8,
        ok,
        f"leading-10 mean margin return {lead:.1f}, trailing-10 {trail:.1f}, "
        f"ratio {ratio:.3f} (required >= 1.20), {elapsed:.0f}s",
    )
    assert ok


def test_criterion_9_suite_determinism():
    run_cfg = RunConfig(
        grid="train14",
        episodes=2,
        base_seed=77,
        train=TrainConfig(total_updates=2, episodes_per_update=2),
        env=EnvConfig(horizon=25),
        variants=(AgentVariant.SHIELD_ONLY, AgentVariant.HIERARCHY_SHIELD),
    )
    blobs = []
    for _ in range(2):
        rep = run_suite("stress", run_cfg)
        blobs.append(
            "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in rep.records).encode()
        )
    ok = blobs[0] == blobs[1]
    report(9, ok, f"two identical stress runs, records byte-identical: {ok}")
    assert ok


def test_criterion_10_metric_identities(stress_decisions):
    spec = builtin_grid("train14")
    env_cfg = EnvConfig(stress_mode=True)
    shield_cfg = shield_config_for(AgentVariant.HIERARCHY_SHIELD, RHO_MAX)
    # margin identity over a recorded episode
    rec = run_episode(
        spec, env_cfg, AgentVariant.SHIELD_ONLY, None,
        shield_config_for(AgentVariant.SHIELD_ONLY, RHO_MAX), 31, "train14",
    )
    margin_ok = all(step.margin == 1.0 - step.max_rho for step in rec.trace)

    rng = np.random.default_rng(5)
    softmax_ok = True
    for _ in range(200):
        logits = rng.normal(scale=rng.uniform(0.5, 30.0), size=int(rng.integers(2, 9)))
        d = action_distribution(logits)
        if abs(float(d.sum()) - 1.0) > 1e-12 or (d < 0).any():
            softmax_ok = False
        shifted = action_distribution(logits + rng.normal() * 10)
        if np.abs(d - shifted).max() > 1e-12:
            softmax_ok = False
    ok = margin_ok and softmax_ok
    report(
        10,
        ok,
        f"margin identity on {len(rec.trace)} recorded steps: {margin_ok}; "
        f"softmax normalization & shift invariance over 200 draws: {softmax_ok}",
    )
    assert ok


if __name__ == "__main__":
    GOLDEN_ACCEPT.write_text(
        accept_golden(
            _accept_train(AgentVariant.HIERARCHY_SHIELD, 100_000)[0],
            _accept_train(AgentVariant.FLAT, 100_001)[0],
        )
    )
