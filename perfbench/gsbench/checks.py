"""Correctness checks on recorded episodes, run outside the timed region.

Every check recomputes what it tests with `refdc.RefGrid` and its own
reading of the environment's rules (action application, reward,
termination, shield admissibility, projection order), never with the
program's solver, caches or shield.  Each function returns a list of
violation messages; an empty list means the output passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridshield.environment import Action, ActionKind, NOOP, disconnect

from .refdc import RefGrid

FLOW_TOL = 1e-9
OVERLOAD_GRACE = 3
SURVIVAL_BONUS = 1.0
# Topologies the reference solver keeps between episodes (at most 16 KB each on
# large36); the peak memo keeps sixteen times as many small entries.
MEMO_MAX = 256


@dataclass
class Step:
    """One recorded transition: the state acted on, the agent's result (None
    when no `agent.act` call on that state preceded the step), the action
    given to `environment.step` and its outcome."""

    state: object
    result: object
    action: Action
    outcome: object


@dataclass
class Episode:
    reset_state: object
    steps: list[Step]


@dataclass
class Summary:
    """What the round checks need of a checked episode, once its
    transitions are dropped: the check's violations and the figures an
    episode record or a training update is compared with."""

    errors: list[str]
    steps: int
    reward: float  # summed in step order, as the program sums it
    vetoes: int
    failure: str | None  # the last step's failure
    rewards: np.ndarray


def _close(a, b, tol=FLOW_TOL) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _peaks_match(a: float, b: float) -> bool:
    if np.isinf(a) or np.isinf(b):
        return a == b
    return abs(a - b) <= FLOW_TOL


def _slots(action: Action) -> dict:
    if action.kind is ActionKind.NOOP:
        return {}
    if action.kind is ActionKind.DISCONNECT:
        return {("line", action.line): -1.0}
    if action.kind is ActionKind.RECONNECT:
        return {("line", action.line): 1.0}
    return {("gen", action.gen): action.delta}


def l0(a: Action, b: Action) -> int:
    """Control components in which two actions differ, in closed form."""
    sa, sb = _slots(a), _slots(b)
    return sum(1 for k in set(sa) | set(sb) if sa.get(k, 0.0) != sb.get(k, 0.0))


class Checker:
    def __init__(self, spec, env_cfg, rho_max: float, mode: str):
        self.ref = RefGrid(spec)
        self.spec = spec
        self.env_cfg = env_cfg
        self.rho_max = rho_max
        self.mode = mode  # "off", "veto", "projection" or "cbf_mask"
        self.candidates = (NOOP,) + tuple(disconnect(l.id) for l in spec.lines)
        self._peaks: dict[tuple[bytes, bytes], tuple[float, bool]] = {}

    def trim(self) -> None:
        """Bound the checker's own memory; called after each episode."""
        if len(self.ref.memo) > MEMO_MAX:
            self.ref.memo.clear()
        if len(self._peaks) > 16 * MEMO_MAX:
            self._peaks.clear()

    # -- physics -------------------------------------------------------------

    def solution(self, state, where: str):
        """The state's solved flows against the reference solve; returns the
        violations and the reference solution."""
        ref = self.ref.solve(state.gen_setpoints, state.load_demands, state.line_status)
        sol = state.last_solution
        out = []
        if not _close(sol.flows, ref.flows):
            err = float(np.max(np.abs(sol.flows - ref.flows)))
            out.append(f"{where}: flows differ from the reference solve by {err:.3e}")
        if not _close(sol.rho, ref.rho):
            out.append(f"{where}: rho differs from |flow| / limit of the reference solve")
        if sol.feasible != ref.feasible:
            out.append(f"{where}: feasible={sol.feasible}, reference says {ref.feasible}")
        return out, ref

    def zero_disturbance(self, state, action: Action) -> tuple[float, bool]:
        """Peak loading after `action` with base demands and no outage; an
        action the state cannot take degrades to NoOp, as in the environment."""
        status = state.line_status.copy()
        kind = action.kind
        if kind is ActionKind.DISCONNECT and status[action.line]:
            status[action.line] = False
        elif (
            kind is ActionKind.RECONNECT
            and not status[action.line]
            and state.cooldowns[action.line] == 0
        ):
            status[action.line] = True
        elif kind is ActionKind.REDISPATCH:
            raise ValueError("redispatch actions are outside the benchmark's workloads")
        key = (status.tobytes(), state.gen_setpoints.tobytes())
        hit = self._peaks.get(key)
        if hit is None:
            ref = self.ref.solve(state.gen_setpoints, self.ref.base_demand, status)
            hit = (float(ref.rho.max()), True) if ref.feasible else (float("inf"), False)
            self._peaks[key] = hit
        return hit

    def _admissible(self, state, action: Action) -> tuple[float, bool]:
        peak, feasible = self.zero_disturbance(state, action)
        return peak, feasible and peak <= self.rho_max

    # -- one transition ----------------------------------------------------

    def transition(self, step: Step, streak: np.ndarray, where: str) -> tuple[list[str], np.ndarray]:
        """Flows, reward and termination of one `environment.step`."""
        nxt = step.outcome.next_state
        out, ref = self.solution(nxt, where)
        if not _close(step.outcome.rho, ref.rho):
            out.append(f"{where}: outcome rho differs from the reference solve")
        streak = np.where(ref.rho > 1.0, streak + 1, 0)
        if nxt.t >= self.env_cfg.horizon:
            cause = "time_limit"
        elif not ref.feasible:
            cause = "infeasible_topology"
        elif (streak >= OVERLOAD_GRACE).any():
            cause = "thermal_collapse"
        else:
            cause = None
        failure = step.outcome.failure.value if step.outcome.failure is not None else None
        if step.outcome.terminated != (cause is not None) or failure != cause:
            out.append(
                f"{where}: terminated={step.outcome.terminated} failure={failure}, "
                f"reference cause {cause}"
            )
        margin = 1.0 - float(ref.rho.max())
        reward = SURVIVAL_BONUS + min(max(margin, -1.0), 1.0)
        if cause in ("infeasible_topology", "thermal_collapse"):
            reward -= self.env_cfg.collapse_penalty
        if abs(step.outcome.reward - reward) > FLOW_TOL:
            out.append(f"{where}: reward {step.outcome.reward!r}, reference {reward!r}")
        return out, streak

    # -- one decision ----------------------------------------------------------

    def decision(self, state, res, executed_in_step: Action, where: str) -> list[str]:
        d = res.decision
        out = []
        if executed_in_step != d.executed:
            out.append(f"{where}: stepped {executed_in_step.label()}, decided {d.executed.label()}")
        peak, admissible = self._admissible(state, d.executed)
        if not _peaks_match(d.predicted_rho_max, peak):
            out.append(
                f"{where}: predicted peak {d.predicted_rho_max!r}, reference {peak!r}"
            )
        if d.l0_distance != l0(d.executed, d.proposed):
            out.append(f"{where}: l0_distance {d.l0_distance}, reference {l0(d.executed, d.proposed)}")
        if self.mode == "off":
            if d.vetoed or d.executed != d.proposed:
                out.append(f"{where}: an unshielded decision changed the proposal")
            return out
        if d.last_resort == admissible:
            out.append(
                f"{where}: last_resort={d.last_resort} but the executed action is "
                f"{'admissible' if admissible else 'inadmissible'} (peak {peak:.6f})"
            )
        if self.mode == "cbf_mask":
            if d.vetoed or d.corrected:
                out.append(f"{where}: the CBF mask recorded a veto")
            return out
        proposal_ok = self._admissible(state, d.proposed)[1]
        if not d.vetoed:
            if not proposal_ok or d.executed != d.proposed:
                out.append(f"{where}: an inadmissible proposal passed the shield")
            return out
        if proposal_ok:
            out.append(f"{where}: an admissible proposal {d.proposed.label()} was vetoed")
        if self.mode == "veto" or not d.corrected:
            if d.executed != NOOP:
                out.append(f"{where}: an uncorrected veto executed {d.executed.label()}")
            if self.mode == "projection" and (
                not d.last_resort
                or any(self._admissible(state, c)[1] for c in self.candidates)
            ):
                out.append(f"{where}: uncorrected projection with an admissible candidate")
            return out
        return out + self.projection(state, d, where)

    def projection(self, state, d, where: str) -> list[str]:
        """The corrected action is the admissible candidate minimal in
        (L0 to the proposal, peak, candidate index)."""
        scored = []
        for idx, cand in enumerate(self.candidates):
            peak, ok = self._admissible(state, cand)
            if ok:
                scored.append((l0(cand, d.proposed), peak, idx, cand))
        if not scored:
            return [f"{where}: corrected projection but no candidate is admissible"]
        scored.sort(key=lambda s: s[:3])
        best_l0, best_peak = scored[0][0], scored[0][1]
        # Peaks within the solver tolerance count as tied; the index decides.
        tied = [s for s in scored if s[0] == best_l0 and s[1] - best_peak <= FLOW_TOL]
        expected = min(tied, key=lambda s: s[2])[3]
        if d.executed != expected:
            return [
                f"{where}: projection chose {d.executed.label()}, the minimal admissible "
                f"candidate is {expected.label()}"
            ]
        return []

    # -- one episode -------------------------------------------------------------

    def episode(self, ep: Episode, name: str) -> list[str]:
        out = self.solution(ep.reset_state, f"{name} reset")[0]
        if not ep.steps:
            return out + [f"{name}: no steps recorded"]
        streak = np.zeros(self.spec.n_lines, dtype=np.intp)
        for i, step in enumerate(ep.steps):
            where = f"{name} step {i + 1}"
            if step.result is None:
                out.append(f"{where}: no agent.act decision preceded this step")
            else:
                out += self.decision(step.state, step.result, step.action, where)
            errs, streak = self.transition(step, streak, where)
            out += errs
            if step.outcome.terminated and i != len(ep.steps) - 1:
                out.append(f"{where}: episode continued after termination")
        if not ep.steps[-1].outcome.terminated:
            out.append(f"{name}: episode ended without termination")
        return out

    def summarise(self, ep: Episode, name: str) -> Summary:
        """Check one episode, then keep only its summary."""
        errors = self.episode(ep, name)
        self.trim()
        rewards = np.array([s.outcome.reward for s in ep.steps])
        reward = 0.0
        for r in rewards.tolist():
            reward += r
        last = ep.steps[-1].outcome.failure if ep.steps else None
        return Summary(
            errors=errors,
            steps=len(ep.steps),
            reward=reward,
            vetoes=sum(int(s.result.decision.vetoed) for s in ep.steps if s.result is not None),
            failure=last.value if last is not None else None,
            rewards=rewards,
        )


def discounted(rewards: np.ndarray, gamma: float) -> float:
    acc = 0.0
    for r in reversed(np.asarray(rewards, dtype=float).tolist()):
        acc = r + gamma * acc
    return acc


def training_update(
    rewards: list[np.ndarray], mean_return: float, margin_return: float, gamma: float, where: str
) -> list[str]:
    """An update's recorded batch returns against their recomputation from
    the rewards its episodes' steps returned, one array per episode."""
    own_mean = float(np.mean([discounted(r, gamma) for r in rewards]))
    own_margin = float(np.mean([discounted(r - SURVIVAL_BONUS, gamma) for r in rewards]))
    out = []
    if abs(own_mean - mean_return) > 1e-9 * max(1.0, abs(own_mean)):
        out.append(f"{where}: mean return {mean_return!r}, recomputed {own_mean!r}")
    if abs(own_margin - margin_return) > 1e-9 * max(1.0, abs(own_margin)):
        out.append(f"{where}: margin return {margin_return!r}, recomputed {own_margin!r}")
    return out


def finite_params(params, where: str) -> list[str]:
    if all(np.isfinite(a).all() for a in params.layers()):
        return []
    return [f"{where}: trained parameters are not finite"]
