"""Discrete-time closed-loop grid dynamics.

Each step applies the agent's action to the topology / setpoints, draws an
exogenous disturbance (load multipliers, forced outages in stress mode),
re-solves the power flow and classifies termination.  All transitions are
deterministic functions of (state, action, rng stream).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import grid
from .grid import GridSpec, PowerFlowSolution, bus_injections, compiled

# Consecutive steps a line may sit above rho = 1 before the grid collapses.
OVERLOAD_GRACE = 3

# Load multipliers are truncated to this band regardless of sigma.
MULTIPLIER_LO = 0.8
MULTIPLIER_HI = 1.2

# Redispatch step is this fraction of p_max, capped by the ramp limit.
REDISPATCH_FRACTION = 0.1

# Per-step reward for surviving; the margin term is added on top of it.
SURVIVAL_BONUS = 1.0


class InfeasibleDispatchError(RuntimeError):
    """Total base demand exceeds total generation capacity."""


class ActionKind(Enum):
    NOOP = "noop"
    DISCONNECT = "disconnect"
    RECONNECT = "reconnect"
    REDISPATCH = "redispatch"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    line: int | None = None
    gen: int | None = None
    delta: float = 0.0

    def label(self) -> str:
        if self.kind is ActionKind.NOOP:
            return "noop"
        if self.kind is ActionKind.DISCONNECT:
            return f"disconnect:{self.line}"
        if self.kind is ActionKind.RECONNECT:
            return f"reconnect:{self.line}"
        return f"redispatch:{self.gen}:{self.delta:+g}"


NOOP = Action(ActionKind.NOOP)


def disconnect(line: int) -> Action:
    return Action(ActionKind.DISCONNECT, line=line)


def reconnect(line: int) -> Action:
    return Action(ActionKind.RECONNECT, line=line)


def redispatch(gen: int, delta: float) -> Action:
    return Action(ActionKind.REDISPATCH, gen=gen, delta=delta)


@dataclass(frozen=True)
class EnvConfig:
    horizon: int = 200
    load_noise_sigma: float = 0.02
    stress_mode: bool = False
    stress_outage_step: int = 10
    reconnection_cooldown: int = 3
    redispatch_enabled: bool = False
    collapse_penalty: float = 100.0


class FailureMode(Enum):
    TIME_LIMIT = "time_limit"
    THERMAL_COLLAPSE = "thermal_collapse"
    INFEASIBLE_TOPOLOGY = "infeasible_topology"


@dataclass
class EnvState:
    """Per-episode mutable snapshot; owned by a single episode runner.

    Steps return fresh states with copied arrays; the rng object is shared
    along the episode (it is the episode's random stream).
    """

    t: int
    line_status: np.ndarray
    cooldowns: np.ndarray
    out_steps: np.ndarray
    gen_setpoints: np.ndarray
    load_demands: np.ndarray
    overload_streak: np.ndarray
    last_solution: PowerFlowSolution
    rng: np.random.Generator


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    reward: float
    terminated: bool
    failure: FailureMode | None
    rho: np.ndarray


def solve_state(
    spec: GridSpec,
    setpoints: np.ndarray,
    demands: np.ndarray,
    line_status: np.ndarray,
) -> PowerFlowSolution:
    """Power flow for a topology / dispatch / demand combination."""
    return grid.solve_dc_power_flow(spec, bus_injections(spec, setpoints, demands), line_status)


def base_dispatch(spec: GridSpec) -> np.ndarray:
    """Generators share total base demand proportionally to p_max."""
    c = compiled(spec)
    total_demand = float(c.base_demand.sum())
    total_cap = float(c.total_capacity)
    if total_demand > total_cap:
        raise InfeasibleDispatchError(
            f"base demand {total_demand:.4f} exceeds total p_max {total_cap:.4f}"
        )
    scale = total_demand / total_cap if total_cap > 0 else 0.0
    return np.clip(c.p_max * scale, c.p_min, c.p_max)


def reset(spec: GridSpec, config: EnvConfig, seed: int) -> EnvState:
    """Fresh episode: all lines in service, base dispatch, base demands."""
    c = compiled(spec)
    setpoints = base_dispatch(spec)
    demands = c.base_demand.copy()
    status = np.ones(spec.n_lines, dtype=bool)
    solution = solve_state(spec, setpoints, demands, status)
    return EnvState(
        t=0,
        line_status=status,
        cooldowns=np.zeros(spec.n_lines, dtype=np.intp),
        out_steps=np.zeros(spec.n_lines, dtype=np.intp),
        gen_setpoints=setpoints,
        load_demands=demands,
        overload_streak=np.zeros(spec.n_lines, dtype=np.intp),
        last_solution=solution,
        rng=np.random.default_rng(seed),
    )


@lru_cache(maxsize=64)
def enumerate_actions(spec: GridSpec, config: EnvConfig) -> tuple[Action, ...]:
    """Stable action ordering: NoOp, disconnects, reconnects, redispatch pairs."""
    actions: list[Action] = [NOOP]
    actions += [disconnect(l.id) for l in spec.lines]
    actions += [reconnect(l.id) for l in spec.lines]
    if config.redispatch_enabled:
        for g in spec.generators:
            delta = min(REDISPATCH_FRACTION * g.p_max, g.ramp_limit)
            actions.append(redispatch(g.id, +delta))
            actions.append(redispatch(g.id, -delta))
    return tuple(actions)


def action_feasible(state: EnvState, action: Action, spec: GridSpec) -> bool:
    if action.kind is ActionKind.NOOP:
        return True
    if action.kind is ActionKind.DISCONNECT:
        return bool(state.line_status[action.line])
    if action.kind is ActionKind.RECONNECT:
        return bool(not state.line_status[action.line] and state.cooldowns[action.line] == 0)
    g, c = action.gen, compiled(spec)
    stepped = state.gen_setpoints[g] + action.delta
    return bool(
        c.p_min[g] <= stepped <= c.p_max[g] and abs(action.delta) <= c.ramp[g]
    )


def sample_disturbance(state: EnvState, config: EnvConfig) -> tuple[np.ndarray, tuple[int, ...]]:
    """Draw load multipliers and, in stress mode at the configured step,
    force an outage of the currently highest-loaded in-service line.
    Returns (multipliers, forced outages)."""
    mult = config.load_noise_sigma * state.rng.standard_normal(state.load_demands.shape[0])
    mult += 1.0
    np.minimum(np.maximum(mult, MULTIPLIER_LO, out=mult), MULTIPLIER_HI, out=mult)
    forced: tuple[int, ...] = ()
    if config.stress_mode and state.t == config.stress_outage_step:
        rho = np.where(state.line_status, state.last_solution.rho, -1.0)
        if rho.max() >= 0:
            forced = (int(np.argmax(rho)),)
    return mult, forced


def apply_action(
    line_status: np.ndarray,
    cooldowns: np.ndarray,
    setpoints: np.ndarray,
    action: Action,
    config: EnvConfig,
) -> None:
    """Mutates the (already copied) topology / dispatch arrays in place."""
    if action.kind is ActionKind.DISCONNECT:
        line_status[action.line] = False
        cooldowns[action.line] = config.reconnection_cooldown
    elif action.kind is ActionKind.RECONNECT:
        line_status[action.line] = True
    elif action.kind is ActionKind.REDISPATCH:
        setpoints[action.gen] += action.delta


def compute_reward(peak: float, terminated_by_collapse: bool, config: EnvConfig) -> float:
    """r = SURVIVAL_BONUS + clamp(1 - peak, -1, 1), the peak being the highest
    loading ratio, minus the collapse penalty on collapse."""
    r = SURVIVAL_BONUS + min(max(1.0 - peak, -1.0), 1.0)
    if terminated_by_collapse:
        r -= config.collapse_penalty
    return r


def step(state: EnvState, action: Action, spec: GridSpec, config: EnvConfig) -> StepOutcome:
    """Advance one step.  Infeasible proposed actions degrade to NoOp."""
    if not action_feasible(state, action, spec):
        action = NOOP

    status = state.line_status.copy()
    cooldowns = np.maximum(np.subtract(state.cooldowns, 1), 0)
    setpoints = state.gen_setpoints.copy()
    apply_action(status, cooldowns, setpoints, action, config)

    demands, forced = sample_disturbance(state, config)
    demands *= compiled(spec).base_demand
    for ell in forced:
        if status[ell]:
            status[ell] = False
            cooldowns[ell] = config.reconnection_cooldown

    out_steps = np.add(state.out_steps, 1)
    out_steps[status] = 0
    solution = solve_state(spec, setpoints, demands, status)
    rho = solution.rho
    # one peak decides the reward and the overloads: at or below 1 (a NaN
    # peak is not) every streak restarts and nothing collapses
    peak = float(rho.max())
    overloaded = not peak <= 1.0
    if overloaded:
        streak = np.where(rho > 1.0, state.overload_streak + 1, 0)
    else:
        streak = np.zeros(rho.size, dtype=np.intp)

    next_state = EnvState(
        t=state.t + 1,
        line_status=status,
        cooldowns=cooldowns,
        out_steps=out_steps,
        gen_setpoints=setpoints,
        load_demands=demands,
        overload_streak=streak,
        last_solution=solution,
        rng=state.rng,
    )

    if next_state.t >= config.horizon:
        failure = FailureMode.TIME_LIMIT
    elif not solution.feasible:
        failure = FailureMode.INFEASIBLE_TOPOLOGY
    elif overloaded and streak.max() >= OVERLOAD_GRACE:
        failure = FailureMode.THERMAL_COLLAPSE
    else:
        failure = None
    collapse = failure in (FailureMode.THERMAL_COLLAPSE, FailureMode.INFEASIBLE_TOPOLOGY)
    return StepOutcome(
        next_state=next_state,
        reward=compute_reward(peak, collapse, config),
        terminated=failure is not None,
        failure=failure,
        rho=rho,
    )
