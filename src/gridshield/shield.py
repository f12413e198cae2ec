"""Runtime safety layer.

Every candidate action is scored by a one-step forward simulation with the
disturbance zeroed (multipliers at 1, no forced outages).  An action is
admissible when the predicted topology stays feasible and the predicted peak
loading stays at or below rho_max.  Inadmissible proposals are either vetoed
to NoOp or projected onto the nearest admissible corrective action, nearest
in the number of control changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import environment as env
from .environment import Action, ActionKind, EnvConfig, EnvState, NOOP
from .grid import TOPOLOGY_MEMO, GridSpec, compiled


class ShieldMode(Enum):
    OFF = "off"
    VETO = "veto"
    PROJECTION = "projection"
    CBF_MASK = "cbf_mask"


@dataclass(frozen=True)
class ShieldConfig:
    mode: ShieldMode = ShieldMode.PROJECTION
    rho_max: float = 0.98


def default_candidates(spec: GridSpec) -> tuple[Action, ...]:
    """Projection's candidates: NoOp plus every single-line disconnection."""
    return (NOOP,) + tuple(env.disconnect(l.id) for l in spec.lines)


@dataclass(frozen=True)
class Prediction:
    """One-step lookahead result. Infeasible topologies predict unbounded
    loading and are never admissible."""

    rho: np.ndarray
    feasible: bool

    @property
    def max_rho(self) -> float:
        if not self.feasible:
            return float("inf")
        return float(self.rho.max()) if self.rho.size else 0.0


@dataclass(frozen=True)
class ShieldDecision:
    executed: Action
    proposed: Action
    vetoed: bool
    corrected: bool
    predicted_rho_max: float
    l0_distance: int
    # True when the executed action is itself inadmissible because nothing
    # admissible existed; counted separately from ordinary vetoes.
    last_resort: bool = False


# Zero-disturbance predictions depend only on (spec, topology, dispatch);
# identical queries recur every step while the topology sits still.
@lru_cache(maxsize=TOPOLOGY_MEMO)
def _predict_solution(spec: GridSpec, status: bytes, setpoints: bytes) -> Prediction:
    solution = env.solve_state(
        spec,
        np.frombuffer(setpoints, dtype=float),
        compiled(spec).base_demand,
        np.frombuffer(status, dtype=bool),
    )
    solution.rho.setflags(write=False)
    return Prediction(rho=solution.rho, feasible=solution.feasible)


def predict(state: EnvState, action: Action, spec: GridSpec) -> Prediction:
    """Apply the action to a copy of the state and solve with zero
    disturbance (base demands, no forced outages).  Shares the environment's
    action-application rule, including degradation of infeasible actions."""
    if not env.action_feasible(state, action, spec):
        action = NOOP
    status = state.line_status.copy()
    cooldowns = state.cooldowns.copy()
    setpoints = state.gen_setpoints.copy()
    # Cooldown bookkeeping does not affect flows; reuse a neutral config.
    env.apply_action(status, cooldowns, setpoints, action, EnvConfig())
    return _predict_solution(spec, status.tobytes(), setpoints.tobytes())


def is_admissible(
    state: EnvState, action: Action, spec: GridSpec, cfg: ShieldConfig
) -> bool:
    pred = predict(state, action, spec)
    return pred.feasible and pred.max_rho <= cfg.rho_max


def admissible_set(
    state: EnvState, candidates: list[Action] | tuple[Action, ...], spec: GridSpec, cfg: ShieldConfig
) -> list[Action]:
    """Order-preserving sublist of candidates passing is_admissible."""
    return [a for a in candidates if is_admissible(state, a, spec, cfg)]


def encode_action(action: Action, spec: GridSpec) -> np.ndarray:
    """Control-change vector: one slot per line status delta, one per
    generator setpoint delta."""
    vec = np.zeros(spec.n_lines + spec.n_gens)
    if action.kind is ActionKind.DISCONNECT:
        vec[action.line] = -1.0
    elif action.kind is ActionKind.RECONNECT:
        vec[action.line] = 1.0
    elif action.kind is ActionKind.REDISPATCH:
        vec[spec.n_lines + action.gen] = action.delta
    return vec


def l0_distance(a: Action, b: Action, spec: GridSpec) -> int:
    """Number of control components in which two actions differ."""
    return int(np.count_nonzero(encode_action(a, spec) != encode_action(b, spec)))


def project(
    state: EnvState, proposed: Action, spec: GridSpec, cfg: ShieldConfig
) -> ShieldDecision:
    """Two-case execution: admissible proposals pass through untouched;
    otherwise veto to NoOp (Veto mode) or substitute the admissible candidate
    with minimal L0 distance, ties broken by lower predicted peak loading
    then lower candidate index (Projection mode).  An empty admissible set
    falls back to NoOp and is flagged as a last resort."""
    if cfg.mode not in (ShieldMode.VETO, ShieldMode.PROJECTION):
        raise ValueError(f"project requires Veto or Projection mode, got {cfg.mode}")

    prop_pred = predict(state, proposed, spec)
    if prop_pred.feasible and prop_pred.max_rho <= cfg.rho_max:
        return ShieldDecision(
            executed=proposed,
            proposed=proposed,
            vetoed=False,
            corrected=False,
            predicted_rho_max=prop_pred.max_rho,
            l0_distance=0,
        )

    if cfg.mode is ShieldMode.VETO:
        exec_pred = predict(state, NOOP, spec)
        return ShieldDecision(
            executed=NOOP,
            proposed=proposed,
            vetoed=True,
            corrected=False,
            predicted_rho_max=exec_pred.max_rho,
            l0_distance=l0_distance(NOOP, proposed, spec),
            last_resort=not (exec_pred.feasible and exec_pred.max_rho <= cfg.rho_max),
        )

    candidates = default_candidates(spec)
    scored: list[tuple[int, float, int, Action, Prediction]] = []
    for idx, cand in enumerate(candidates):
        pred = predict(state, cand, spec)
        if pred.feasible and pred.max_rho <= cfg.rho_max:
            scored.append((l0_distance(cand, proposed, spec), pred.max_rho, idx, cand, pred))

    if not scored:
        exec_pred = predict(state, NOOP, spec)
        return ShieldDecision(
            executed=NOOP,
            proposed=proposed,
            vetoed=True,
            corrected=False,
            predicted_rho_max=exec_pred.max_rho,
            l0_distance=l0_distance(NOOP, proposed, spec),
            last_resort=True,
        )

    _, _, _, chosen, chosen_pred = min(scored, key=lambda s: (s[0], s[1], s[2]))
    return ShieldDecision(
        executed=chosen,
        proposed=proposed,
        vetoed=True,
        corrected=True,
        predicted_rho_max=chosen_pred.max_rho,
        l0_distance=l0_distance(chosen, proposed, spec),
    )


def cbf_mask(
    state: EnvState, candidates: list[Action] | tuple[Action, ...], spec: GridSpec, cfg: ShieldConfig
) -> np.ndarray:
    """Admissibility mask for pre-filtering a policy's choice set before
    sampling; with everything inadmissible only NoOp entries stay open, so a
    NoOp candidate must be present."""
    mask = np.array(
        [is_admissible(state, a, spec, cfg) for a in candidates], dtype=bool
    )
    if not mask.any():
        mask = np.array([a == NOOP for a in candidates], dtype=bool)
        if not mask.any():
            raise ValueError("cbf_mask fallback requires a NoOp candidate")
    return mask


def identity_decision(state: EnvState, action: Action, spec: GridSpec) -> ShieldDecision:
    """Mode Off: never modifies the action; prediction kept for logging."""
    pred = predict(state, action, spec)
    return ShieldDecision(
        executed=action,
        proposed=action,
        vetoed=False,
        corrected=False,
        predicted_rho_max=pred.max_rho,
        l0_distance=0,
    )
