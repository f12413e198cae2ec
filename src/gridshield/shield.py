"""Runtime safety layer.

The agent proposes, the shield decides: `project` turns every proposal into
the executed action in all four modes (Off and CBF mask pass it through;
`cbf_mask` filters CBF's choices before sampling).

Every candidate action is scored by a one-step forward simulation with the
disturbance zeroed (multipliers at 1, no forced outages).  An action is
admissible when the predicted topology stays feasible and the predicted peak
loading stays at or below rho_max.  Inadmissible proposals are either vetoed
to NoOp or projected onto the nearest admissible corrective action, nearest
in the number of control changes.

NoOp and single-line disconnections are screened all at once by the line
outage distribution factor kernel (`grid.outage_peaks`), and the relieve
executor's choice for every target line is read from one table built on it
(`relieve_table`).  The exact solve behind `predict` stays the only source
of recorded peaks and decides every comparison the kernel leaves within
SCREEN_TOL, every bridge the kernel leaves NaN and every other kind of
action.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import environment as env
from .environment import Action, ActionKind, EnvConfig, EnvState, NOOP
from .grid import TOPOLOGY_MEMO, GridSpec, compiled, outage_peaks

# Kernel peaks this close to rho_max or to the best candidate's peak are
# re-decided by predict.  The kernel agrees with the exact solve to ~1e-14
# on the builtin grids; a wider band costs only speed, never correctness.
SCREEN_TOL = 1e-6

# Cooldown bookkeeping does not affect flows, so predict applies actions
# under one neutral config.
_NEUTRAL_CONFIG = EnvConfig()


class ShieldMode(Enum):
    OFF = "off"
    VETO = "veto"
    PROJECTION = "projection"
    CBF_MASK = "cbf_mask"


@dataclass(frozen=True)
class ShieldConfig:
    mode: ShieldMode = ShieldMode.PROJECTION
    rho_max: float = 0.98

    def __post_init__(self) -> None:
        # a NaN threshold would make every action inadmissible
        if not 0 <= self.rho_max < np.inf:
            raise ValueError(f"rho_max must be finite and >= 0, got {self.rho_max}")


@lru_cache(maxsize=64)
def default_candidates(spec: GridSpec) -> tuple[Action, ...]:
    """Projection's candidates: NoOp plus every single-line disconnection."""
    return env.enumerate_actions(spec, _NEUTRAL_CONFIG)[: spec.n_lines + 1]


@dataclass(frozen=True)
class Prediction:
    """One-step lookahead result. Infeasible topologies predict unbounded
    loading (max_rho inf) and are never admissible."""

    rho: np.ndarray
    feasible: bool
    max_rho: float


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
    rho = solution.rho
    rho.setflags(write=False)
    peak = float(np.max(rho, initial=0.0)) if solution.feasible else np.inf
    return Prediction(rho=rho, feasible=solution.feasible, max_rho=peak)


def predict(state: EnvState, action: Action, spec: GridSpec) -> Prediction:
    """Apply the action to a copy of the state and solve with zero
    disturbance (base demands, no forced outages).  Shares the environment's
    action-application rule, including degradation of infeasible actions."""
    if action.kind is ActionKind.NOOP or not env.action_feasible(state, action, spec):
        return _predict_solution(spec, state.line_status.tobytes(), state.gen_setpoints.tobytes())
    status = state.line_status.copy()
    cooldowns = state.cooldowns.copy()
    setpoints = state.gen_setpoints.copy()
    env.apply_action(status, cooldowns, setpoints, action, _NEUTRAL_CONFIG)
    return _predict_solution(spec, status.tobytes(), setpoints.tobytes())


def lookahead(state: EnvState, spec: GridSpec) -> np.ndarray:
    """Kernel estimate of the zero-disturbance peak of NoOp, at [0], and of
    disconnecting line k, at [1 + k] (the order of default_candidates); inf
    when the cut leaves a generator or load off the slack island or nothing
    keeps the grid feasible, NaN for bridges whose far side holds neither."""
    return outage_peaks(spec, state.line_status.tobytes(), state.gen_setpoints.tobytes())


@lru_cache(maxsize=TOPOLOGY_MEMO)
def _relieve_table(spec: GridSpec, status: bytes, setpoints: bytes) -> np.ndarray:
    c = compiled(spec)
    est = outage_peaks(spec, status, setpoints)[1:]
    hood = c.line_adjacency & np.frombuffer(status, dtype=bool)
    unsure = np.isnan(est)
    scores = np.where(hood & ~unsure, est, np.inf)
    best = scores.min(axis=1)
    near = np.count_nonzero(scores <= best[:, None] + SCREEN_TOL, axis=1)
    table = np.where(best == np.inf, 0, np.where(near == 1, 1 + scores.argmin(axis=1), -1))
    table[(hood & unsure).any(axis=1) | ~hood.any(axis=1)] = -1
    table.setflags(write=False)
    return table


def relieve_table(state: EnvState, spec: GridSpec) -> np.ndarray:
    """What lowest_peak returns over 1 + the in-service lines sharing a bus
    with line k (k included), at [k], from the kernel alone: the position,
    0 when every candidate is infeasible, and -1 where lowest_peak must
    decide itself (a NaN neighbor, a near tie or no neighbor at all)."""
    return _relieve_table(spec, state.line_status.tobytes(), state.gen_setpoints.tobytes())


def _admissible(
    state: EnvState,
    candidates: list[Action] | tuple[Action, ...],
    spec: GridSpec,
    rho_max: float,
) -> np.ndarray:
    """Admissibility mask from the kernel's estimates; predict decides
    reconnections, redispatch and every estimate that is NaN or within
    SCREEN_TOL of rho_max."""
    peaks = lookahead(state, spec)
    est = np.array([
        peaks[0] if a.kind is ActionKind.NOOP
        else peaks[1 + a.line] if a.kind is ActionKind.DISCONNECT
        else np.nan
        for a in candidates
    ])
    ok = est <= rho_max - SCREEN_TOL
    # NaN fails both comparisons, so it lands among the unsure
    for i in np.flatnonzero(~ok & ~(est > rho_max + SCREEN_TOL)):
        pred = predict(state, candidates[i], spec)
        ok[i] = pred.feasible and pred.max_rho <= rho_max
    return ok


def lowest_peak(state: EnvState, spec: GridSpec, positions: np.ndarray) -> int | None:
    """Of the default candidates at `positions` (ascending), the position of
    the one with the lowest predicted peak, ties to the lowest position, or
    None when every one is infeasible.  Candidates the kernel leaves NaN, and
    those whose kernel peak lies within SCREEN_TOL of the lowest, are decided
    by predict."""
    est = lookahead(state, spec)[positions]
    for j in np.flatnonzero(np.isnan(est)):
        est[j] = predict(state, default_candidates(spec)[positions[j]], spec).max_rho
    best = est.min()
    if best == np.inf:
        return None
    near = positions[est <= best + SCREEN_TOL]
    if near.size == 1:
        return int(near[0])
    candidates = default_candidates(spec)
    return int(min(near, key=lambda i: (predict(state, candidates[i], spec).max_rho, i)))


def l0_distance(a: Action, b: Action) -> int:
    """Number of control components (line statuses, generator setpoints) in
    which two actions differ: 0 for equal actions, 1 when exactly one is
    NoOp or both act on the same line or generator, else 2."""
    if a == b:
        return 0
    if a.kind is ActionKind.NOOP or b.kind is ActionKind.NOOP:
        return 1
    return 1 if (a.line, a.gen) == (b.line, b.gen) else 2


def project(
    state: EnvState, proposed: Action, spec: GridSpec, cfg: ShieldConfig
) -> ShieldDecision:
    """The shield's decision on a proposal in any mode, and the only place
    a ShieldDecision is built.  Admissible proposals pass through untouched,
    and so does every proposal under Off and CBF mask (CBF mask flags an
    inadmissible one as a last resort: its mask had nothing admissible
    left).  Otherwise Veto executes NoOp and Projection substitutes the
    admissible candidate with minimal L0 distance, ties broken by lower
    predicted peak loading then lower candidate index.  An empty admissible
    set falls back to NoOp and is flagged as a last resort.

    An admissible NoOp settles Projection without a search: it is one
    control change from any other proposal, and the only other candidate as
    near, the cut of the proposal's own line, is the inadmissible proposal
    itself or, for a reconnection, an infeasible cut that ties NoOp and
    loses on index.  The full search runs only when NoOp is inadmissible."""
    prop_pred = predict(state, proposed, spec)
    admissible = prop_pred.feasible and prop_pred.max_rho <= cfg.rho_max
    if admissible or cfg.mode is ShieldMode.OFF or cfg.mode is ShieldMode.CBF_MASK:
        return ShieldDecision(
            executed=proposed,
            proposed=proposed,
            vetoed=False,
            corrected=False,
            predicted_rho_max=prop_pred.max_rho,
            l0_distance=0,
            last_resort=not admissible and cfg.mode is ShieldMode.CBF_MASK,
        )

    noop = predict(state, NOOP, spec)
    noop_ok = noop.feasible and noop.max_rho <= cfg.rho_max
    if cfg.mode is ShieldMode.PROJECTION and not noop_ok:
        candidates = default_candidates(spec)
        ok = _admissible(state, candidates, spec, cfg.rho_max)
        if ok.any():
            # L0 from each disconnection (disconnect k at 1 + k; NoOp at 0 is
            # inadmissible here) to the proposal: 2 except on its own line
            l0 = np.full(len(candidates), 1 if proposed.kind is ActionKind.NOOP else 2)
            if proposed.line is not None:
                l0[1 + proposed.line] = l0_distance(candidates[1 + proposed.line], proposed)
            chosen = candidates[lowest_peak(state, spec, np.flatnonzero(ok & (l0 == l0[ok].min())))]
            return ShieldDecision(
                executed=chosen,
                proposed=proposed,
                vetoed=True,
                corrected=True,
                predicted_rho_max=predict(state, chosen, spec).max_rho,
                l0_distance=l0_distance(chosen, proposed),
            )

    return ShieldDecision(
        executed=NOOP,
        proposed=proposed,
        vetoed=True,
        corrected=noop_ok and cfg.mode is ShieldMode.PROJECTION,
        predicted_rho_max=noop.max_rho,
        l0_distance=l0_distance(NOOP, proposed),
        last_resort=not noop_ok,
    )


def cbf_mask(
    state: EnvState, candidates: list[Action] | tuple[Action, ...], spec: GridSpec, cfg: ShieldConfig
) -> np.ndarray:
    """Admissibility mask for pre-filtering a policy's choice set before
    sampling; with everything inadmissible only NoOp entries stay open, so a
    NoOp candidate must be present."""
    mask = _admissible(state, candidates, spec, cfg.rho_max)
    if not mask.any():
        mask = np.array([a == NOOP for a in candidates], dtype=bool)
        if not mask.any():
            raise ValueError("cbf_mask fallback requires a NoOp candidate")
    return mask
