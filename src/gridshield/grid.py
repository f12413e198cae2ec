"""Static network model and DC power-flow kernel.

A grid is an immutable description of buses, lines, generators and loads.
Power flow uses the linear DC approximation: solve B @ theta = P on the
island containing the slack bus (B is the susceptance Laplacian over
in-service lines, slack angle pinned to 0), then flow_l = b_l * (theta_from
- theta_to).  Everything is in per-unit; thermal limits are per-unit MW
magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

# Pivot magnitude below which the reduced Laplacian counts as singular.
SINGULAR_PIVOT_TOL = 1e-12


class SingularSystemError(RuntimeError):
    """Reduced susceptance matrix is numerically singular (malformed grid)."""


@dataclass(frozen=True)
class LineSpec:
    id: int
    from_bus: int
    to_bus: int
    susceptance: float
    thermal_limit: float


@dataclass(frozen=True)
class GenSpec:
    id: int
    bus: int
    p_min: float
    p_max: float
    ramp_limit: float


@dataclass(frozen=True)
class LoadSpec:
    id: int
    bus: int
    base_demand: float


@dataclass(frozen=True, eq=True)
class GridSpec:
    buses: tuple[int, ...]
    lines: tuple[LineSpec, ...]
    generators: tuple[GenSpec, ...]
    loads: tuple[LoadSpec, ...]
    slack_bus: int

    def __hash__(self) -> int:
        # memoized: specs are immutable and hashed on every cache lookup
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.buses, self.lines, self.generators, self.loads, self.slack_bus))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    @property
    def n_loads(self) -> int:
        return len(self.loads)


@dataclass(frozen=True)
class PowerFlowSolution:
    """Solved DC state.

    angles: per-bus voltage angle (rad), slack = 0, de-energised islands = 0.
    flows: per-line signed MW; 0 for out-of-service lines.
    rho: per-line loading ratio |flow| / thermal_limit.
    feasible: False when any load or generator sits outside the slack island.
    injections: per-bus net injection actually solved against (slack absorbs
        the island imbalance; buses off the slack island are zeroed).
    """

    angles: np.ndarray
    flows: np.ndarray
    rho: np.ndarray
    feasible: bool
    injections: np.ndarray


@dataclass(frozen=True)
class _CompiledSpec:
    """Index arrays derived from a GridSpec, cached for the hot path."""

    from_idx: np.ndarray
    to_idx: np.ndarray
    susceptance: np.ndarray
    limits: np.ndarray
    # per bus, the (line, other end) pairs of the lines at it, as plain
    # ints for the component search
    bus_lines: tuple[tuple[tuple[int, int], ...], ...]
    # generator buses followed by load buses, the order injections sum in
    injection_bus_idx: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray
    total_capacity: float  # p_max.sum()
    ramp: np.ndarray
    base_demand: np.ndarray
    slack_idx: int
    # bus x line: +1 at the line's from bus, -1 at its to bus
    incidence: np.ndarray
    # line x line: the two lines share a bus (a line shares its own)
    line_adjacency: np.ndarray
    # flat bus x bus positions and weights of each line's four Laplacian
    # entries, rows in the order (from, from), (to, to), (from, to), (to, from)
    laplacian_idx: np.ndarray
    laplacian_w: np.ndarray


@lru_cache(maxsize=64)
def compiled(spec: GridSpec) -> _CompiledSpec:
    bus_index = {b: i for i, b in enumerate(spec.buses)}
    from_idx = np.array([bus_index[l.from_bus] for l in spec.lines], dtype=np.intp)
    to_idx = np.array([bus_index[l.to_bus] for l in spec.lines], dtype=np.intp)
    incidence = np.zeros((spec.n_buses, spec.n_lines))
    incidence[from_idx, np.arange(spec.n_lines)] = 1.0
    incidence[to_idx, np.arange(spec.n_lines)] = -1.0
    touches = incidence != 0
    adjacency = (touches.T.astype(int) @ touches.astype(int)) > 0
    susceptance = np.array([l.susceptance for l in spec.lines], dtype=float)
    n = spec.n_buses
    laplacian_idx = np.stack(
        (from_idx * n + from_idx, to_idx * n + to_idx, from_idx * n + to_idx, to_idx * n + from_idx)
    )
    laplacian_w = np.stack((susceptance, susceptance, -susceptance, -susceptance))
    p_max = np.array([g.p_max for g in spec.generators], dtype=float)
    bus_lines: list[list[tuple[int, int]]] = [[] for _ in spec.buses]
    for ell, (u, v) in enumerate(zip(from_idx.tolist(), to_idx.tolist())):
        bus_lines[u].append((ell, v))
        bus_lines[v].append((ell, u))
    for arr in (incidence, adjacency, laplacian_idx, laplacian_w):
        arr.setflags(write=False)
    return _CompiledSpec(
        from_idx=from_idx,
        to_idx=to_idx,
        bus_lines=tuple(tuple(at) for at in bus_lines),
        injection_bus_idx=np.array(
            [bus_index[u.bus] for u in spec.generators + spec.loads], dtype=np.intp
        ),
        susceptance=susceptance,
        limits=np.array([l.thermal_limit for l in spec.lines], dtype=float),
        p_min=np.array([g.p_min for g in spec.generators], dtype=float),
        p_max=p_max,
        total_capacity=p_max.sum(),
        ramp=np.array([g.ramp_limit for g in spec.generators], dtype=float),
        base_demand=np.array([d.base_demand for d in spec.loads], dtype=float),
        slack_idx=bus_index[spec.slack_bus],
        incidence=incidence,
        line_adjacency=adjacency,
        laplacian_idx=laplacian_idx,
        laplacian_w=laplacian_w,
    )


def validate_spec(spec: GridSpec) -> list[str]:
    """Check GridSpec invariants; returns a list of violations (empty = ok)."""
    violations: list[str] = []
    declared = set(spec.buses)
    if len(declared) != len(spec.buses):
        violations.append("duplicate bus ids")
    # an id is a position: the kernel, the candidates and Action.line/gen
    # index arrays with it
    for name, items in (("line", spec.lines), ("generator", spec.generators), ("load", spec.loads)):
        if [item.id for item in items] != list(range(len(items))):
            violations.append(f"{name} ids must be 0..{len(items) - 1} in order")
    for line in spec.lines:
        if line.from_bus not in declared or line.to_bus not in declared:
            violations.append(f"line {line.id}: endpoint not a declared bus")
        if line.from_bus == line.to_bus:
            violations.append(f"line {line.id}: from_bus equals to_bus")
        # chained comparisons with inf reject NaN and infinities too
        if not 0 < line.thermal_limit < np.inf:
            violations.append(f"line {line.id}: thermal_limit must be finite and > 0")
        if not 0 < line.susceptance < np.inf:
            violations.append(f"line {line.id}: susceptance must be finite and > 0")
    for gen in spec.generators:
        if gen.bus not in declared:
            violations.append(f"generator {gen.id}: bus not declared")
        if not 0 <= gen.p_min <= gen.p_max < np.inf:
            violations.append(f"generator {gen.id}: requires finite 0 <= p_min <= p_max")
        if not 0 < gen.ramp_limit < np.inf:
            violations.append(f"generator {gen.id}: ramp_limit must be finite and > 0")
    for load in spec.loads:
        if load.bus not in declared:
            violations.append(f"load {load.id}: bus not declared")
        if not 0 <= load.base_demand < np.inf:
            violations.append(f"load {load.id}: base_demand must be finite and >= 0")
    if spec.slack_bus not in declared:
        violations.append("slack_bus is not a declared bus")
    elif not any(g.bus == spec.slack_bus for g in spec.generators):
        violations.append("slack_bus hosts no generator")
    if violations:
        # the graph checks below index every bus a line, generator or load names
        return violations
    all_in = np.ones(spec.n_lines, dtype=bool)
    if len(connected_components(spec, all_in)) > 1:
        violations.append("grid graph is disconnected (over all lines)")
    else:
        # every episode starts on the intact grid, so it must factor
        try:
            _topology(spec, all_in.tobytes())
        except SingularSystemError:
            violations.append(f"singular: a pivot below {SINGULAR_PIVOT_TOL:g} with all lines in")
    return violations


def _component_labels(spec: GridSpec, status: bytes) -> np.ndarray:
    """Per-bus component label over in-service lines: the smallest bus index
    of the component."""
    bus_lines = compiled(spec).bus_lines
    in_service = np.frombuffer(status, dtype=bool).tolist()
    labels = [-1] * spec.n_buses
    # buses in index order, so each search starts at its component's smallest
    for root in range(spec.n_buses):
        if labels[root] >= 0:
            continue
        labels[root] = root
        stack = [root]
        while stack:
            for ell, other in bus_lines[stack.pop()]:
                if in_service[ell] and labels[other] < 0:
                    labels[other] = root
                    stack.append(other)
    return np.array(labels, dtype=np.intp)


def connected_components(spec: GridSpec, line_status: np.ndarray) -> list[list[int]]:
    """Partition buses into maximal components over in-service lines.

    Components are ordered by their smallest contained bus id; bus ids inside
    each component are sorted ascending.
    """
    labels = _component_labels(spec, np.asarray(line_status, dtype=bool).tobytes())
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(spec.buses[i])
    comps = [sorted(g) for g in groups.values()]
    return sorted(comps, key=lambda g: g[0])


@dataclass(frozen=True)
class _Topology:
    """What a line status fixes for every solve on it: the slack island's
    buses, whether it holds every load and generator, its in-service lines,
    its buses but the slack (`red`) and the LU factors of the susceptance
    Laplacian over `red` (empty when `red` is)."""

    in_island: np.ndarray
    feasible: bool
    active: np.ndarray
    red: np.ndarray
    lu: np.ndarray
    piv: np.ndarray


# Topologies recur heavily across steps and lookahead queries, so the
# topology record below, the kernel's outage peaks, the shield's
# zero-disturbance predictions and the executor's relieve table are memoized
# on (spec, line status as bytes, ...).  Each memo keeps at most this many
# least-recently-used entries and hands out read-only arrays, so no caller
# can corrupt a later hit.
TOPOLOGY_MEMO = 16384


@lru_cache(maxsize=TOPOLOGY_MEMO)
def _topology(spec: GridSpec, status: bytes) -> _Topology:
    """Built once per line status; episodes then solve it step after step."""
    c = compiled(spec)
    n = spec.n_buses
    labels = _component_labels(spec, status)
    in_island = labels == labels[c.slack_idx]
    feasible = bool(in_island[c.injection_bus_idx].all())
    active = np.frombuffer(status, dtype=bool) & in_island[c.from_idx]
    red = np.flatnonzero(in_island & (np.arange(n) != c.slack_idx))
    if red.size:
        # bincount adds in input order, one line after another per entry
        b_full = np.bincount(
            c.laplacian_idx[:, active].ravel(), c.laplacian_w[:, active].ravel(), minlength=n * n
        ).reshape(n, n)
        lu, piv = lu_factor(b_full[np.ix_(red, red)], check_finite=False)
        if np.abs(np.diag(lu)).min() < SINGULAR_PIVOT_TOL:
            raise SingularSystemError("reduced susceptance matrix is singular")
    else:
        lu, piv = np.empty((0, 0)), np.empty(0, dtype=np.int32)
    for arr in (in_island, active, red, lu, piv):
        arr.setflags(write=False)
    return _Topology(in_island, feasible, active, red, lu, piv)


def _solve_reduced(topo: _Topology, rhs: np.ndarray) -> np.ndarray:
    """Angles over `topo.red` for one or several right-hand sides (getrs)."""
    x, info = dgetrs(topo.lu, topo.piv, rhs)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dgetrs")
    return x


def bus_injections(spec: GridSpec, setpoints: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Per-bus net injection: each bus sums its generators' setpoints, then
    subtracts its loads' demands, in spec order."""
    c = compiled(spec)
    return np.bincount(
        c.injection_bus_idx, np.concatenate((setpoints, -demands)), minlength=spec.n_buses
    )


def solve_dc_power_flow(
    spec: GridSpec, injections: np.ndarray, line_status: np.ndarray
) -> PowerFlowSolution:
    """Solve DC power flow on the slack island.

    injections: per-bus net power aligned with spec.buses order.  Any island
    imbalance is absorbed by the slack bus (standard DC convention), so
    callers need not pre-balance.  Buses outside the slack island are left
    de-energised (angle 0, zero injection); the solution is flagged
    infeasible when a load or generator is stranded there.
    """
    c = compiled(spec)
    topo = _topology(spec, np.asarray(line_status, dtype=bool).tobytes())
    balanced = np.where(topo.in_island, np.asarray(injections, dtype=float), 0.0)
    balanced[c.slack_idx] = 0.0
    balanced[c.slack_idx] = -balanced.sum()

    angles = np.zeros(spec.n_buses)
    if topo.red.size:
        angles[topo.red] = _solve_reduced(topo, balanced[topo.red])

    flows = np.where(
        topo.active, c.susceptance * (angles[c.from_idx] - angles[c.to_idx]), 0.0
    )
    rho = np.abs(flows) / c.limits
    return PowerFlowSolution(
        angles=angles, flows=flows, rho=rho, feasible=topo.feasible, injections=balanced
    )


# 1 - H_kk for an outage of line k is zero, up to rounding, exactly when the
# line is a bridge of the slack island; a line this close to it is left to
# the exact solve as well.
BRIDGE_SCREEN = 1e-6


@lru_cache(maxsize=TOPOLOGY_MEMO)
def outage_peaks(spec: GridSpec, status: bytes, setpoints: bytes) -> np.ndarray:
    """Zero-disturbance peak loading (base demands) of the state as it is,
    at [0], and after disconnecting each line k alone, at [1 + k].

    One solve gives the base flows f; one multi-right-hand-side solve on the
    cached factorization gives H = diag(b) A^T B_red^-1 A over the slack
    island's in-service lines, and losing line k moves the flows to
    f + H[:, k] / (1 - H_kk) * f_k with line k itself at 0 (line outage
    distribution factors; Guo et al., IEEE Trans. Power Syst. 24(3), 2009).
    Lines out of service or off the slack island leave the peak as it is; an
    infeasible state stays infeasible under every cut (inf).

    A bridge, whose cut splits the slack island, is inf when the split it
    makes strands a generator or load, which is exactly what the exact solve
    finds; otherwise it is NaN and only an exact solve answers it.  Column k
    of B_red^-1 A injects +1 at line k's from bus and -1 at its to bus, so
    across a bridge the far side from the slack sits at |theta| = 1 / b_k and
    the near side at 0.  Inf needs line k to be the only in-service line with
    one end among the buses above half the column's maximum: that check is
    combinatorial, so rounding can leave a bridge NaN but never make it inf.
    """
    c = compiled(spec)
    injections = bus_injections(spec, np.frombuffer(setpoints, dtype=float), c.base_demand)
    base = solve_dc_power_flow(spec, injections, np.frombuffer(status, dtype=bool))
    peaks = np.full(spec.n_lines + 1, np.max(base.rho, initial=0.0) if base.feasible else np.inf)
    topo = _topology(spec, status)
    lines = np.flatnonzero(topo.active)
    if base.feasible and lines.size:
        incidence = c.incidence[np.ix_(topo.red, lines)]
        angles = _solve_reduced(topo, incidence)
        h = c.susceptance[lines, None] * (incidence.T @ angles)
        denom = 1.0 - np.diag(h)
        bridge = denom < BRIDGE_SCREEN
        f = base.flows[lines]
        shift = f / np.where(bridge, 1.0, denom)
        after = f[:, None] + h * shift[None, :]
        np.fill_diagonal(after, 0.0)
        cut = (np.abs(after) / c.limits[lines, None]).max(axis=0)
        peaks[1 + lines] = np.where(bridge, np.nan, cut)
        cols = np.flatnonzero(bridge)
        if cols.size:
            theta = np.abs(angles[:, cols])
            far = np.zeros((spec.n_buses, cols.size), dtype=bool)
            far[topo.red] = theta > theta.max(axis=0) / 2
            crosses = far[c.from_idx[lines]] != far[c.to_idx[lines]]
            alone = (crosses.sum(axis=0) == 1) & crosses[cols, np.arange(cols.size)]
            strands = alone & far[c.injection_bus_idx].any(axis=0)
            peaks[1 + lines[cols[strands]]] = np.inf
    peaks.setflags(write=False)
    return peaks


def safety_margin(rho: np.ndarray) -> float:
    """Instantaneous distance to the nearest thermal violation, 1 - max rho.

    Negative when some line is overloaded.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.size == 0:
        raise ValueError("safety_margin of an empty rho vector")
    return 1.0 - float(rho.max())
