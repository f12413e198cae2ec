"""Reference DC power flow, written apart from the program's solver.

The program factors the reduced Laplacian with LU behind caches and labels
islands with union-find.  This module finds the slack island by
breadth-first search and inverts the reduced Laplacian densely, giving a
matrix that maps bus injections to line flows for each topology, so the two
share nothing but the grid description.  Topologies are memoized in
`memo`, which the checks keep bounded.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RefSolution:
    flows: np.ndarray
    rho: np.ndarray
    feasible: bool


class RefGrid:
    def __init__(self, spec):
        index = {b: i for i, b in enumerate(spec.buses)}
        self.n = len(spec.buses)
        self.frm = np.array([index[l.from_bus] for l in spec.lines], dtype=np.intp)
        self.to = np.array([index[l.to_bus] for l in spec.lines], dtype=np.intp)
        self.b = np.array([l.susceptance for l in spec.lines], dtype=float)
        self.limit = np.array([l.thermal_limit for l in spec.lines], dtype=float)
        self.gen_bus = np.array([index[g.bus] for g in spec.generators], dtype=np.intp)
        self.load_bus = np.array([index[d.bus] for d in spec.loads], dtype=np.intp)
        self.base_demand = np.array([d.base_demand for d in spec.loads], dtype=float)
        self.slack = index[spec.slack_bus]
        # Bus injections are gen_map @ setpoints - load_map @ demands.
        self.gen_map = np.zeros((self.n, len(spec.generators)))
        self.gen_map[self.gen_bus, np.arange(len(spec.generators))] = 1.0
        self.load_map = np.zeros((self.n, len(spec.loads)))
        self.load_map[self.load_bus, np.arange(len(spec.loads))] = 1.0
        self.incidence = np.zeros((len(spec.lines), self.n))
        self.incidence[np.arange(len(spec.lines)), self.frm] = 1.0
        self.incidence[np.arange(len(spec.lines)), self.to] = -1.0
        self.adjacent: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for ell, (u, v) in enumerate(zip(self.frm.tolist(), self.to.tolist())):
            self.adjacent[u].append((ell, v))
            self.adjacent[v].append((ell, u))
        self.memo: dict[bytes, tuple[np.ndarray, bool]] = {}

    def island(self, status: np.ndarray) -> np.ndarray:
        """Buses reachable from the slack over in-service lines."""
        up = np.asarray(status, dtype=bool).tolist()
        seen = [False] * self.n
        seen[self.slack] = True
        queue = deque([self.slack])
        while queue:
            for ell, v in self.adjacent[queue.popleft()]:
                if up[ell] and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return np.array(seen)

    def _topology(self, status: np.ndarray) -> tuple[np.ndarray, bool]:
        """(flow map, feasible): flows = flow_map @ bus injections."""
        status = np.asarray(status, dtype=bool)
        key = status.tobytes()
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        seen = self.island(status)
        active = status & seen[self.frm] & seen[self.to]
        inc = self.incidence * active[:, None]
        lap = inc.T @ (self.b[:, None] * inc)
        red = np.flatnonzero(seen & (np.arange(self.n) != self.slack))
        flow_map = np.zeros((self.frm.size, self.n))
        if red.size:
            flow_map[:, red] = (self.b[:, None] * inc[:, red]) @ np.linalg.inv(
                lap[np.ix_(red, red)]
            )
        feasible = bool(seen[self.gen_bus].all() and seen[self.load_bus].all())
        hit = (flow_map, feasible)
        self.memo[key] = hit
        return hit

    def solve(self, setpoints, demands, status) -> RefSolution:
        """Flows with the slack absorbing the island's imbalance; buses off
        the slack island are de-energised."""
        flow_map, feasible = self._topology(status)
        flows = flow_map @ (self.gen_map @ setpoints - self.load_map @ demands)
        return RefSolution(flows=flows, rho=np.abs(flows) / self.limit, feasible=feasible)
