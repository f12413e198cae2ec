import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridshield import environment as env
from gridshield import grid, shield
from gridshield.environment import EnvConfig, NOOP
from gridshield.grid import (
    GenSpec,
    GridSpec,
    LineSpec,
    LoadSpec,
    connected_components,
    safety_margin,
    solve_dc_power_flow,
    validate_spec,
)

from gridshield.grids import builtin_grid

from conftest import random_connected_spec


def singular_chain() -> GridSpec:
    """A 3-bus chain whose second line is 1e-13 as strong as its first."""
    return GridSpec(
        buses=(0, 1, 2),
        lines=(LineSpec(0, 0, 1, 1.0, 1.0), LineSpec(1, 1, 2, 1e-13, 1.0)),
        generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
        loads=(LoadSpec(0, 2, 0.5),),
        slack_bus=0,
    )


class TestValidateSpec:
    def test_well_formed_spec_ok(self, toy5):
        assert validate_spec(toy5) == []

    def test_zero_limit_names_line(self, two_bus):
        bad = GridSpec(
            buses=two_bus.buses,
            lines=(LineSpec(0, 0, 1, 1.0, 0.0),),
            generators=two_bus.generators,
            loads=two_bus.loads,
            slack_bus=0,
        )
        violations = validate_spec(bad)
        assert any("line 0" in v and "thermal_limit" in v for v in violations)

    @pytest.mark.parametrize("table", ["lines", "generators", "loads"])
    def test_ids_must_be_positions(self, train14, table):
        items = getattr(train14, table)
        want = f"{table.rstrip('s')} ids must be 0..{len(items) - 1} in order"
        for renumber in (lambda i: len(items) - 1 - i, lambda i: i + 100, lambda i: 0):
            bad = tuple(dataclasses.replace(x, id=renumber(i)) for i, x in enumerate(items))
            assert want in validate_spec(dataclasses.replace(train14, **{table: bad}))

    def test_disconnected_graph_flagged(self):
        spec = GridSpec(
            buses=(0, 1, 2, 3),
            lines=(LineSpec(0, 0, 1, 1.0, 1.0), LineSpec(1, 2, 3, 1.0, 1.0)),
            generators=(GenSpec(0, 0, 0.0, 1.0, 0.1),),
            loads=(LoadSpec(0, 1, 0.5),),
            slack_bus=0,
        )
        # oracle: breadth-first search over all lines
        adj = {0: {1}, 1: {0}, 2: {3}, 3: {2}}
        seen, frontier = {0}, [0]
        while frontier:
            seen.update(adj[frontier.pop()])
            frontier = [b for b in adj if b in seen and any(n not in seen for n in adj[b])]
        assert seen != set(spec.buses)
        assert any("disconnected" in v for v in validate_spec(spec))

    def test_singular_intact_grid_flagged(self):
        # every susceptance is positive and finite, but 1e-13 next to 1.0
        # leaves a pivot below SINGULAR_PIVOT_TOL, so no episode could reset
        spec = singular_chain()
        assert validate_spec(spec) == ["singular: a pivot below 1e-12 with all lines in"]
        with pytest.raises(grid.SingularSystemError):
            env.reset(spec, EnvConfig(), 0)

    def test_undeclared_bus_is_a_violation_not_a_crash(self, two_bus):
        bad = dataclasses.replace(two_bus, lines=(LineSpec(0, 0, 7, 1.0, 1.0),))
        assert validate_spec(bad) == ["line 0: endpoint not a declared bus"]
        bad = dataclasses.replace(two_bus, loads=(LoadSpec(0, 7, 0.5),))
        assert validate_spec(bad) == ["load 0: bus not declared"]

    def test_slack_without_generator(self, two_bus):
        bad = GridSpec(
            buses=two_bus.buses,
            lines=two_bus.lines,
            generators=(GenSpec(0, 1, 0.0, 2.0, 0.5),),
            loads=two_bus.loads,
            slack_bus=0,
        )
        assert any("slack" in v for v in validate_spec(bad))


class TestSolvePowerFlow:
    def test_single_line_carries_all_power(self, two_bus):
        sol = solve_dc_power_flow(two_bus, np.array([1.0, -1.0]), np.array([True]))
        assert sol.flows[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.rho[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.feasible

    def test_zero_injections_zero_flows(self, triangle):
        sol = solve_dc_power_flow(triangle, np.zeros(3), np.ones(3, bool))
        assert np.all(sol.flows == 0.0)
        assert np.all(sol.rho == 0.0)

    def test_triangle_splits_two_thirds_one_third(self, triangle):
        # oracle: dense solve of the 2x2 reduced Laplacian
        b_red = np.array([[2.0, -1.0], [-1.0, 2.0]])
        theta = np.linalg.solve(b_red, np.array([0.0, -1.0]))
        sol = solve_dc_power_flow(triangle, np.array([1.0, 0.0, -1.0]), np.ones(3, bool))
        assert sol.angles[1] == pytest.approx(theta[0], abs=1e-12)
        assert sol.angles[2] == pytest.approx(theta[1], abs=1e-12)
        assert sol.flows[1] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert sol.flows[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert sol.flows[2] == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_islanded_load_infeasible(self, two_bus):
        sol = solve_dc_power_flow(two_bus, np.array([1.0, -1.0]), np.array([False]))
        assert not sol.feasible
        assert sol.rho[0] == 0.0

    def test_slack_angle_zero(self, train14):
        inj = np.zeros(train14.n_buses)
        inj[3] = -1.0
        sol = solve_dc_power_flow(train14, inj, np.ones(train14.n_lines, bool))
        assert sol.angles[0] == 0.0

    def test_residual_and_conservation_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            spec = random_connected_spec(rng, int(rng.integers(5, 51)))
            inj = rng.normal(0, 1, spec.n_buses)
            status = np.ones(spec.n_lines, bool)
            sol = solve_dc_power_flow(spec, inj, status)
            c = grid.compiled(spec)
            # residual B@theta - P on non-slack buses
            n = spec.n_buses
            b_full = np.zeros((n, n))
            for ell in range(spec.n_lines):
                u, v, bs = c.from_idx[ell], c.to_idx[ell], c.susceptance[ell]
                b_full[u, u] += bs
                b_full[v, v] += bs
                b_full[u, v] -= bs
                b_full[v, u] -= bs
            residual = b_full @ sol.angles - sol.injections
            non_slack = np.arange(n) != c.slack_idx
            assert np.abs(residual[non_slack]).max() <= 1e-8
            # per-bus conservation: net outflow equals injection
            outflow = np.zeros(n)
            np.add.at(outflow, c.from_idx, sol.flows)
            np.add.at(outflow, c.to_idx, -sol.flows)
            assert np.abs(outflow - sol.injections).max() <= 1e-8

    def test_superposition(self, train14):
        rng = np.random.default_rng(1)
        status = np.ones(train14.n_lines, bool)
        p1 = rng.normal(0, 1, train14.n_buses)
        p2 = rng.normal(0, 1, train14.n_buses)
        a, b = 0.7, -1.3
        f1 = solve_dc_power_flow(train14, p1, status).flows
        f2 = solve_dc_power_flow(train14, p2, status).flows
        f12 = solve_dc_power_flow(train14, a * p1 + b * p2, status).flows
        assert np.abs(f12 - (a * f1 + b * f2)).max() <= 1e-8

    def test_flow_antisymmetry(self, train14):
        """Reversing a line's endpoints negates its flow, same rho."""
        rng = np.random.default_rng(3)
        inj = rng.normal(0, 1, train14.n_buses)
        status = np.ones(train14.n_lines, bool)
        base = solve_dc_power_flow(train14, inj, status)
        ell = 7
        flipped_lines = list(train14.lines)
        l = flipped_lines[ell]
        flipped_lines[ell] = LineSpec(l.id, l.to_bus, l.from_bus, l.susceptance, l.thermal_limit)
        flipped = GridSpec(
            buses=train14.buses,
            lines=tuple(flipped_lines),
            generators=train14.generators,
            loads=train14.loads,
            slack_bus=train14.slack_bus,
        )
        sol = solve_dc_power_flow(flipped, inj, status)
        assert sol.flows[ell] == pytest.approx(-base.flows[ell], abs=1e-12)
        assert sol.rho[ell] == pytest.approx(base.rho[ell], abs=1e-12)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_raises(self):
        # susceptance 0 makes the reduced Laplacian singular; validate_spec
        # would reject this spec, which is exactly what the error signals
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 0, 1, 0.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
            loads=(LoadSpec(0, 1, 1.0),),
            slack_bus=0,
        )
        with pytest.raises(grid.SingularSystemError):
            solve_dc_power_flow(spec, np.array([1.0, -1.0]), np.array([True]))

    def test_slack_alone_keeps_angles_zero(self, two_bus, monkeypatch):
        # an island of the slack alone has nothing to factor or solve
        def no_factor(*args, **kwargs):
            raise AssertionError("factorized an empty system")

        monkeypatch.setattr(grid, "lu_factor", no_factor)
        monkeypatch.setattr(grid, "dgetrs", no_factor)
        grid._topology.cache_clear()
        sol = solve_dc_power_flow(two_bus, np.array([1.0, -1.0]), np.array([False]))
        assert np.all(sol.angles == 0.0) and np.all(sol.flows == 0.0)
        assert not sol.feasible
        assert grid._topology(two_bus, np.array([False]).tobytes()).lu.shape == (0, 0)

    def test_getrs_failure_raises(self, triangle, monkeypatch):
        monkeypatch.setattr(grid, "dgetrs", lambda lu, piv, b: (b, -3))
        with pytest.raises(ValueError, match="argument 3"):
            solve_dc_power_flow(triangle, np.array([1.0, 0.0, -1.0]), np.ones(3, bool))


def _old_bus_injections(spec, setpoints, demands):
    """The two-step accumulation bus_injections replaced."""
    bus_index = {b: i for i, b in enumerate(spec.buses)}
    inj = np.zeros(spec.n_buses)
    np.add.at(inj, [bus_index[g.bus] for g in spec.generators], setpoints)
    np.add.at(inj, [bus_index[d.bus] for d in spec.loads], -demands)
    return inj


class TestBusInjections:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_equals_two_step_accumulation_bit_for_bit(self, seed):
        # few buses carrying many generators and loads of mixed magnitude,
        # so a different summation order rounds differently
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        gens = tuple(
            GenSpec(i, int(rng.integers(n)), 0.0, 1.0, 1.0) for i in range(int(rng.integers(1, 9)))
        )
        loads = tuple(LoadSpec(i, int(rng.integers(n)), 1.0) for i in range(int(rng.integers(0, 9))))
        spec = GridSpec(tuple(range(n)), (), gens, loads, 0)
        setpoints = rng.normal(size=len(gens)) * 10.0 ** rng.integers(-8, 9, len(gens))
        demands = rng.normal(size=len(loads)) * 10.0 ** rng.integers(-8, 9, len(loads))
        got = grid.bus_injections(spec, setpoints, demands)
        want = _old_bus_injections(spec, setpoints, demands)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


class TestLoadingMetrics:
    def test_loading_ratio_definition(self, two_bus):
        sol = solve_dc_power_flow(two_bus, np.array([0.5, -0.5]), np.array([True]))
        assert sol.rho[0] == pytest.approx(0.5, abs=1e-12)

    def test_disconnected_line_rho_zero(self, triangle):
        status = np.array([True, False, True])
        sol = solve_dc_power_flow(triangle, np.array([1.0, 0.0, -1.0]), status)
        assert sol.rho[1] == 0.0

    def test_negative_flow_magnitude(self):
        # flow -1.21 over limit 1.0 reads as rho 1.21
        spec = GridSpec(
            buses=(0, 1),
            lines=(LineSpec(0, 1, 0, 1.0, 1.0),),
            generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
            loads=(LoadSpec(0, 1, 1.21),),
            slack_bus=0,
        )
        sol = solve_dc_power_flow(spec, np.array([1.21, -1.21]), np.array([True]))
        assert sol.flows[0] == pytest.approx(-1.21, abs=1e-12)
        assert sol.rho[0] == pytest.approx(1.21, abs=1e-12)

    def test_max_loading(self):
        # the margin reads the peak loading: 1 - max rho
        assert safety_margin(np.array([0.2, 0.9, 0.4])) == 1.0 - 0.9
        assert safety_margin(np.zeros(3)) == 1.0
        assert safety_margin(np.array([0.3, 1.14, 0.2])) == pytest.approx(-0.14)
        assert safety_margin([0.5, 0.7]) == 1.0 - 0.7  # any sequence of ratios

    def test_max_loading_empty_raises(self):
        with pytest.raises(ValueError):
            safety_margin(np.array([]))

    def test_safety_margin_values(self):
        assert safety_margin(np.array([0.85])) == pytest.approx(0.15)
        assert safety_margin(np.array([1.0])) == 0.0
        assert safety_margin(np.array([1.21])) == pytest.approx(-0.21)

    @given(st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=40))
    def test_margin_plus_max_is_one(self, rho):
        arr = np.array(rho)
        # identity holds at the representation level: m is literally 1 - max
        assert safety_margin(arr) == 1.0 - max(rho)


class _UnionFind:
    """Union-find with path compression over integer bus indices; the root
    of a set is its smallest index."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _union_find_labels(spec, status) -> np.ndarray:
    c = grid.compiled(spec)
    uf = _UnionFind(spec.n_buses)
    for ell in np.flatnonzero(status):
        uf.union(int(c.from_idx[ell]), int(c.to_idx[ell]))
    return np.array([uf.find(i) for i in range(spec.n_buses)], dtype=np.intp)


class TestConnectedComponents:
    def test_all_in_service_single_component(self, train14):
        comps = connected_components(train14, np.ones(train14.n_lines, bool))
        assert comps == [list(train14.buses)]

    def test_all_out_one_component_per_bus(self, triangle):
        comps = connected_components(triangle, np.zeros(3, bool))
        assert comps == [[0], [1], [2]]

    def test_cut_set_splits_train14(self, train14):
        # removing every line at bus 3's boundary that reaches the rest of
        # the grid isolates the load-centre cluster; oracle = union-find
        status = np.ones(train14.n_lines, bool)
        cut = [1, 3, 5, 6, 13, 16]  # all core and chain lines into bus 3
        for ell in cut:
            status[ell] = False
        comps = connected_components(train14, status)
        assert len(comps) == _brute_force_component_count(train14, status)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_brute_force_on_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(2, 51)))
        status = rng.random(spec.n_lines) < 0.6
        comps = connected_components(spec, status)
        # deterministic ordering by smallest contained bus id
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        assert len(comps) == _brute_force_component_count(spec, status)
        assert sorted(b for c in comps for b in c) == list(spec.buses)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_labels_equal_union_find(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(1, 51)))
        for p in (1.0, 0.8, 0.5, 0.0):
            status = rng.random(spec.n_lines) < p
            labels = grid._component_labels(spec, status.tobytes())
            assert labels.dtype == np.intp
            np.testing.assert_array_equal(labels, _union_find_labels(spec, status))


def _add_at_laplacian(spec, active) -> np.ndarray:
    """The four np.add.at accumulations the bincount build replaced."""
    c = grid.compiled(spec)
    n = spec.n_buses
    b_full = np.zeros((n, n))
    fi, ti, bs = c.from_idx[active], c.to_idx[active], c.susceptance[active]
    np.add.at(b_full, (fi, fi), bs)
    np.add.at(b_full, (ti, ti), bs)
    np.add.at(b_full, (fi, ti), -bs)
    np.add.at(b_full, (ti, fi), -bs)
    return b_full


class TestLaplacian:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_factored_matrix_equals_add_at_bit_for_bit(self, seed):
        # parallel lines of mixed magnitude, so another summation order
        # would round differently
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(2, 21)))
        twins = spec.lines[: int(rng.integers(0, spec.n_lines + 1))]
        lines = spec.lines + tuple(
            dataclasses.replace(
                l, id=spec.n_lines + i, susceptance=l.susceptance * 10.0 ** rng.integers(-6, 7)
            )
            for i, l in enumerate(twins)
        )
        spec = dataclasses.replace(spec, lines=lines)
        factored = []
        real_factor = grid.lu_factor

        def capture(a, **kwargs):
            factored.append(a.copy())
            return real_factor(a, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "lu_factor", capture)
            for p in (1.0, 0.7):
                status = rng.random(spec.n_lines) < p
                grid._topology.cache_clear()
                topo = grid._topology(spec, status.tobytes())
                if not topo.red.size:
                    continue
                want = _add_at_laplacian(spec, topo.active)[np.ix_(topo.red, topo.red)]
                got = factored.pop()
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        grid._topology.cache_clear()



def _clear_memos():
    grid._topology.cache_clear()
    grid.outage_peaks.cache_clear()
    shield._predict_solution.cache_clear()
    shield._relieve_table.cache_clear()


def _hash_twin(spec, line, scale):
    """Copy of spec with one susceptance scaled, forced onto the original's
    hash: a memo keyed on the hash alone would hand one the other's flows."""
    lines = list(spec.lines)
    lines[line] = dataclasses.replace(lines[line], susceptance=lines[line].susceptance * scale)
    twin = dataclasses.replace(spec, lines=tuple(lines))
    object.__setattr__(twin, "_hash", hash(spec))
    return twin


class TestTopologyMemo:
    def test_memoized_arrays_are_read_only(self, train14):
        state = env.reset(train14, EnvConfig(), seed=0)
        pred = shield.predict(state, NOOP, train14)
        before = pred.rho.copy()
        topo = grid._topology(train14, state.line_status.tobytes())
        peaks = shield.lookahead(state, train14)
        table = shield.relieve_table(state, train14)
        arrays = (pred.rho, topo.in_island, topo.active, topo.red, topo.lu, topo.piv, peaks, table)
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 5
        again = shield.predict(state, NOOP, train14)
        np.testing.assert_array_equal(again.rho, before)
        assert again.max_rho == pytest.approx(0.6)
        assert shield.lookahead(state, train14)[0] == again.max_rho

    def test_hash_twin_solves_to_its_own_flows(self, train14):
        twin = _hash_twin(train14, 0, 2.0)
        assert hash(twin) == hash(train14) and twin != train14
        state = env.reset(train14, EnvConfig(), seed=0)
        inj = state.last_solution.injections
        status = state.line_status
        _clear_memos()
        cold = solve_dc_power_flow(twin, inj, status)
        cold_pred = shield.predict(state, NOOP, twin)
        _clear_memos()
        solve_dc_power_flow(train14, inj, status)
        shield.predict(state, NOOP, train14)
        np.testing.assert_array_equal(solve_dc_power_flow(twin, inj, status).flows, cold.flows)
        np.testing.assert_array_equal(shield.predict(state, NOOP, twin).rho, cold_pred.rho)
        key = status.tobytes()
        assert not np.array_equal(grid._topology(twin, key).lu, grid._topology(train14, key).lu)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_warm_solves_equal_cold_solves(self, seed):
        # random outages strand buses and cut bridges; each spec shares its
        # hash with a twin of different susceptance
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(2, 31)))
        twin = _hash_twin(spec, int(rng.integers(spec.n_lines)), 2.0)
        inj = rng.normal(0, 1, spec.n_buses)
        setpoints = env.base_dispatch(spec).tobytes()
        queries = [
            (s, rng.random(spec.n_lines) < p) for p in (1.0, 0.8, 0.5) for s in (spec, twin)
        ]
        cold = []
        for s, status in queries:
            _clear_memos()
            cold.append(
                (solve_dc_power_flow(s, inj, status),
                 shield._predict_solution(s, status.tobytes(), setpoints),
                 grid.outage_peaks(s, status.tobytes(), setpoints),
                 grid._topology(s, status.tobytes()),
                 shield._relieve_table(s, status.tobytes(), setpoints))
            )
        for _ in range(2):  # the first pass mixes misses and hits, the second only hits
            for (s, status), (sol, pred, peaks, topo, table) in zip(queries, cold):
                warm_topo = grid._topology(s, status.tobytes())
                assert warm_topo.feasible == topo.feasible
                for field in ("in_island", "active", "red", "lu", "piv"):
                    np.testing.assert_array_equal(getattr(warm_topo, field), getattr(topo, field))
                warm = solve_dc_power_flow(s, inj, status)
                np.testing.assert_array_equal(warm.angles, sol.angles)
                np.testing.assert_array_equal(warm.flows, sol.flows)
                assert warm.feasible == sol.feasible
                warm_pred = shield._predict_solution(s, status.tobytes(), setpoints)
                np.testing.assert_array_equal(warm_pred.rho, pred.rho)
                assert warm_pred.feasible == pred.feasible
                np.testing.assert_array_equal(
                    grid.outage_peaks(s, status.tobytes(), setpoints), peaks
                )
                np.testing.assert_array_equal(
                    shield._relieve_table(s, status.tobytes(), setpoints), table
                )


def _splits_slack_island(spec, status, line) -> bool:
    """Union-find oracle: the line is in service on the slack island and
    cutting it leaves its two ends in different components."""
    c = grid.compiled(spec)
    labels = _union_find_labels(spec, status)
    if not status[line] or labels[c.from_idx[line]] != labels[c.slack_idx]:
        return False
    cut = status.copy()
    cut[line] = False
    after = _union_find_labels(spec, cut)
    return bool(after[c.from_idx[line]] != after[c.to_idx[line]])


def _check_kernel_against_predict(spec, state) -> None:
    """Every entry of the kernel against predict on the same candidate."""
    peaks = shield.lookahead(state, spec)
    noop = shield.predict(state, NOOP, spec)
    assert peaks[0] == noop.max_rho
    for k in range(spec.n_lines):
        exact = shield.predict(state, env.disconnect(k), spec).max_rho
        if not noop.feasible:
            assert peaks[1 + k] == exact == np.inf
        elif _splits_slack_island(spec, state.line_status, k):
            # a bridge is exact when its cut strands a generator or load,
            # and left to predict otherwise
            if np.isinf(exact):
                assert peaks[1 + k] == exact
            else:
                assert np.isnan(peaks[1 + k])
        else:
            assert np.isfinite(peaks[1 + k]) == np.isfinite(exact)
            if np.isfinite(exact):
                assert abs(peaks[1 + k] - exact) <= shield.SCREEN_TOL / 100


class TestOutagePeaks:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_kernel_matches_predict_on_random_specs(self, seed):
        # random outages strand buses, split off islands and leave bridges
        rng = np.random.default_rng(seed)
        spec = random_connected_spec(rng, int(rng.integers(2, 31)))
        state = env.reset(spec, EnvConfig(), seed=0)
        for p in (1.0, 0.85, 0.6):
            status = rng.random(spec.n_lines) < p
            _check_kernel_against_predict(spec, dataclasses.replace(state, line_status=status))

    @pytest.mark.parametrize("name", ["toy5", "train14", "large36"])
    def test_kernel_matches_predict_on_builtin_grids(self, name):
        spec = builtin_grid(name)
        state = env.reset(spec, EnvConfig(), seed=0)
        rng = np.random.default_rng(5)
        for _ in range(4):
            _check_kernel_against_predict(spec, state)
            status = state.line_status.copy()
            status[rng.choice(np.flatnonzero(status))] = False
            state = dataclasses.replace(state, line_status=status)

    def test_bridge_is_nan_and_stranding_is_inf(self, two_bus, triangle):
        # the only line of two_bus is a bridge to the load; triangle has
        # none, but with line 2 out, line 0 is a bridge to the empty bus 1
        # and line 1 one to the load at bus 2
        state = env.reset(two_bus, EnvConfig(), seed=0)
        assert shield.lookahead(state, two_bus)[1] == np.inf
        assert shield.predict(state, env.disconnect(0), two_bus).max_rho == np.inf
        state = env.reset(triangle, EnvConfig(), seed=0)
        assert np.isfinite(shield.lookahead(state, triangle)).all()
        cut = dataclasses.replace(state, line_status=np.array([True, True, False]))
        peaks = shield.lookahead(cut, triangle)
        assert np.isnan(peaks[1]) and peaks[2] == np.inf
        assert np.isfinite(shield.predict(cut, env.disconnect(0), triangle).max_rho)
        stranded = dataclasses.replace(state, line_status=np.array([True, False, False]))
        assert np.isinf(shield.lookahead(stranded, triangle)).all()

    def test_split_crossed_by_another_line_stays_nan(self, monkeypatch):
        # on the path slack - 1 - 2 (load) both lines are bridges that strand
        # the load.  Swapping the kernel's two angle columns hands each line
        # the other's split, which the other line alone crosses.
        spec = GridSpec(
            buses=(0, 1, 2),
            lines=(LineSpec(0, 0, 1, 2.0, 1.0), LineSpec(1, 1, 2, 3.0, 1.0)),
            generators=(GenSpec(0, 0, 0.0, 2.0, 0.5),),
            loads=(LoadSpec(0, 2, 1.0),),
            slack_bus=0,
        )
        state = env.reset(spec, EnvConfig(), seed=0)
        grid.outage_peaks.cache_clear()
        assert (shield.lookahead(state, spec)[1:] == np.inf).all()
        solve = grid._solve_reduced
        monkeypatch.setattr(
            grid,
            "_solve_reduced",
            lambda topo, rhs: solve(topo, rhs)[:, ::-1] if rhs.ndim == 2 else solve(topo, rhs),
        )
        # the swapped columns give H_kk = 0; screen every column as a bridge
        monkeypatch.setattr(grid, "BRIDGE_SCREEN", 2.0)
        grid.outage_peaks.cache_clear()
        try:
            assert np.isnan(shield.lookahead(state, spec)[1:]).all()
        finally:
            grid.outage_peaks.cache_clear()


def _brute_force_component_count(spec, status) -> int:
    adj = {b: set() for b in spec.buses}
    for ell, line in enumerate(spec.lines):
        if status[ell]:
            adj[line.from_bus].add(line.to_bus)
            adj[line.to_bus].add(line.from_bus)
    seen = set()
    count = 0
    for start in spec.buses:
        if start in seen:
            continue
        count += 1
        stack = [start]
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            stack.extend(adj[b] - seen)
    return count
