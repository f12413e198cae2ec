"""Wrappers the benchmark installs on the program's module attributes.

`Recorder` times every `agent.act` call, hands each episode's transitions
to a check as soon as the episode ends (then drops them) and reads the
host's speed at each episode start.  `Tracer` records a span
around each wrapped public function (name, start, end, parent) and
accumulates calls, total and self time per name.  Both patch module
attributes, which is how the program's modules call one another, and
`uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

import numpy as np

from .checks import Episode, Step


class _Patches:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module: str, attr: str, make):
        mod = importlib.import_module(module)
        orig = getattr(mod, attr)
        self._saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


PROBE_LOOP = 5000  # iterations of the host-speed probe, about 0.3 ms


def host_probe_ns() -> int:
    """Time a fixed pure-Python loop: a reading of how fast the host runs
    Python right now, whatever the program's own state."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return perf_counter_ns() - t0


class Recorder(_Patches):
    """Decision timer around `agent.act`, the transition log, and a host
    probe reading at each `environment.reset`.

    An episode's transitions are kept only until it ends: then `finish(ep,
    i)` (i counts the episodes since the last `take_episodes`) runs on them
    and only what it returns is kept, so the log holds one episode at a
    time.  The default `finish` keeps the whole episode.  The probes' and
    `finish`'s time is kept in `excluded_ns` so the caller can leave it out
    of the timed region."""

    def __init__(self):
        super().__init__()
        self.latency_ns = array("q")
        # The controller of each decision, as an index into `controllers`.
        self.latency_controller = array("B")
        self.controllers: dict = {}
        self.probe_ns = array("q")
        self.episodes: list = []
        self.finish = lambda ep, i: ep
        self.steps = 0
        self.excluded_ns = 0
        self._pending = None
        self._current: Episode | None = None

    def clock(self) -> int:
        """Nanoseconds with the excluded time taken out: the timed clock."""
        return perf_counter_ns() - self.excluded_ns

    def _close(self) -> None:
        """Hand the open episode to `finish`, outside the timed region."""
        ep, self._current = self._current, None
        if ep is not None:
            t0 = perf_counter_ns()
            self.episodes.append(self.finish(ep, len(self.episodes)))
            self.excluded_ns += perf_counter_ns() - t0

    def install(self) -> "Recorder":
        latency, controller, controllers = (
            self.latency_ns, self.latency_controller, self.controllers
        )

        def make_act(orig):
            def act(*args, **kwargs):
                t0 = perf_counter_ns()
                res = orig(*args, **kwargs)
                latency.append(perf_counter_ns() - t0)
                controller.append(controllers.setdefault(args[0], len(controllers)))
                self._pending = (args[2], res)
                return res

            return act

        def make_step(orig):
            def step(state, action, spec, config):
                out = orig(state, action, spec, config)
                pending = self._pending
                res = pending[1] if pending is not None and pending[0] is state else None
                self._pending = None
                if self._current is not None:
                    self._current.steps.append(Step(state, res, action, out))
                self.steps += 1
                if out.terminated:
                    self._close()
                return out

            return step

        def make_reset(orig):
            def reset(spec, config, seed):
                self._close()  # an episode that never terminated
                t0 = perf_counter_ns()
                self.probe_ns.append(host_probe_ns())
                self.excluded_ns += perf_counter_ns() - t0
                state = orig(spec, config, seed)
                self._current = Episode(state, [])
                return state

            return reset

        self.patch("gridshield.agent", "act", make_act)
        self.patch("gridshield.environment", "step", make_step)
        self.patch("gridshield.environment", "reset", make_reset)
        return self

    def take_episodes(self) -> list:
        """Hand over what `finish` kept of the episodes ended so far (closing
        one still open) and forget them."""
        self._close()
        eps, self.episodes = self.episodes, []
        return eps


# Public functions the traced run wraps: (span name, module, attribute).
# `grid.factor` is scipy's lu_factor as the grid module calls it.
TRACED = (
    ("grid.solve", "gridshield.grid", "solve_dc_power_flow"),
    ("grid.factor", "gridshield.grid", "lu_factor"),
    ("environment.reset", "gridshield.environment", "reset"),
    ("environment.step", "gridshield.environment", "step"),
    ("environment.solve_state", "gridshield.environment", "solve_state"),
    ("shield.predict", "gridshield.shield", "predict"),
    ("shield.project", "gridshield.shield", "project"),
    ("shield.cbf_mask", "gridshield.shield", "cbf_mask"),
    ("agent.act", "gridshield.agent", "act"),
    ("agent.ground", "gridshield.agent", "ground_action"),
    ("agent.features", "gridshield.agent", "extract_features"),
    ("agent.forward", "gridshield.agent", "policy_logits"),
    ("training.train", "gridshield.training", "train"),
    ("training.rollout", "gridshield.training", "rollout"),
    ("training.update", "gridshield.training", "policy_gradient_update"),
    ("harness.run_episode", "gridshield.harness", "run_episode"),
)


class Tracer(_Patches):
    """Spans kept in memory, written out once at the end.  Spans are timed
    on `clock`; the benchmark passes the Recorder's timed clock, so the
    checks and probes that run inside a span do not count in it."""

    def __init__(self, clock=perf_counter_ns):
        super().__init__()
        self.clock = clock
        self.names = [name for name, _, _ in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]

    def install(self) -> "Tracer":
        for nid, (_, module, attr) in enumerate(TRACED):
            self.patch(module, attr, lambda orig, nid=nid: self._wrap(nid, orig))
        return self

    def _wrap(self, nid: int, fn):
        stack = self._stack
        names, parents, starts, ends = (
            self.span_name, self.span_parent, self.span_start, self.span_end,
        )
        calls, total, self_ns = self.calls, self.total_ns, self.self_ns
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total[nid] += dur
                self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return traced

    def calls_under(self, child: str, parent: str) -> int:
        """Spans of `child` whose direct parent is a `parent` span."""
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        c, p = self.names.index(child), self.names.index(parent)
        sel = parents[names == c]
        sel = sel[sel >= 0]
        return int(np.count_nonzero(names[sel] == p))

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
