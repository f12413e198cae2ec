"""Experiment orchestration: grid/policy file I/O, seeded episode runner,
evaluation suites and report emission.

Every suite runs episode i with seed base_seed + i, trains learned variants
on train14 only (evaluation grids may differ, which is what the transfer
protocol exercises) and aggregates in deterministic seed order, so identical
configurations produce byte-identical per-episode records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from . import agent as agent_mod
from . import grid as grid_mod
from . import training
from .agent import AgentVariant, PolicyParams, VARIANT_SHIELD_MODE
from .environment import EnvConfig
from .grid import GenSpec, GridSpec, LineSpec, LoadSpec
from .grids import BUILTIN_NAMES, builtin_grid
from .shield import ShieldConfig, ShieldMode
from .training import TrainConfig

POLICY_MAGIC = b"GSPOLICY"
POLICY_VERSION = 1

# Shield-only proposes uniformly at random; every other variant has a policy.
LEARNED_VARIANTS = frozenset(AgentVariant) - {AgentVariant.SHIELD_ONLY}

TRAIN_GRID = "train14"

SUITE_KINDS = ("nominal", "stress", "cbf_compare", "ablation", "transfer")

SUITE_VARIANTS = {
    "nominal": (
        AgentVariant.FLAT,
        AgentVariant.SHIELD_ONLY,
        AgentVariant.HIERARCHY_ONLY,
        AgentVariant.HIERARCHY_SHIELD,
    ),
    "stress": (
        AgentVariant.FLAT,
        AgentVariant.SHIELD_ONLY,
        AgentVariant.HIERARCHY_SHIELD,
    ),
    "cbf_compare": (AgentVariant.HIERARCHY_SHIELD, AgentVariant.HIERARCHY_CBF),
    "ablation": (
        AgentVariant.FLAT,
        AgentVariant.SHIELD_ONLY,
        AgentVariant.HIERARCHY_ONLY,
        AgentVariant.HIERARCHY_CBF,
    ),
    "transfer": (AgentVariant.HIERARCHY_SHIELD,),
}

SUITE_EPISODES = {
    "nominal": 30,
    "stress": 20,
    "cbf_compare": 20,
    "ablation": 20,
    "transfer": 20,
}

# Suites that force stress mode on (nominal/ablation/transfer honour the
# caller's env config instead).
SUITE_FORCES_STRESS = {"nominal": False, "stress": True, "cbf_compare": True}

VARIANT_LABELS = {
    AgentVariant.FLAT: "Flat",
    AgentVariant.SHIELD_ONLY: "Shield Only",
    AgentVariant.HIERARCHY_ONLY: "Hierarchy Only",
    AgentVariant.HIERARCHY_SHIELD: "Hierarchy + Shield",
    AgentVariant.HIERARCHY_CBF: "Hierarchy + CBF",
}
ABLATION_LABELS = {
    AgentVariant.FLAT: "Flat",
    AgentVariant.SHIELD_ONLY: "CBF Only",
    AgentVariant.HIERARCHY_ONLY: "Hierarchy Only",
    AgentVariant.HIERARCHY_CBF: "Hierarchy + CBF",
}


class GridFileError(ValueError):
    """Grid specification file failed to parse or validate."""


class PolicyVersionError(ValueError):
    """Policy file header does not match this package's format."""


class PolicyCorruptError(ValueError):
    """Policy file payload is truncated or shape-inconsistent."""


# ---------------------------------------------------------------------------
# Grid spec files (JSON: key/value with nested arrays)

# The component tables of a grid file, each a list of one dataclass's
# fields; a field's key is its name, but for a line's two ends.
_GRID_TABLES = (("lines", LineSpec), ("generators", GenSpec), ("loads", LoadSpec))
_GRID_KEYS = {"from_bus": "from", "to_bus": "to"}


def grid_spec_to_dict(spec: GridSpec) -> dict:
    doc = {"buses": list(spec.buses), "slack_bus": spec.slack_bus}
    for table, cls in _GRID_TABLES:
        doc[table] = [
            {_GRID_KEYS.get(f.name, f.name): getattr(item, f.name) for f in dataclasses.fields(cls)}
            for item in getattr(spec, table)
        ]
    return doc


def save_grid_spec(spec: GridSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(grid_spec_to_dict(spec), indent=2, sort_keys=True))


def load_grid_spec(path: str | Path) -> GridSpec:
    """Parse and validate a grid file; errors name the offending field."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise GridFileError(f"{path}: cannot read: {e.strerror or e}") from e
    except ValueError as e:  # malformed JSON or undecodable bytes
        raise GridFileError(f"{path}: malformed document: {e}") from e

    def need(obj: dict, key: str, where: str):
        if key not in obj:
            raise GridFileError(f"{path}: {where}: missing field {key!r}")
        return obj[key]

    def parse(item: dict, cls, where: str):
        return cls(**{
            name: kind(need(item, _GRID_KEYS.get(name, name), where))
            for name, kind in get_type_hints(cls).items()
        })

    try:
        buses = tuple(int(b) for b in need(doc, "buses", "top level"))
        slack = int(need(doc, "slack_bus", "top level"))
        tables = {
            table: tuple(
                parse(item, cls, f"{table}[{i}]")
                for i, item in enumerate(need(doc, table, "top level"))
            )
            for table, cls in _GRID_TABLES
        }
    except GridFileError:
        raise
    except (TypeError, ValueError) as e:
        raise GridFileError(f"{path}: bad field value: {e}") from e

    spec = GridSpec(buses=buses, slack_bus=slack, **tables)
    violations = grid_mod.validate_spec(spec)
    if violations:
        raise GridFileError(f"{path}: invalid grid: " + "; ".join(violations))
    return spec


def resolve_grid(name_or_path: str) -> GridSpec:
    if name_or_path in BUILTIN_NAMES:
        return builtin_grid(name_or_path)
    return load_grid_spec(name_or_path)


# ---------------------------------------------------------------------------
# Policy files: magic, version, layer dims, abstract set size, float64 data

def save_policy(params: PolicyParams, path: str | Path) -> None:
    dims = params.shape
    header = POLICY_MAGIC + struct.pack(
        "<IIIIIII", POLICY_VERSION, len(dims), *dims, agent_mod.N_ABSTRACT
    )
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in params.layers()
    )
    Path(path).write_bytes(header + payload)


def load_policy(path: str | Path) -> PolicyParams:
    """Bit-exact inverse of save_policy."""
    blob = Path(path).read_bytes()
    head_len = len(POLICY_MAGIC) + struct.calcsize("<IIIIIII")
    if len(blob) < head_len or blob[: len(POLICY_MAGIC)] != POLICY_MAGIC:
        raise PolicyVersionError(f"{path}: not a policy file (bad magic)")
    version, ndims, d0, d1, d2, d3, n_abstract = struct.unpack(
        "<IIIIIII", blob[len(POLICY_MAGIC) : head_len]
    )
    if version != POLICY_VERSION or ndims != 4:
        raise PolicyVersionError(f"{path}: unsupported policy version {version}")
    if n_abstract != agent_mod.N_ABSTRACT or d3 != agent_mod.N_ABSTRACT:
        raise PolicyVersionError(
            f"{path}: abstract action set size {n_abstract} does not match {agent_mod.N_ABSTRACT}"
        )
    dims = (d0, d1, d2, d3)
    # each layer's weights then biases, the order of PolicyParams' fields
    shapes = [shape for a, b in zip(dims, dims[1:]) for shape in ((a, b), (b,))]
    expected = sum(int(np.prod(s)) for s in shapes) * 8
    data = blob[head_len:]
    if len(data) != expected:
        raise PolicyCorruptError(
            f"{path}: payload is {len(data)} bytes, expected {expected}"
        )
    arrays = []
    offset = 0
    names = [f.name for f in dataclasses.fields(PolicyParams)]
    for name, s in zip(names, shapes):
        count = int(np.prod(s))
        array = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(s).copy()
        if not np.isfinite(array).all():
            raise PolicyCorruptError(f"{path}: {name} holds non-finite values")
        arrays.append(array)
        offset += count * 8
    return PolicyParams(*arrays)


# ---------------------------------------------------------------------------
# Episode runner

@dataclass(frozen=True)
class StepTrace:
    t: int
    action: str
    vetoed: bool
    max_rho: float
    margin: float
    predicted_rho_max: float
    last_resort: bool


@dataclass
class EpisodeRecord:
    seed: int
    variant: str
    grid: str
    steps: int
    reward: float
    max_rho: float
    mean_margin: float
    min_margin: float
    vetoes: int
    last_resort_count: int
    failure: str
    trace: list[StepTrace] | None = None

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if self.trace is None:
            del out["trace"]
        return out


def run_episode(
    spec: GridSpec,
    env_cfg: EnvConfig,
    variant: AgentVariant,
    params: PolicyParams | None,
    shield_cfg: ShieldConfig,
    seed: int,
    grid_name: str = "",
    retain_trace: bool = True,
) -> EpisodeRecord:
    """Summary of one agent.episode: totals, peaks and margins over its
    steps (the reset state's peak counts toward max_rho); no parameter
    updates."""
    total_reward = 0.0
    max_rho = None
    margins = []
    vetoes = 0
    last_resort = 0
    trace: list[StepTrace] | None = [] if retain_trace else None
    for state, res, outcome in agent_mod.episode(variant, params, spec, env_cfg, shield_cfg, seed):
        if max_rho is None:
            max_rho = float(state.last_solution.rho.max())
        step_max = float(outcome.rho.max())
        margin = 1.0 - step_max
        total_reward += outcome.reward
        max_rho = max(max_rho, step_max)
        margins.append(margin)
        vetoes += int(res.decision.vetoed)
        last_resort += int(res.decision.last_resort)
        if trace is not None:
            trace.append(
                StepTrace(
                    t=outcome.next_state.t,
                    action=res.decision.executed.label(),
                    vetoed=res.decision.vetoed,
                    max_rho=step_max,
                    margin=margin,
                    predicted_rho_max=float(res.decision.predicted_rho_max),
                    last_resort=res.decision.last_resort,
                )
            )
    return EpisodeRecord(
        seed=seed,
        variant=variant.value,
        grid=grid_name,
        steps=outcome.next_state.t,
        reward=total_reward,
        max_rho=max_rho,
        mean_margin=float(np.mean(margins)),
        min_margin=float(np.min(margins)),
        vetoes=vetoes,
        last_resort_count=last_resort,
        failure=outcome.failure.value,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# Suites

@dataclass(frozen=True)
class RunConfig:
    grid: str = TRAIN_GRID
    rho_max: float = 0.98
    episodes: int | None = None
    base_seed: int = 0
    env: EnvConfig = EnvConfig()
    train: TrainConfig = TrainConfig()
    variants: tuple[AgentVariant, ...] | None = None
    retain_traces: bool = True


@dataclass
class VariantStats:
    label: str
    variant: str
    episodes: int
    mean_steps: float
    std_steps: float
    mean_reward: float
    std_reward: float
    mean_max_rho: float
    std_max_rho: float
    mean_vetoes: float
    std_vetoes: float
    mean_last_resort: float
    failures: dict[str, int]


@dataclass
class AggregateReport:
    suite: str
    train_grid: str
    eval_grid: str
    episode_count: int
    rows: list[VariantStats]
    records: list[EpisodeRecord]
    config_echo: dict
    provenance: str


def shield_config_for(variant: AgentVariant, rho_max: float) -> ShieldConfig:
    return ShieldConfig(mode=VARIANT_SHIELD_MODE[variant], rho_max=rho_max)


def _train_seed(base_seed: int, variant: AgentVariant) -> int:
    return base_seed + 100_000 + 7919 * list(AgentVariant).index(variant)


def train_params_for(
    variant: AgentVariant, run_cfg: RunConfig
) -> training.TrainResult | None:
    """Train a variant's policy on the training grid (nominal conditions)."""
    if variant not in LEARNED_VARIANTS:
        return None
    spec = builtin_grid(TRAIN_GRID)
    train_env = dataclasses.replace(run_cfg.env, stress_mode=False)
    return training.train(
        spec,
        train_env,
        run_cfg.train,
        shield_config_for(variant, run_cfg.rho_max),
        variant,
        _train_seed(run_cfg.base_seed, variant),
    )


def _aggregate(label: str, variant: AgentVariant, records: list[EpisodeRecord]) -> VariantStats:
    moments = {}
    for name in ("steps", "reward", "max_rho", "vetoes"):
        arr = np.array([getattr(r, name) for r in records], dtype=float)
        moments[f"mean_{name}"] = float(arr.mean())
        moments[f"std_{name}"] = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return VariantStats(
        label=label,
        variant=variant.value,
        episodes=len(records),
        **moments,
        mean_last_resort=float(np.mean([r.last_resort_count for r in records])),
        failures=dict(Counter(r.failure for r in records)),
    )


def _provenance(config_echo: dict) -> str:
    blob = json.dumps(config_echo, sort_keys=True) + __version__
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def run_suite(kind: str, run_cfg: RunConfig) -> AggregateReport:
    """Run one evaluation protocol and aggregate per-variant metrics.

    Learned variants are trained on train14 (nominal mode); the transfer
    suite then evaluates those very parameters on a different grid with no
    update step anywhere on the evaluation path.
    """
    if kind not in SUITE_KINDS:
        raise ValueError(f"unknown suite {kind!r}; expected one of {SUITE_KINDS}")

    eval_grid_name = run_cfg.grid
    if kind == "transfer" and eval_grid_name == TRAIN_GRID:
        eval_grid_name = "large36"
    eval_spec = resolve_grid(eval_grid_name)

    episodes = run_cfg.episodes if run_cfg.episodes is not None else SUITE_EPISODES[kind]
    if episodes < 1:
        raise ValueError("episode count must be >= 1")

    env_cfg = run_cfg.env
    if SUITE_FORCES_STRESS.get(kind) is not None:
        env_cfg = dataclasses.replace(env_cfg, stress_mode=SUITE_FORCES_STRESS[kind])

    variants = run_cfg.variants if run_cfg.variants is not None else SUITE_VARIANTS[kind]
    labels = ABLATION_LABELS if kind == "ablation" else VARIANT_LABELS

    rows: list[VariantStats] = []
    records: list[EpisodeRecord] = []
    for variant in variants:
        trained = train_params_for(variant, run_cfg)
        params = trained.params if trained is not None else None
        shield_cfg = shield_config_for(variant, run_cfg.rho_max)
        variant_records = [
            run_episode(
                eval_spec,
                env_cfg,
                variant,
                params,
                shield_cfg,
                run_cfg.base_seed + i,
                grid_name=eval_grid_name,
                retain_trace=run_cfg.retain_traces,
            )
            for i in range(episodes)
        ]
        rows.append(_aggregate(labels[variant], variant, variant_records))
        records.extend(variant_records)

    config_echo = {
        "suite": kind,
        "grid": eval_grid_name,
        "train_grid": TRAIN_GRID,
        "rho_max": run_cfg.rho_max,
        "episodes": episodes,
        "base_seed": run_cfg.base_seed,
        "env": dataclasses.asdict(env_cfg),
        "train": dataclasses.asdict(run_cfg.train),
        "variants": [v.value for v in variants],
    }
    return AggregateReport(
        suite=kind,
        train_grid=TRAIN_GRID,
        eval_grid=eval_grid_name,
        episode_count=episodes,
        rows=rows,
        records=records,
        config_echo=config_echo,
        provenance=_provenance(config_echo),
    )


# ---------------------------------------------------------------------------
# Report emission

SUMMARY_HEADER = "Method,Avg. Steps,Avg. Max rho,Avg. Vetoes,Avg. Reward"


def write_report(report: AggregateReport, out_dir: str | Path) -> list[Path]:
    """Emit summary.csv, episodes.jsonl, config.json and report.json."""
    if not report.records:
        raise ValueError("refusing to write a report with no episode records")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary = out / "summary.csv"
    lines = [SUMMARY_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.label},{row.mean_steps:.2f},{row.mean_max_rho:.2f},"
            f"{row.mean_vetoes:.2f},{row.mean_reward:.2f}"
        )
    summary.write_text("\n".join(lines) + "\n")

    episodes = out / "episodes.jsonl"
    with episodes.open("w") as fh:
        for rec in report.records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True) + "\n")

    config = out / "config.json"
    config.write_text(
        json.dumps(
            {"config": report.config_echo, "provenance": report.provenance},
            indent=2,
            sort_keys=True,
        )
    )

    full = out / "report.json"
    full.write_text(
        json.dumps(
            {
                "suite": report.suite,
                "train_grid": report.train_grid,
                "eval_grid": report.eval_grid,
                "episode_count": report.episode_count,
                "provenance": report.provenance,
                "rows": [dataclasses.asdict(r) for r in report.rows],
            },
            indent=2,
            sort_keys=True,
        )
    )
    return [summary, episodes, config, full]
