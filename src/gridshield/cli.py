"""Command-line entry points.

Subcommands map one-to-one onto the evaluation protocols: train, eval
(nominal or cbf_compare), stress, ablate (both load conditions), transfer,
and validate-grid.  Output directory defaults to $GRIDSHIELD_OUT or ./runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import environment as env
from . import harness, training
from .agent import AgentVariant
from .harness import RunConfig, run_suite, write_report
from .training import TrainConfig

VARIANT_CHOICES = {v.value: v for v in AgentVariant}


def _at_least(kind: type, low: float):
    """argparse type: a finite `kind` number no smaller than `low`."""

    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    count, whole, nonnegative = _at_least(int, 1), _at_least(int, 0), _at_least(float, 0.0)
    p.add_argument("--grid", default="train14", help="builtin grid name or spec file path")
    p.add_argument("--variant", choices=sorted(VARIANT_CHOICES), default=None,
                   help="restrict the suite to a single variant")
    p.add_argument("--rho-max", type=nonnegative, default=0.98,
                   help="shield admissibility threshold")
    p.add_argument("--seed", type=whole, default=0, help="base seed; episode i uses seed+i")
    p.add_argument("--episodes", type=count, default=None, help="episode count override")
    p.add_argument("--horizon", type=count, default=200)
    p.add_argument("--sigma", type=nonnegative, default=0.02, help="load noise std")
    p.add_argument("--stress-step", type=whole, default=10)
    p.add_argument("--updates", type=count, default=200, help="training updates")
    p.add_argument("--episodes-per-update", type=count, default=4)
    p.add_argument("--no-traces", action="store_true", help="drop per-step traces from records")
    p.add_argument("--out", default=os.environ.get("GRIDSHIELD_OUT", "runs"),
                   help="output directory (default $GRIDSHIELD_OUT, else ./runs)")


def _run_config(args, stress: bool = False) -> RunConfig:
    return RunConfig(
        grid=args.grid,
        rho_max=args.rho_max,
        episodes=args.episodes,
        base_seed=args.seed,
        env=env.EnvConfig(
            horizon=args.horizon,
            load_noise_sigma=args.sigma,
            stress_mode=stress,
            stress_outage_step=args.stress_step,
        ),
        train=TrainConfig(
            total_updates=args.updates,
            episodes_per_update=args.episodes_per_update,
        ),
        variants=(VARIANT_CHOICES[args.variant],) if args.variant else None,
        retain_traces=not args.no_traces,
    )


def _emit(report, out_dir) -> None:
    paths = write_report(report, out_dir)
    print(f"suite {report.suite} on {report.eval_grid} ({report.episode_count} episodes, "
          f"provenance {report.provenance})")
    for row in report.rows:
        print(f"  {row.label:20s} steps {row.mean_steps:7.2f}  max rho {row.mean_max_rho:5.2f}  "
              f"vetoes {row.mean_vetoes:6.2f}  reward {row.mean_reward:8.2f}")
    print("wrote " + ", ".join(str(p) for p in paths))


def cmd_train(args) -> int:
    run_cfg = _run_config(args)
    variant = VARIANT_CHOICES[args.variant or "hierarchy_shield"]
    result = harness.train_params_for(variant, run_cfg)
    if result is None:
        print(f"variant {variant.value} has no trainable policy", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    policy_path = out / f"policy_{variant.value}.bin"
    harness.save_policy(result.params, policy_path)
    log_path = out / f"training_{variant.value}.csv"
    rows = ["update,mean_return,margin_return,grad_norm"] + [
        f"{i},{r!r},{m!r},{g!r}"
        for i, (r, m, g) in enumerate(
            zip(result.mean_returns, result.margin_returns, result.grad_norms)
        )
    ]
    log_path.write_text("\n".join(rows) + "\n")
    window = min(10, max(1, len(result.mean_returns)))

    def lead_trail(values):
        return sum(values[:window]) / window, sum(values[-window:]) / window

    lead, trail = lead_trail(result.mean_returns)
    margin_lead, margin_trail = lead_trail(result.margin_returns)
    ratio = margin_trail / margin_lead if margin_lead else float("nan")
    print(f"trained {variant.value} on {harness.TRAIN_GRID}: "
          f"first-{window} return {lead:.1f}, last-{window} return {trail:.1f}; "
          f"first-{window} margin return {margin_lead:.1f}, last-{window} "
          f"{margin_trail:.1f}, ratio {ratio:.3f}")
    print(f"wrote {policy_path}, {log_path}")
    return 0


# Evaluation subcommands: help, suite (eval's comes from --suite) and the
# load conditions run, as (output subdirectory, stress mode).
SUITE_COMMANDS = {
    "eval": ("nominal (or cbf_compare) evaluation suite", None, (("", False),)),
    "stress": ("forced line-outage stress suite", "stress", (("", True),)),
    "ablate": (
        "four-variant ablation, nominal and stress",
        "ablation",
        (("nominal", False), ("stress", True)),
    ),
    "transfer": ("train on train14, evaluate zero-shot elsewhere", "transfer", (("", False),)),
}


def cmd_suite(args) -> int:
    _, suite, conditions = SUITE_COMMANDS[args.command]
    suite = suite or args.suite
    for condition, stress in conditions:
        run_cfg = _run_config(args, stress=stress)
        report = run_suite(suite, run_cfg)
        _emit(report, Path(args.out) / suite / condition)
    return 0


def cmd_validate_grid(args) -> int:
    spec = harness.resolve_grid(args.grid)
    print(f"ok: {spec.n_buses} buses, {spec.n_lines} lines, "
          f"{spec.n_gens} generators, {spec.n_loads} loads")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridshield",
        description="Safety-shielded hierarchical grid-control workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a policy and save it")
    _add_common(p)
    p.set_defaults(fn=cmd_train)

    for name, (help_text, suite, _) in SUITE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if suite is None:
            p.add_argument("--suite", choices=("nominal", "cbf_compare"), default="nominal")
        p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("validate-grid", help="check a grid file or builtin name")
    p.add_argument("--grid", required=True)
    p.set_defaults(fn=cmd_validate_grid)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.GridFileError as e:
        print(f"invalid: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
