import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from gridshield import environment as env, harness
from gridshield.agent import AgentVariant, init_policy_params
from gridshield.environment import EnvConfig
from gridshield.grids import BUILTIN_NAMES, UnknownGridError, builtin_grid
from gridshield.grid import validate_spec
from gridshield.harness import (
    EpisodeRecord,
    RunConfig,
    load_grid_spec,
    load_policy,
    resolve_grid,
    run_episode,
    run_suite,
    save_grid_spec,
    save_policy,
    shield_config_for,
    write_report,
)
from gridshield.shield import ShieldConfig, ShieldMode
from gridshield.training import TrainConfig


FAST_TRAIN = TrainConfig(total_updates=2, episodes_per_update=2)


class TestBuiltinGrids:
    def test_sizes(self):
        expect = {"toy5": (5, 6), "train14": (14, 20), "large36": (36, 55)}
        for name, (n_buses, n_lines) in expect.items():
            spec = builtin_grid(name)
            assert (spec.n_buses, spec.n_lines) == (n_buses, n_lines)

    def test_all_validate(self):
        for name in BUILTIN_NAMES:
            assert validate_spec(builtin_grid(name)) == []

    def test_unknown_name(self):
        with pytest.raises(UnknownGridError):
            builtin_grid("case118")

    def test_train14_action_count(self):
        spec = builtin_grid("train14")
        actions = env.enumerate_actions(spec, EnvConfig(redispatch_enabled=False))
        assert len(actions) == 41

    def test_base_dispatch_loading_band(self):
        for name in BUILTIN_NAMES:
            spec = builtin_grid(name)
            state = env.reset(spec, EnvConfig(load_noise_sigma=0.0), seed=0)
            max_rho = float(state.last_solution.rho.max())
            assert 0.5 <= max_rho <= 0.7

    def test_deterministic_construction(self):
        a, b = builtin_grid("large36"), builtin_grid("large36")
        assert a == b


# A 3-bus chain: positive, finite susceptances, but 1e-13 next to 1.0
# leaves the intact grid's reduced susceptance matrix singular.
SINGULAR_CHAIN = {
    "buses": [0, 1, 2],
    "slack_bus": 0,
    "lines": [
        {"id": 0, "from": 0, "to": 1, "susceptance": 1.0, "thermal_limit": 1.0},
        {"id": 1, "from": 1, "to": 2, "susceptance": 1e-13, "thermal_limit": 1.0},
    ],
    "generators": [{"id": 0, "bus": 0, "p_min": 0.0, "p_max": 2.0, "ramp_limit": 0.5}],
    "loads": [{"id": 0, "bus": 2, "base_demand": 0.5}],
}


class TestGridFiles:
    def test_round_trip(self, tmp_path, train14):
        p = tmp_path / "grid.json"
        save_grid_spec(train14, p)
        assert load_grid_spec(p) == train14

    def test_missing_slack_named(self, tmp_path, toy5):
        doc = harness.grid_spec_to_dict(toy5)
        del doc["slack_bus"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(harness.GridFileError, match="slack_bus"):
            load_grid_spec(p)

    def test_malformed_document(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(harness.GridFileError, match="malformed"):
            load_grid_spec(p)

    def test_invalid_grid_rejected(self, tmp_path, toy5):
        doc = harness.grid_spec_to_dict(toy5)
        doc["lines"][0]["thermal_limit"] = 0.0
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(harness.GridFileError, match="thermal_limit"):
            load_grid_spec(p)

    @pytest.mark.parametrize(
        "section, field, value",
        [("loads", "base_demand", "NaN"), ("lines", "susceptance", "Infinity")],
    )
    def test_non_finite_number_rejected(self, tmp_path, toy5, section, field, value):
        # Python's JSON parser accepts NaN and Infinity literals
        doc = harness.grid_spec_to_dict(toy5)
        doc[section][0][field] = float(value.replace("Infinity", "inf"))
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        assert value in p.read_text()
        with pytest.raises(harness.GridFileError, match=field):
            load_grid_spec(p)

    def test_singular_grid_rejected(self, tmp_path):
        p = tmp_path / "singular.json"
        p.write_text(json.dumps(SINGULAR_CHAIN))
        with pytest.raises(harness.GridFileError, match="invalid grid: singular"):
            load_grid_spec(p)

    def test_undeclared_bus_rejected(self, tmp_path, toy5):
        doc = harness.grid_spec_to_dict(toy5)
        doc["lines"][0]["to"] = 99
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(harness.GridFileError, match="endpoint not a declared bus"):
            load_grid_spec(p)

    def test_missing_field_reported_once(self, tmp_path, toy5):
        doc = harness.grid_spec_to_dict(toy5)
        del doc["buses"]
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(harness.GridFileError) as info:
            load_grid_spec(p)
        assert str(info.value) == f"{p}: top level: missing field 'buses'"

    def test_missing_path_is_a_grid_file_error(self, tmp_path):
        with pytest.raises(harness.GridFileError, match="cannot read"):
            load_grid_spec(tmp_path / "nosuch.json")

    @pytest.mark.parametrize(
        "renumber", [lambda i, n: n - 1 - i, lambda i, n: i + 100], ids=["reversed", "offset"]
    )
    def test_line_ids_must_be_positions(self, tmp_path, train14, renumber):
        # the kernel and Action.line index with the id: reversed ids would
        # score one line and cut another, offset ids would index past the end
        doc = harness.grid_spec_to_dict(train14)
        for i, line in enumerate(doc["lines"]):
            line["id"] = renumber(i, len(doc["lines"]))
        p = tmp_path / "renumbered.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(harness.GridFileError, match="line ids must be 0..19 in order"):
            load_grid_spec(p)

    def test_resolve_builtin_or_path(self, tmp_path, toy5):
        assert resolve_grid("toy5") == toy5
        p = tmp_path / "g.json"
        save_grid_spec(toy5, p)
        assert resolve_grid(str(p)) == toy5


class TestPolicyFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_policy_params(11)
        p = tmp_path / "pol.bin"
        save_policy(params, p)
        loaded = load_policy(p)
        for a, b in zip(params.layers(), loaded.layers()):
            assert a.dtype == b.dtype == np.float64
            assert np.array_equal(a, b)

    def test_truncated_file_corrupt(self, tmp_path):
        params = init_policy_params(0)
        p = tmp_path / "pol.bin"
        save_policy(params, p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(harness.PolicyCorruptError):
            load_policy(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_corrupt(self, tmp_path, value):
        params = init_policy_params(0)
        params.b2[3] = value
        p = tmp_path / "pol.bin"
        save_policy(params, p)
        with pytest.raises(harness.PolicyCorruptError, match="b2"):
            load_policy(p)

    def test_bad_magic_version_error(self, tmp_path):
        p = tmp_path / "pol.bin"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(harness.PolicyVersionError):
            load_policy(p)

    def test_wrong_abstract_set_size(self, tmp_path):
        import struct

        params = init_policy_params(0)
        p = tmp_path / "pol.bin"
        save_policy(params, p)
        blob = bytearray(p.read_bytes())
        # abstract-set size lives in the last header word
        offset = len(harness.POLICY_MAGIC) + struct.calcsize("<IIIIII")
        blob[offset : offset + 4] = struct.pack("<I", 9)
        p.write_bytes(bytes(blob))
        with pytest.raises(harness.PolicyVersionError, match="abstract"):
            load_policy(p)


class TestRunEpisode:
    def test_same_seed_identical_record(self, train14):
        cfg = EnvConfig()
        shield_cfg = shield_config_for(AgentVariant.SHIELD_ONLY, 0.98)
        a = run_episode(train14, cfg, AgentVariant.SHIELD_ONLY, None, shield_cfg, 9, "train14")
        b = run_episode(train14, cfg, AgentVariant.SHIELD_ONLY, None, shield_cfg, 9, "train14")
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )

    def test_learned_variant_requires_params(self, train14):
        with pytest.raises(ValueError):
            run_episode(
                train14,
                EnvConfig(),
                AgentVariant.FLAT,
                None,
                shield_config_for(AgentVariant.FLAT, 0.98),
                0,
            )

    def test_time_limit_episode(self, train14):
        params = init_policy_params(0)
        cfg = EnvConfig(horizon=30)
        rec = run_episode(
            train14,
            cfg,
            AgentVariant.HIERARCHY_SHIELD,
            params,
            shield_config_for(AgentVariant.HIERARCHY_SHIELD, 0.98),
            3,
            "train14",
        )
        assert rec.steps <= 30
        if rec.steps == 30:
            assert rec.failure == "time_limit"
        assert rec.trace is not None and len(rec.trace) == rec.steps

    def test_shielded_steps_respect_threshold(self, train14):
        params = init_policy_params(1)
        cfg = EnvConfig(stress_mode=True, horizon=60)
        shield_cfg = shield_config_for(AgentVariant.HIERARCHY_SHIELD, 0.98)
        rec = run_episode(
            train14, cfg, AgentVariant.HIERARCHY_SHIELD, params, shield_cfg, 5, "train14"
        )
        for stepinfo in rec.trace:
            assert stepinfo.last_resort or stepinfo.predicted_rho_max <= 0.98 + 1e-12


class TestSuites:
    def test_suite_seed_discipline_and_rows(self, tmp_path):
        run_cfg = RunConfig(
            grid="train14",
            episodes=2,
            base_seed=100,
            train=FAST_TRAIN,
            env=EnvConfig(horizon=20),
            variants=(AgentVariant.SHIELD_ONLY, AgentVariant.HIERARCHY_SHIELD),
        )
        report = run_suite("stress", run_cfg)
        assert [r.variant for r in report.rows] == ["shield_only", "hierarchy_shield"]
        per_variant_seeds = {}
        for rec in report.records:
            per_variant_seeds.setdefault(rec.variant, []).append(rec.seed)
        for seeds in per_variant_seeds.values():
            assert seeds == [100, 101]

    def test_suite_rerun_byte_identical(self):
        run_cfg = RunConfig(
            grid="toy5",
            episodes=2,
            base_seed=3,
            train=FAST_TRAIN,
            env=EnvConfig(horizon=15),
            variants=(AgentVariant.HIERARCHY_SHIELD,),
        )
        lines = []
        for _ in range(2):
            report = run_suite("nominal", run_cfg)
            lines.append(
                [json.dumps(r.to_json_dict(), sort_keys=True) for r in report.records]
            )
        assert lines[0] == lines[1]

    def test_ablation_rows(self):
        run_cfg = RunConfig(
            grid="toy5",
            episodes=1,
            train=FAST_TRAIN,
            env=EnvConfig(horizon=10),
        )
        report = run_suite("ablation", run_cfg)
        assert [r.label for r in report.rows] == [
            "Flat",
            "CBF Only",
            "Hierarchy Only",
            "Hierarchy + CBF",
        ]

    def test_transfer_grids_differ(self):
        run_cfg = RunConfig(
            grid="train14",  # coerced to large36
            episodes=1,
            train=FAST_TRAIN,
            env=EnvConfig(horizon=10),
        )
        report = run_suite("transfer", run_cfg)
        assert report.train_grid == "train14"
        assert report.eval_grid == "large36"
        assert report.eval_grid != report.train_grid

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("everything", RunConfig())


class TestWriteReport:
    def _tiny_report(self):
        run_cfg = RunConfig(
            grid="toy5",
            episodes=2,
            train=FAST_TRAIN,
            env=EnvConfig(horizon=10),
            variants=(AgentVariant.SHIELD_ONLY,),
        )
        return run_suite("nominal", run_cfg)

    def test_files_and_summary_columns(self, tmp_path):
        report = self._tiny_report()
        paths = write_report(report, tmp_path)
        assert [p.name for p in paths] == [
            "summary.csv",
            "episodes.jsonl",
            "config.json",
            "report.json",
        ]
        header = (tmp_path / "summary.csv").read_text().splitlines()[0]
        assert header == "Method,Avg. Steps,Avg. Max rho,Avg. Vetoes,Avg. Reward"

    def test_summary_matches_records(self, tmp_path):
        report = self._tiny_report()
        write_report(report, tmp_path)
        rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
        records = [
            json.loads(line)
            for line in (tmp_path / "episodes.jsonl").read_text().splitlines()
        ]
        steps = np.mean([r["steps"] for r in records])
        assert rows[0].split(",")[1] == f"{steps:.2f}"

    def test_empty_report_rejected(self, tmp_path):
        report = self._tiny_report()
        report.records = []
        with pytest.raises(ValueError):
            write_report(report, tmp_path)

    def test_rerun_byte_identical_files(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            report = self._tiny_report()
            out = tmp_path / sub
            write_report(report, out)
            blobs.append((out / "episodes.jsonl").read_bytes())
        assert blobs[0] == blobs[1]


class TestCli:
    def test_validate_grid_builtin(self, capsys):
        from gridshield.cli import main

        assert main(["validate-grid", "--grid", "train14"]) == 0
        out = capsys.readouterr().out
        assert "14 buses" in out

    def test_validate_grid_bad_file(self, tmp_path, capsys):
        from gridshield.cli import main

        p = tmp_path / "bad.json"
        p.write_text("{...")
        assert main(["validate-grid", "--grid", str(p)]) == 1

    @pytest.mark.parametrize("command", ["validate-grid", "eval"])
    def test_missing_grid_file_is_invalid(self, tmp_path, capsys, command):
        from gridshield.cli import main

        assert main([command, "--grid", str(tmp_path / "nosuch.json")]) == 1
        assert capsys.readouterr().err.startswith("invalid: ")

    @pytest.mark.parametrize(
        "flag, value",
        [("--episodes", "0"), ("--horizon", "0"), ("--updates", "0"),
         ("--episodes-per-update", "-1"), ("--rho-max", "nan"), ("--rho-max", "-0.5"),
         ("--sigma", "inf"), ("--sigma", "-0.01"), ("--seed", "-1"), ("--stress-step", "-3")],
    )
    def test_out_of_range_numbers_are_usage_errors(self, capsys, flag, value):
        from gridshield.cli import main

        with pytest.raises(SystemExit) as info:
            main(["eval", flag, value])
        assert info.value.code == 2
        assert f"argument {flag}: must be a finite number" in capsys.readouterr().err

    def test_out_defaults_to_environment(self, tmp_path, monkeypatch):
        from gridshield.cli import main

        monkeypatch.setenv("GRIDSHIELD_OUT", str(tmp_path))
        argv = ["stress", "--grid", "toy5", "--variant", "shield_only", "--episodes", "1",
                "--horizon", "5"]
        assert main(argv) == 0
        assert (tmp_path / "stress" / "episodes.jsonl").exists()

    def test_validate_grid_singular_file(self, tmp_path, capsys):
        from gridshield.cli import main

        p = tmp_path / "singular.json"
        p.write_text(json.dumps(SINGULAR_CHAIN))
        assert main(["validate-grid", "--grid", str(p)]) == 1
        assert "singular" in capsys.readouterr().err

    def test_eval_suite_writes_outputs(self, tmp_path):
        from gridshield.cli import main

        rc = main(
            [
                "eval",
                "--grid",
                "toy5",
                "--variant",
                "shield_only",
                "--episodes",
                "2",
                "--horizon",
                "10",
                "--updates",
                "1",
                "--episodes-per-update",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "nominal" / "summary.csv").exists()
        assert (tmp_path / "nominal" / "episodes.jsonl").exists()

    def test_train_logs_margin_return(self, tmp_path, capsys):
        from gridshield.cli import main

        rc = main(
            [
                "train",
                "--horizon",
                "10",
                "--updates",
                "2",
                "--episodes-per-update",
                "2",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "training_hierarchy_shield.csv").read_text().splitlines()
        assert lines[0] == "update,mean_return,margin_return,grad_norm"
        assert len(lines) == 3
        for line in lines[1:]:
            _, ret, margin, _ = (float(v) for v in line.split(","))
            # ten surviving steps at gamma 0.99 carry sum(0.99^t) of bonus
            assert ret - margin == pytest.approx(sum(0.99**t for t in range(10)))
        assert "margin return" in capsys.readouterr().out


GOLDEN = Path(__file__).parent / "data"


class TestGoldenRecords:
    """Per-episode records of small stress, transfer, ablation and
    cbf_compare runs, committed as the CLI wrote them; any change to a solve,
    a prediction, a decision or the training path that feeds them shows up
    as a byte difference.  Together they pin all five variants."""

    # suite -> (command line before the shared flags, records' directory)
    COMMANDS = {
        "stress": (["stress"], "stress"),
        "transfer": (["transfer"], "transfer"),
        "ablation": (["ablate"], "ablation/stress"),
        "cbf_compare": (["eval", "--suite", "cbf_compare", "--horizon", "60"], "cbf_compare"),
    }

    @pytest.mark.parametrize(
        "suite, grid, golden",
        [
            ("stress", "train14", "golden_stress_train14.jsonl"),
            ("transfer", "large36", "golden_transfer_large36.jsonl"),
            ("ablation", "train14", "golden_ablation_stress_train14.jsonl"),
            ("cbf_compare", "large36", "golden_cbf_compare_large36.jsonl"),
        ],
    )
    def test_records_match_golden(self, tmp_path, suite, grid, golden):
        from gridshield.cli import main

        command, records_dir = self.COMMANDS[suite]
        argv = command + ["--grid", grid, "--updates", "2", "--episodes-per-update", "2",
                          "--episodes", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        written = (tmp_path / records_dir / "episodes.jsonl").read_bytes()
        assert written == (GOLDEN / golden).read_bytes()
