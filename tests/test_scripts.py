import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scenario_report_runs_on_builtin_grids(capsys):
    _load("scenario_report").main()
    out = capsys.readouterr().out
    for name in ("toy5", "train14", "large36"):
        assert f"=== {name}:" in out
    assert out.count("single-disconnect effects") == 3
