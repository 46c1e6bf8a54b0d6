import importlib.util
import json
import pathlib

from weakkam import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _artifacts_tool():
    spec = importlib.util.spec_from_file_location("artifacts", ROOT / "tools" / "artifacts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_artifact_config_loads(tmp_path):
    configs = _artifacts_tool().configs()
    assert len(configs) == 23
    for cid, config in configs.items():
        path = tmp_path / f"{cid}.json"
        path.write_text(json.dumps(config))
        assert cli.load_config(str(path)).command == config["command"]


def test_exit_code_table_names_configs_of_the_set():
    tool = _artifacts_tool()
    assert set(tool.EXIT_CODES) <= set(tool.configs())
    assert all(code != 0 for code in tool.EXIT_CODES.values())
