import importlib.util
import json
import pathlib

from weakkam import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _artifacts_tool():
    return _tool("artifacts")


def test_every_artifact_config_loads(tmp_path):
    configs = _artifacts_tool().configs()
    assert len(configs) == 25
    for cid, config in configs.items():
        path = tmp_path / f"{cid}.json"
        path.write_text(json.dumps(config))
        assert cli.load_config(str(path)).command == config["command"]


def test_exit_code_table_names_configs_of_the_set():
    tool = _artifacts_tool()
    assert set(tool.EXIT_CODES) <= set(tool.configs())
    assert all(code != 0 for code in tool.EXIT_CODES.values())


def test_artdiff_reports_the_largest_move_of_each_differing_artifact(tmp_path, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    for root, last, extra in ((base, "0.5", "x"), (head, "0.5000000000001", "y")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.csv").write_text("# n=64\nt,u\n0.1,2.0\n")
        (root / "run" / "moved.csv").write_text(f"# n=64\nt,u\n0.1,-2.0\n0.2,{last}\n")
        (root / "run" / "text.json").write_text(f'{{"verdict": "{extra}"}}')
    (head / "run" / "new.csv").write_text("1\n")
    assert _tool("artdiff").main([str(base), str(head)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "run/moved.csv: 1 of 4 numbers differ, max abs 1e-13, max rel 2e-13"
    assert lines[1:] == ["run/new.csv: only in HEAD", "run/text.json: differs outside its numbers"]
    assert _tool("artdiff").main([str(base), str(base)]) == 0
    assert capsys.readouterr().out == "No artifact differs.\n"


def test_artdiff_sets_header_only_moves_apart_and_counts_rows(tmp_path, capsys):
    # a changed default moves every header; only files whose data moved lead the report
    base, head = tmp_path / "base", tmp_path / "head"
    for root, dt, rows, slope in ((base, "0.001", 4, -1.003), (head, "0.004", 1, -1.0)):
        (root / "run").mkdir(parents=True)
        header = f'# numerics={{"dt": {dt}}}\n'
        (root / "run" / "a.csv").write_text(header + "x,u\n0,1.5\n")
        (root / "run" / "decay.csv").write_text(header + "t,dev\n" + "0.1,2\n" * rows)
        (root / "run" / "report.json").write_text(json.dumps(
            {"config": {"numerics": f'{{"dt": {dt}}}'}, "report": {"verdict": "holds"}},
            indent=2))
        (root / "run" / "slope.json").write_text(json.dumps(
            {"config": {"numerics": '{"dt": 0.005}'}, "report": {"slope": slope}}, indent=2))
    assert _tool("artdiff").main([str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run/decay.csv: rows 5 -> 2; header differs",
        "run/slope.json: 1 of 1 numbers differ, max abs 0.003, max rel 0.00299",
        "run/a.csv: header only",
        "run/report.json: header only",
    ]
