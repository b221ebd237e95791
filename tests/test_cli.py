import json
import shlex
from pathlib import Path

import pytest

from bdts import cli, game


def test_demo_exits_zero(capsys):
    assert cli.main(["demo", "--slot", "512"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recovery"] is True


def test_unknown_verb_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "--no-such-flag"])
    assert exc.value.code == 2


def test_scenario_honest(capsys):
    assert cli.main(["scenario", "--profile", "aei", "--slot", "512"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert json.loads(line)["recovery"] is True


def test_scenario_cheater_still_checks_model(capsys):
    # a cheating profile still agrees with the enforced model, so exit 0
    assert cli.main(["scenario", "--profile", "cei", "--slot", "512"]) == 0


def test_scenario_underpaying_consumer_matches_model():
    assert cli.main(["scenario", "--profile", "afi", "--slot", "512"]) == 0


def test_scenario_checks_the_run_it_printed(capsys, monkeypatch):
    # a model under which nobody pays anything disagrees with the forfeit run
    monkeypatch.setattr(game, "token_flows", lambda *_: game.PayoffVector(0, 0, 0))
    argv = ["scenario", "--profile", "afi", "--slot", "512"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[0])["deltas"]["consumer"] < 0
    assert "model mismatch" in err


def test_game_verb_reports_spne(capsys):
    assert cli.main(["game", "--x", "10", "--y", "2"]) == 0
    assert "spne=aei" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["scenario", "--profile", "zzz"],
    ["scenario", "--profile", "aei", "--x", "25"],
    ["bench", "--providers", "7"],
])
def test_invalid_input_exits_two(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bench_verb_runs_a_small_download(capsys):
    argv = ["bench", "--size", "200000", "--slot", "20000", "--reps", "1",
            "--bandwidth", "0", "--providers", "2"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["recovery"] is True
    assert out["providers"] == 2


def test_matrix_prints_every_profile(capsys):
    assert cli.main(["matrix", "--slot", "256"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 64
    assert all("profile" in row for row in rows)


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line.replace("[", "").replace("]", ""))
                for line in lines if line.startswith("bdts ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
