import json

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


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("BDTS_SEED", "42")
    args = cli.build_parser().parse_args(["demo"])
    assert args.seed == 42


def test_report_formats(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert cli.main(["demo", "--slot", "512", "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["recovery"] is True
    assert cli.main(["report", "--input", str(path), "--format", "text"]) == 0
    assert "recovery: True" in capsys.readouterr().out


def test_matrix_report_csv(tmp_path, capsys):
    path = tmp_path / "m.json"
    assert cli.main(["matrix", "--slot", "256", "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--input", str(path), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 65  # header + 64 profiles
