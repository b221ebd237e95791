import argparse
import fcntl
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bdts import cli, game

ROOT = Path(__file__).resolve().parents[1]


def test_unknown_verb_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--n", "--price", "--unit-price", "--slot"])
def test_scenario_has_no_price_or_shard_count_flags(flag, capsys):
    # the model fixes the prices and the shard count, and no transcript
    # depends on the shard size, so none can be set
    with pytest.raises(SystemExit) as exc:
        cli.main(["scenario", "--profile", "aei", flag, "8"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_scenario_honest(capsys):
    assert cli.main(["scenario", "--profile", "aei"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert json.loads(line)["recovery"] is True


def test_scenario_cheater_still_checks_model(capsys):
    # a cheating profile still agrees with the enforced model, so exit 0
    assert cli.main(["scenario", "--profile", "cei"]) == 0


def test_scenario_underpaying_consumer_matches_model():
    assert cli.main(["scenario", "--profile", "afi"]) == 0


@pytest.mark.parametrize("argv", [["scenario", "--profile", "ahi"], ["matrix"]])
def test_an_offer_of_part_tokens_is_refused(argv, capsys):
    # x = 0.3 units is 0.6 of a token: refused before the trade, not a model mismatch
    assert cli.main(argv + ["--x", "0.3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_scenario_checks_the_run_it_printed(capsys, monkeypatch):
    # a model under which nobody pays anything disagrees with the forfeit run
    monkeypatch.setattr(game, "token_flows", lambda *_: game.PayoffVector(0, 0, 0))
    argv = ["scenario", "--profile", "afi"]
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
    assert cli.main(["matrix"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == 64
    assert all("profile" in row for row in rows)


def test_reader_closing_early_ends_quietly():
    # a one-page pipe: the writer must keep writing after the reader closes
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "bdts.cli", "game", "--sweep"],
                            stdout=write_fd, stderr=subprocess.PIPE, env=env)
    os.close(write_fd)
    first = b""
    while (byte := os.read(read_fd, 1)) not in (b"", b"\n"):
        first += byte
    os.close(read_fd)
    _, err = proc.communicate(timeout=120)
    assert first.startswith(b"x=0 y=0")
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
    assert proc.returncode == 1


def test_readme_cli_lines_parse():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()]
    commands = [shlex.split(line.replace("[", "").replace("]", ""))
                for line in lines if line.startswith("bdts ")]
    parser = cli.build_parser()
    verbs = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted({argv[1] for argv in commands}) == sorted(verbs)
    for argv in commands:
        parser.parse_args(argv[1:])
