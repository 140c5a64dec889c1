"""CLI surface: exit codes, error lines, and emitted artifacts."""

import pytest

from accsim.agents import ScriptedGapPolicy
from accsim.cli import EXIT_CONFIG, EXIT_USAGE, main
from accsim.harness import capture_spacetime
from accsim.scenario import load_builtin


def test_usage_error_without_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[geometry]\nmainline_length = -5\n")
    code = main(["spacetime", "--config", str(bad),
                 "--out", str(tmp_path / "t.csv")])
    captured = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert captured.err.startswith("error: category=config message=")


def test_usage_error_exit_code(tmp_path, capsys):
    code = main(["latency", "--config", "desk", "--system", "saint",
                 "--checkpoint-dir", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "category=usage" in captured.err


def test_spacetime_success(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["spacetime", "--config", "desk", "--system", "base",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "trajectory rows" in capsys.readouterr().out


def test_spacetime_scripted_matches_capture(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["spacetime", "--config", "desk", "--system", "scripted",
                 "--fixed-ttc-star", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    ref = tmp_path / "ref.csv"
    capture_spacetime(load_builtin("desk"), ScriptedGapPolicy(2.0), seed=3,
                      out_path=ref)
    assert out.read_text() == ref.read_text()


def test_train_and_sweep_roundtrip(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    code = main(["train", "--config", "desk", "--system", "fixed-ttc",
                 "--episodes", "2", "--seed", "1", "--out", str(ckpt),
                 "--checkpoint-every", "2"])
    assert code == 0
    assert (ckpt / "acc_agent.ckpt").exists()
    assert (ckpt / "rewards.csv").exists()

    out = tmp_path / "sweep"
    code = main(["sweep", "--config", "desk", "--parameter", "penetration",
                 "--values", "0.8", "--episodes", "2", "--seed", "7",
                 "--systems", "base,fixed-ttc",
                 "--checkpoint-dir", str(ckpt), "--out", str(out)])
    assert code == 0
    assert (out / "sweep_penetration_episodes.csv").exists()
    assert (out / "sweep_penetration_summary.csv").exists()
    stdout = capsys.readouterr().out
    assert "base" in stdout and "fixed-ttc4" in stdout


def test_motivation_small(tmp_path, capsys):
    out = tmp_path / "mot"
    code = main(["motivation", "--config", "desk", "--values", "2,6",
                 "--episodes", "1", "--seed", "11", "--out", str(out)])
    assert code == 0
    assert (out / "motivation_episodes.csv").exists()
    assert "spearman(nc)=" in capsys.readouterr().out


def test_bad_sweep_values_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--config", "desk", "--parameter", "penetration",
                 "--values", "a,b", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "category=usage" in capsys.readouterr().err
