"""CLI: ``python -m repro.shard`` subcommands and worker-invariant trees."""

import json

import pytest

from repro.shard.__main__ import main

ARGS = ["--shards", "2", "--ops", "60", "--keys", "16", "--clients", "20"]


def test_run_writes_report_and_exits_clean(tmp_path):
    out = tmp_path / "run"
    assert main(["run", *ARGS, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["completed"] == 60 and report["aborted"] == 0


def test_run_trees_identical_across_workers(tmp_path):
    serial, forked = tmp_path / "serial", tmp_path / "forked"
    args = ["run", *ARGS, "--gscan-ratio", "0.2", "--read-ratio", "0.3"]
    assert main([*args, "--out", str(serial)]) == 0
    assert main([*args, "--workers", "2", "--out", str(forked)]) == 0
    assert (serial / "report.json").read_bytes() == (
        forked / "report.json"
    ).read_bytes()


def test_oracle_subcommand_passes(tmp_path):
    out = tmp_path / "oracle"
    args = ["oracle", *ARGS, "--gscan-ratio", "0.2", "--out", str(out)]
    assert main(args) == 0
    verdict = json.loads((out / "oracle.json").read_text())
    assert verdict["ok"] is True


def test_chaos_subcommand_passes(tmp_path):
    out = tmp_path / "chaos"
    args = ["chaos", *ARGS, "--cells", "2", "--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "shard_chaos.json").read_text())
    assert report["all_ok"] is True


def test_usage_error_exit_code():
    assert main(["run", "--shards", "0"]) == 2


@pytest.mark.parametrize("command", ["run", "oracle", "chaos"])
def test_unknown_algo_prints_unquoted_choices(command, capsys):
    assert main([command, *ARGS, "--algo", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown algorithm 'nope'; choose from [")
    assert "'eq_aso'" in err
    assert "Traceback" not in err
