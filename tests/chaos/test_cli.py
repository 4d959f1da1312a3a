"""CLI: exit codes, seed-range parsing, smoke preset, plan replay."""

from __future__ import annotations

import json

import pytest

from repro.chaos.__main__ import SMOKE_SEEDS, _parse_seed_range, main
from repro.chaos.algos import HEALTHY, all_profiles


def test_parse_seed_range_forms():
    assert _parse_seed_range("25") == (0, 25)
    assert _parse_seed_range("3:7") == (3, 7)
    for bad in ("0", "5:5", "7:3", "-1:2"):
        with pytest.raises(ValueError):
            _parse_seed_range(bad)


def test_clean_sweep_exits_zero(capsys):
    assert main(["--algo", "eq_aso,scd", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "eq_aso" in out and "scd" in out
    assert "0 failure(s)" in out


def test_smoke_covers_all_healthy_algorithms(tmp_path, capsys):
    assert main(["--smoke", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for name in HEALTHY:
        assert name in out
    with (tmp_path / "report.json").open() as fh:
        report = json.load(fh)
    assert report["smoke"] is True
    assert report["total_failures"] == 0
    assert {a["algo"] for a in report["algos"]} == set(HEALTHY)
    assert all(len(a["seeds"]) == SMOKE_SEEDS for a in report["algos"])


def test_parse_algos_all_tracks_the_live_registry():
    """``--algo all`` is exactly the registry's healthy crash-model
    entries: the new contenders are in, mutants and Byzantine variants
    stay out."""
    from repro.chaos.__main__ import _parse_algos

    names = _parse_algos("all")
    assert "bfk" in names and "impr" in names
    assert names == sorted(
        name
        for name, p in all_profiles().items()
        if p.mutant_of is None and not p.supports_byzantine
    )
    assert not any(n.startswith(("mut-", "byz_")) for n in names)


def test_mutant_sweep_exits_one_and_exports(tmp_path, capsys):
    code = main(
        [
            "--algo",
            "mut-delporte-weak-write",
            "--seeds",
            "26:27",
            "--budget",
            "60",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILURE" in out
    bundles = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(bundles) == 1
    for artifact in ("plan.json", "history.json", "trace.jsonl", "repro.txt"):
        assert (bundles[0] / artifact).exists()


def test_plan_replay_round_trip(tmp_path, capsys):
    assert (
        main(
            [
                "--algo",
                "mut-delporte-weak-write",
                "--seeds",
                "26:27",
                "--budget",
                "60",
                "--out",
                str(tmp_path),
            ]
        )
        == 1
    )
    capsys.readouterr()
    (bundle,) = (p for p in tmp_path.iterdir() if p.is_dir())
    assert main(["--plan", str(bundle / "plan.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL [atomicity]" in out


def test_usage_errors_exit_two():
    for argv in (
        ["--algo", "nonsense"],
        ["--seeds", "7:3"],
        ["--plan", "/nonexistent/plan.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
