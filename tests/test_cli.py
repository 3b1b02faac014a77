"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_app():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "--app", "bogus"])


def test_trace_command_prints_summary(capsys, tmp_path):
    out = tmp_path / "trace.npz"
    rc = main(
        [
            "trace",
            "--duration", "30",
            "--rate", "80",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "intervals : 30" in captured
    assert "workers" in captured
    data = np.load(out)
    assert any(k.startswith("target_w") for k in data.files)
    assert any(k.startswith("features_w") for k in data.files)


def test_reliability_command_baseline(capsys):
    rc = main(
        [
            "reliability",
            "--arm", "baseline",
            "--duration", "60",
            "--rate", "100",
            "--seed", "3",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "arm         : baseline" in captured
    assert "degradation" in captured


def test_demo_command_runs(capsys):
    rc = main(["demo", "--duration", "60", "--rate", "100", "--seed", "2"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "healthy throughput" in captured


@pytest.mark.parametrize("command", ["chaos", "predict", "bench"])
def test_negative_jobs_is_a_usage_error(command, capsys):
    """``--jobs -1`` must exit with argparse's usage error code (2)."""
    with pytest.raises(SystemExit) as exc_info:
        main([command, "--jobs", "-1"])
    assert exc_info.value.code == 2
    assert "jobs must be >= 0" in capsys.readouterr().err


def test_jobs_not_an_int_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["chaos", "--jobs", "many"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["chaos", "--runs", "0"], "argument --runs: must be > 0, got 0"),
        (["reliability", "--duration", "0"],
         "argument --duration: must be > 0, got 0"),
        (["reliability", "--duration", "-5"],
         "argument --duration: must be > 0, got -5"),
        (["reliability", "--rate", "0"],
         "argument --rate: must be > 0, got 0"),
        (["reliability", "--k", "99"], "argument --k: invalid choice: 99"),
    ],
    ids=["chaos-runs-0", "reliability-duration-0", "reliability-duration-neg",
         "reliability-rate-0", "reliability-k-99"],
)
def test_out_of_range_input_is_a_usage_error(argv, message, capsys):
    """Bad inputs exit 2 with one argparse line, never a traceback."""
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err.strip().splitlines()[-1]
    assert "Traceback" not in err


def test_predict_grid_command_writes_report(capsys, tmp_path):
    import json

    out = tmp_path / "grid.json"
    rc = main(
        [
            "predict",
            "--grid",
            "--models", "svr", "holt", "ensemble",
            "--profiles", "calm",
            "--duration", "100",
            "--rate", "150",
            "--seed", "1",
            "--window", "4",
            "--horizon", "2",
            "--out", str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "model grid" in captured
    assert "url_count" in captured and "holt" in captured
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-grid/1"
    assert doc["models"] == ["svr", "holt", "ensemble"]
    (cell,) = doc["cells"]
    assert set(cell["scores"]) == {"svr", "holt", "ensemble"}


def test_predict_grid_rejects_unknown_profile(capsys):
    with pytest.raises(ValueError, match="unknown fault profile"):
        main(["predict", "--grid", "--profiles", "bogus", "--duration", "60"])


def test_chaos_command_online_arm(capsys):
    rc = main(
        [
            "chaos",
            "--arm", "online",
            "--runs", "1",
            "--duration", "30",
            "--rate", "60",
            "--seed", "9",
            "--retrain-interval", "10",
            "--losses", "0",
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "arm: online" in captured
    assert "tuple conservation holds" in captured


def test_chaos_command_with_jobs_and_cache(capsys, tmp_path):
    args = [
        "chaos",
        "--runs", "2",
        "--duration", "20",
        "--rate", "60",
        "--seed", "9",
        "--cache", str(tmp_path / "cache"),
        "--out", str(tmp_path / "report.json"),
    ]
    rc = main(args + ["--jobs", "1"])
    assert rc == 0
    first = (tmp_path / "report.json").read_bytes()
    assert "tuple conservation" in capsys.readouterr().out
    # warm rerun: same bytes, served from the cache
    rc = main(args)
    assert rc == 0
    assert (tmp_path / "report.json").read_bytes() == first
