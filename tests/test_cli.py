"""End-to-end CLI tests over a temporary workspace: every command, its error
paths, flag overrides, and byte-identical re-runs."""

import dataclasses
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import tradelab
from conftest import hourly_axis, make_features, make_walk_series, write_bars_csv
from tradelab.agents.a2c import MlpPolicy, ObsNormalizer, load_checkpoint, save_checkpoint
from tradelab.agents.mlp import init_mlp
from tradelab.agents.policies import make_baseline
from tradelab.analytics import behavior_profile, load_report, save_report
from tradelab.binfile import write_frame
from tradelab.cli import build_parser, entrypoint, main
from tradelab.env import EnvConfig, Window, load_episode_log, run_episode, save_episode_log
from tradelab.marketdata import OHLCV, PANEL_MAGIC, format_timestamp, load_panel, parse_timestamp

START = 1_646_380_800
BARS = 140

SMALL_INDICATOR_DICT = {
    "rsi_period": 8,
    "cci_period": 8,
    "dx_period": 8,
    "sma_short": 8,
    "sma_long": 16,
    "macd_fast": 5,
    "macd_slow": 10,
    "macd_signal": 4,
    "boll_period": 6,
}


@pytest.fixture
def workspace(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    timestamps = hourly_axis(START, BARS)
    for i, ticker in enumerate(("AA", "BB")):
        series = make_walk_series(ticker, timestamps, np.random.default_rng(40 + i), start_price=80.0)
        write_bars_csv(data_dir / f"{ticker.lower()}.csv", series)
    config = {
        "data": {"AA": "data/aa.csv", "BB": "data/bb.csv"},
        "tickers": ["AA", "BB"],
        "align": "intersect",
        "indicators": SMALL_INDICATOR_DICT,
        "env": {},
        "a2c": {"total_timesteps": 200, "n_envs": 2, "n_steps": 5, "hidden_sizes": [16, 16]},
        "out": str(tmp_path / "out"),
        "seed": 3,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(workspace, *argv):
    return main([argv[0], "--config", str(workspace / "config.json"), *argv[1:]])


def edit_config(workspace, section, **fields):
    config = json.loads((workspace / "config.json").read_text())
    config[section].update(fields)
    (workspace / "config.json").write_text(json.dumps(config))


class TestIngest:
    def test_creates_panel_cache(self, workspace, capsys):
        assert run(workspace, "ingest") == 0
        out = capsys.readouterr().out
        assert f"{BARS} rows x 2 tickers" in out
        assert (workspace / "out" / "panel.bin").exists()
        assert (workspace / "out" / "panel.csv").exists()

    def test_missing_column_exits_one(self, workspace, capsys):
        bad = workspace / "data" / "aa.csv"
        lines = bad.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("close")
        rewritten = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]
        bad.write_text("\n".join(rewritten) + "\n")
        assert run(workspace, "ingest") == 1
        assert "close" in capsys.readouterr().err

    def test_non_utf8_bar_file_exits_one_naming_it(self, workspace, capsys):
        bad = workspace / "data" / "aa.csv"
        raw = bytearray(bad.read_bytes())
        raw[98] = 0xFF
        bad.write_bytes(bytes(raw))
        assert run(workspace, "ingest") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not CSV text" in err and str(bad) in err
        assert not (workspace / "out" / "panel.bin").exists()

    def test_rerun_is_byte_identical(self, workspace):
        assert run(workspace, "ingest") == 0
        first_bin = (workspace / "out" / "panel.bin").read_bytes()
        first_csv = (workspace / "out" / "panel.csv").read_bytes()
        assert run(workspace, "ingest") == 0
        assert (workspace / "out" / "panel.bin").read_bytes() == first_bin
        assert (workspace / "out" / "panel.csv").read_bytes() == first_csv

    def test_stamp_past_year_9999_exits_one_before_writing(self, workspace, capsys):
        bad = workspace / "data" / "aa.csv"
        lines = bad.read_text().splitlines()
        lines[-1] = "253402300800" + lines[-1][lines[-1].index(","):]
        bad.write_text("\n".join(lines) + "\n")
        assert run(workspace, "ingest") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "years 1-9999" in err and str(bad) in err
        assert "'timestamp'" in err and f"row {BARS + 1}" in err
        assert not (workspace / "out" / "panel.bin").exists()
        assert not (workspace / "out" / "panel.csv").exists()

    def test_bars_before_year_1000_run_through_analyze(self, workspace):
        timestamps = hourly_axis(parse_timestamp("0999-03-01T00:00:00Z"), BARS)
        for i, ticker in enumerate(("AA", "BB")):
            series = make_walk_series(ticker, timestamps, np.random.default_rng(40 + i), start_price=80.0)
            write_bars_csv(workspace / "data" / f"{ticker.lower()}.csv", series)
        assert run(workspace, "ingest") == 0
        assert b"\r\n0999-03-01T00:00:00Z,AA," in (workspace / "out" / "panel.csv").read_bytes()
        assert run(workspace, "features") == 0
        assert run(workspace, "simulate", "--agent", "hold") == 0
        assert run(workspace, "analyze", str(workspace / "out" / "log_hold.csv")) == 0

    @pytest.mark.parametrize("align", ["intersect", "forward-fill"])
    def test_header_only_aux_file_exits_one_naming_it(self, workspace, capsys, align):
        vix = workspace / "data" / "vix.csv"
        vix.write_text("timestamp,value\n")
        config = json.loads((workspace / "config.json").read_text())
        (workspace / "config.json").write_text(json.dumps({**config, "aux": {"vix": "data/vix.csv"}, "align": align}))
        assert run(workspace, "ingest") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no rows for series 'vix'") and str(vix) in err
        assert not (workspace / "out" / "panel.bin").exists()

    def test_ticker_subset_flag(self, workspace, capsys):
        assert run(workspace, "ingest", "--tickers", "AA") == 0
        assert "rows x 1 tickers" in capsys.readouterr().out

    def test_missing_config_file(self, workspace, capsys):
        assert main(["ingest", "--config", str(workspace / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_data_configured(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path / "o")]) == 1
        assert "no data" in capsys.readouterr().err


class TestFeatures:
    def test_writes_export_and_warmup(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "features") == 0
        out = capsys.readouterr().out
        assert "warmup index 16" in out
        header = (workspace / "out" / "features.csv").read_text().splitlines()[0]
        for name in ("macd", "boll_ub", "boll_lb", "rsi", "cci", "dx", "sma_short", "sma_long"):
            assert name in header.split(",")

    def test_requires_ingest_first(self, workspace, capsys):
        assert run(workspace, "features") == 1
        assert "ingest" in capsys.readouterr().err

    def test_insufficient_history(self, workspace, capsys):
        config = json.loads((workspace / "config.json").read_text())
        config["indicators"]["sma_long"] = 500
        (workspace / "config.json").write_text(json.dumps(config))
        run(workspace, "ingest")
        assert run(workspace, "features") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_stale_panel_of_other_tickers_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "features", "--tickers", "AA") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rerun ingest" in err and "['AA', 'BB']" in err
        assert not (workspace / "out" / "features.csv").exists()

    def test_panel_older_than_a_bar_file_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        bars, panel = workspace / "data" / "aa.csv", workspace / "out" / "panel.bin"
        bars.write_bytes(b"".join(bars.read_bytes().splitlines(keepends=True)[:-50]))
        later = panel.stat().st_mtime_ns + 1_000_000_000  # a coarse file clock may not move by itself
        os.utime(bars, ns=(later, later))
        capsys.readouterr()
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bars) in err and str(panel) in err and "rerun ingest" in err
        assert not (workspace / "out" / "features.csv").exists()

    def test_failed_reingest_leaves_no_panel(self, workspace, capsys):
        run(workspace, "ingest")
        (workspace / "data" / "bb.csv").write_text("timestamp,open\n")
        assert run(workspace, "ingest") == 1
        assert not (workspace / "out" / "panel.bin").exists()
        capsys.readouterr()
        assert run(workspace, "features") == 1
        assert "run `ingest` first" in capsys.readouterr().err

    def test_rerun_identical(self, workspace):
        run(workspace, "ingest")
        assert run(workspace, "features") == 0
        first = (workspace / "out" / "features.csv").read_bytes()
        assert run(workspace, "features") == 0
        assert (workspace / "out" / "features.csv").read_bytes() == first


class TestSimulate:
    def test_hold_keeps_capital_flat(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "simulate", "--agent", "hold") == 0
        assert "final value 1000000.00" in capsys.readouterr().out
        log = load_episode_log(workspace / "out" / "log_hold.csv")
        assert np.array_equal(log.portfolio_value, np.full(log.n_timestamps, 1_000_000.0))

    def test_unknown_agent_lists_names(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "simulate", "--agent", "oracle") == 1
        err = capsys.readouterr().err
        for name in ("buy-and-hold", "hold", "momentum", "random"):
            assert name in err

    def test_seeded_random_reruns_identically(self, workspace):
        run(workspace, "ingest")
        assert run(workspace, "simulate", "--agent", "random") == 0
        path = workspace / "out" / "log_random.csv"
        first = path.read_bytes()
        first_sidecar = (workspace / "out" / "log_random.csv.json").read_bytes()
        assert run(workspace, "simulate", "--agent", "random") == 0
        assert path.read_bytes() == first
        assert (workspace / "out" / "log_random.csv.json").read_bytes() == first_sidecar

    def test_seed_flag_changes_trajectory(self, workspace):
        run(workspace, "ingest")
        run(workspace, "simulate", "--agent", "random")
        baseline = (workspace / "out" / "log_random.csv").read_bytes()
        assert run(workspace, "simulate", "--agent", "random", "--seed", "99") == 0
        assert (workspace / "out" / "log_random.csv").read_bytes() != baseline

    def test_split_windows(self, workspace, capsys):
        run(workspace, "ingest")
        boundary = format_timestamp(START + 90 * 3600)
        assert run(workspace, "simulate", "--agent", "hold", "--split", boundary, "--window", "train") == 0
        assert f"{90 - 16 - 1} steps on train" in capsys.readouterr().out
        assert run(workspace, "simulate", "--agent", "hold", "--split", boundary) == 0
        # the default window is the test side when a split is configured
        assert f"{BARS - 90 - 1} steps on test" in capsys.readouterr().out

    def test_split_that_leaves_no_window_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        boundary = format_timestamp(START + 10 * 3600)  # inside the 16-bar warmup
        assert run(workspace, "simulate", "--agent", "hold", "--split", boundary) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: split {boundary} leaves no usable train/test windows")
        assert not (workspace / "out" / "log_hold.csv").exists()


class TestRefusedBeforeFeatures:
    """simulate and train check the agent, the window and the trainer settings
    before the feature build, the longest step of both."""

    @pytest.fixture(autouse=True)
    def no_build(self, workspace, monkeypatch):
        import tradelab.cli

        assert run(workspace, "ingest") == 0

        def boom(*args, **kwargs):
            raise AssertionError("features built before the invocation was checked")

        monkeypatch.setattr(tradelab.cli, "build_features", boom)

    def checkpoint(self, workspace, n_tickers, label="a2c"):
        width = 1 + 10 * n_tickers
        path = workspace / f"agent_{n_tickers}.ckpt"  # ASCII whatever the label, so any locale can name it
        normalizer = ObsNormalizer(width)
        normalizer.freeze()
        save_checkpoint(MlpPolicy(init_mlp((width, 4, 4, n_tickers), np.random.default_rng(0)), normalizer,
                                  label=label), path)
        return path

    def test_unknown_agent(self, workspace, capsys):
        assert run(workspace, "simulate", "--agent", "oracle") == 1
        assert capsys.readouterr().err.startswith("error: unknown agent 'oracle'; valid baselines:")

    def test_checkpoint_of_another_width(self, workspace, capsys):
        path = self.checkpoint(workspace, 1)
        assert run(workspace, "simulate", "--agent", str(path)) == 1
        assert capsys.readouterr().err.startswith(
            f"error: checkpoint {path} takes 11-wide observations, but the run's 2 tickers give 21-wide ones")

    def test_checkpoint_label_that_is_not_a_file_name(self, workspace, capsys):
        path = self.checkpoint(workspace, 2, label="../escaped")
        assert run(workspace, "simulate", "--agent", str(path)) == 1
        assert capsys.readouterr().err.startswith("error: agent label '../escaped'")

    def test_label_the_file_system_cannot_encode_exits_one_before_any_directory(self, workspace, tmp_path):
        """Under an ASCII locale the file-system encoding is ASCII, so a label
        such as 'Zürich-a2c' cannot name report_<label> or log_<label>.csv:
        analyze and simulate refuse it, naming the label and the file it came
        from, before they make the output directory."""
        features = make_features(["AA", "BB"], 60, seed=5)
        log = run_episode(make_baseline("random"), EnvConfig(), features, Window(features.warmup, 60))
        save_episode_log(dataclasses.replace(log, agent_label="Zürich-a2c"), tmp_path / "log.csv")
        checkpoint = self.checkpoint(workspace, 2, label="Zürich-a2c")
        env = {**os.environ, "PYTHONPATH": str(Path(tradelab.__file__).parents[1]),
               "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        script = "import sys; from tradelab.cli import main; sys.exit(main())"
        for argv, source in ((["analyze", str(tmp_path / "log.csv")], tmp_path / "log.csv.json"),
                             (["simulate", "--config", str(workspace / "config.json"), "--agent", str(checkpoint)],
                              checkpoint)):
            out = tmp_path / f"out_{argv[0]}"
            done = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(out)],
                                  cwd=tmp_path, env=env, capture_output=True)
            err = done.stderr.decode("ascii")
            assert done.returncode == 1, err
            assert err.startswith("error: agent label 'Z\\xfcrich-a2c' from ") and str(source) in err
            assert "cannot be encoded in the file-system encoding (ascii)" in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("window", ["train", "test"])
    def test_window_without_split(self, workspace, capsys, window):
        assert run(workspace, "simulate", "--agent", "hold", "--window", window) == 1
        assert capsys.readouterr().err == f"error: window '{window}' unavailable; choose from ['full']\n"
        assert not (workspace / "out" / "log_hold.csv").exists()

    @pytest.mark.parametrize("command, split", [("simulate", "garbage"), ("train", "2022-13-45"),
                                                ("simulate", "10000-01-01")])
    def test_malformed_split_flag(self, workspace, capsys, command, split):
        extra = ["--agent", "hold"] if command == "simulate" else []
        assert run(workspace, command, *extra, "--split", split) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: split: ") and repr(split) in err

    def test_malformed_split_in_config(self, workspace, capsys):
        path = workspace / "config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "split": "garbage"}))
        assert run(workspace, "simulate", "--agent", "hold") == 1
        err = capsys.readouterr().err
        assert err == f"error: config: split: unparsable timestamp 'garbage' in {path}\n"

    def test_zero_timesteps(self, workspace, capsys):
        assert run(workspace, "train", "--timesteps", "0") == 1
        assert capsys.readouterr().err == "error: n_steps, n_envs, and total_timesteps must be >= 1\n"
        assert not (workspace / "out" / "a2c.ckpt").exists()


class TestTurbulenceGate:
    def test_no_gate_never_computes_turbulence(self, workspace, monkeypatch):
        import tradelab.indicators

        def boom(*args):
            raise AssertionError("turbulence computed without a gate")

        monkeypatch.setattr(tradelab.indicators, "turbulence", boom)
        edit_config(workspace, "indicators", turb_window=30)
        for argv in (["ingest"], ["features"], ["simulate", "--agent", "hold"], ["train"]):
            assert run(workspace, *argv) == 0, argv

    def test_gate_starts_windows_where_turbulence_is_defined(self, workspace):
        edit_config(workspace, "indicators", turb_window=30)
        edit_config(workspace, "env", turbulence_gate=0.0)  # every defined index is turbulent
        run(workspace, "ingest")
        assert run(workspace, "features") == 0
        sidecar = json.loads((workspace / "out" / "features.csv.json").read_text())
        assert sidecar["warmup"] == 31
        assert run(workspace, "simulate", "--agent", "buy-and-hold") == 0
        log = load_episode_log(workspace / "out" / "log_buy-and-hold.csv")
        assert log.meta["window"] == [31, BARS]
        assert log.timestamps[0] == START + 31 * 3600
        assert not log.holdings.any()  # the gate acted on every step, the first one included

    def test_gate_without_turb_window_exits_one(self, workspace, capsys):
        # the gate is the one switch: a null window is refused when the config loads, gate or not
        edit_config(workspace, "indicators", turb_window=None)
        edit_config(workspace, "env", turbulence_gate=5.0)
        assert run(workspace, "ingest") == 1
        path = workspace / "config.json"
        assert capsys.readouterr().err == \
            f"error: config section 'indicators': turb_window must be int, got None in {path}\n"
        assert not (workspace / "out").exists()

    def test_default_window_binds_only_behind_the_gate(self, workspace, capsys):
        # 140 bars are too few for the default 252-bar window, which only a gate reads
        assert run(workspace, "ingest") == 0
        assert run(workspace, "features") == 0
        edit_config(workspace, "env", turbulence_gate=5.0)
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.endswith(f"turbulence window 252 leaves no defined index in a series of length {BARS}\n")


class TestTrain:
    def test_writes_checkpoint_and_stats(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "train") == 0
        out = capsys.readouterr().out
        steps = BARS - 16 - 1
        # 20 updates of 2 copies x 5 steps: each copy steps 100 times, short of one 123-step episode
        assert f"trained 200 timesteps: 0 finished episodes of {steps} steps, 20 updates" in out
        assert (workspace / "out" / "a2c.ckpt").exists()
        stats = (workspace / "out" / "train_stats.csv").read_text().splitlines()
        assert stats[0] == "update,policy_loss,value_loss,entropy,grad_norm"
        assert len(stats) == 1 + 200 // (2 * 5)
        rewards = (workspace / "out" / "episode_rewards.csv").read_text().splitlines()
        assert rewards[0] == "episode,reward"

    def test_same_seed_identical_checkpoint(self, workspace):
        run(workspace, "ingest")
        assert run(workspace, "train") == 0
        first = (workspace / "out" / "a2c.ckpt").read_bytes()
        edit_config(workspace, "a2c", seed=3)  # the run's seed, stated again where A2CConfig keeps it
        assert run(workspace, "train") == 0
        assert (workspace / "out" / "a2c.ckpt").read_bytes() == first
        assert run(workspace, "train", "--seed", "4") == 0  # --seed overrides both
        assert (workspace / "out" / "a2c.ckpt").read_bytes() != first

    def test_timesteps_flag(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "train", "--timesteps", "125") == 0
        # the budget rounds up to whole updates of 2 copies x 5 steps, and the line says what ran
        assert "trained 130 timesteps" in capsys.readouterr().out

    def test_prints_budget_episodes_and_updates(self, workspace, capsys):
        run(workspace, "ingest")
        capsys.readouterr()
        assert run(workspace, "train", "--timesteps", "401") == 0
        # ceil(401 / (2 envs * 5 steps)) = 41 updates train 410 env-steps; each copy steps 205 times,
        # so each finishes one 123-step episode, as the checkpoint and episode_rewards.csv record
        ckpt = workspace / "out" / "a2c.ckpt"
        out = capsys.readouterr().out
        assert out == f"trained 410 timesteps: 2 finished episodes of 123 steps, 41 updates -> {ckpt}\n"
        assert load_checkpoint(ckpt).steps_trained == 410
        assert len((workspace / "out" / "episode_rewards.csv").read_text().splitlines()) == 1 + 2

    def test_checkpoint_simulates(self, workspace, capsys):
        run(workspace, "ingest")
        run(workspace, "train")
        capsys.readouterr()
        ckpt = workspace / "out" / "a2c.ckpt"
        assert run(workspace, "simulate", "--agent", str(ckpt)) == 0
        assert "a2c:" in capsys.readouterr().out
        assert (workspace / "out" / "log_a2c.csv").exists()


class TestAnalyze:
    def _logs(self, workspace):
        run(workspace, "ingest")
        run(workspace, "simulate", "--agent", "hold")
        run(workspace, "simulate", "--agent", "random")
        return (
            str(workspace / "out" / "log_hold.csv"),
            str(workspace / "out" / "log_random.csv"),
        )

    def test_two_logs_with_comparison(self, workspace, capsys):
        hold_log, random_log = self._logs(workspace)
        capsys.readouterr()
        assert run(workspace, "analyze", hold_log, random_log) == 0
        out = capsys.readouterr().out
        assert "hold: trader_score=0.0000 (holder by the 0.5 convention)" in out
        assert "random: trader_score=" in out
        lines = (workspace / "out" / "comparison.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (workspace / "out" / "report_hold" / "report.json").exists()
        assert (workspace / "out" / "report_random" / "report.json").exists()

    def test_single_log_no_comparison(self, workspace):
        hold_log, _ = self._logs(workspace)
        (workspace / "out" / "comparison.csv").unlink(missing_ok=True)
        assert run(workspace, "analyze", hold_log) == 0
        assert not (workspace / "out" / "comparison.csv").exists()
        assert (workspace / "out" / "report_hold").is_dir()

    def test_cli_matches_direct_api(self, workspace):
        _, random_log = self._logs(workspace)
        assert run(workspace, "analyze", random_log) == 0
        via_cli = load_report(workspace / "out" / "report_random")
        direct = behavior_profile(load_episode_log(random_log))
        assert np.array_equal(via_cli.cumulative_reward, direct.cumulative_reward)
        assert np.array_equal(via_cli.integral_holding, direct.integral_holding)
        assert np.array_equal(via_cli.holdings_matrix, direct.holdings_matrix)
        assert via_cli.trader_score == direct.trader_score
        assert via_cli.diversity == direct.diversity

    def test_window_mismatch_exits_one(self, workspace, capsys):
        hold_log, _ = self._logs(workspace)
        boundary = format_timestamp(START + 90 * 3600)
        run(workspace, "simulate", "--agent", "random", "--split", boundary)
        capsys.readouterr()
        short_log = str(workspace / "out" / "log_random.csv")
        assert run(workspace, "analyze", hold_log, short_log) == 1
        assert "window" in capsys.readouterr().err.lower()

    def test_duplicate_labels_exit_one(self, workspace, capsys):
        hold_log, _ = self._logs(workspace)
        copy = workspace / "copy.csv"
        copy.write_bytes((workspace / "out" / "log_hold.csv").read_bytes())
        (workspace / "copy.csv.json").write_bytes((workspace / "out" / "log_hold.csv.json").read_bytes())
        capsys.readouterr()
        assert run(workspace, "analyze", hold_log, str(copy)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'hold'" in err
        assert not (workspace / "out" / "comparison.csv").exists()
        assert not (workspace / "out" / "report_hold").exists()

    # a lone high surrogate: no file-system encoding encodes it, whatever the locale
    @pytest.mark.parametrize("label", ["../../../escaped", "..\\..\\escaped", "nul\0byte", "lone-\ud800"])
    def test_label_that_is_not_a_file_name_exits_one(self, workspace, capsys, label):
        hold_log, _ = self._logs(workspace)
        sidecar = workspace / "out" / "log_hold.csv.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "agent_label": label}))
        capsys.readouterr()
        assert run(workspace, "analyze", hold_log) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: agent label") and str(sidecar) in err
        assert sorted(p.name for p in (workspace / "out").iterdir() if not p.name.startswith("log_")) == \
            ["panel.bin", "panel.csv"]  # no report was written
        assert not (workspace / "escaped").exists() and not (workspace.parent / "escaped").exists()

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda text: text.replace(",0\r\n", ",inf\r\n", 1), ["'hold_1'", "row 2", "'inf'"]),
            (lambda text: text.replace(",0\r\n", ",3.5\r\n", 1), ["'hold_1'", "row 2", "'3.5'"]),
            (lambda text: text.replace("cash", "cash\udcff", 1), ["not CSV text"]),
            (lambda text: text.replace(",0\r\n", ",-5\r\n", 1), ["negative holding -5", "'hold_1'", "row 2"]),
        ],
        ids=["hold-inf", "hold-fraction", "not-utf8", "hold-negative"],
    )
    def test_bad_log_cell_exits_one(self, workspace, capsys, edit, names):
        hold_log, _ = self._logs(workspace)
        path = workspace / "out" / "log_hold.csv"
        path.write_bytes(edit(path.read_bytes().decode()).encode("utf-8", "surrogateescape"))
        capsys.readouterr()
        assert run(workspace, "analyze", hold_log) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "Traceback" not in err
        for name in names:
            assert name in err
        assert not (workspace / "out" / "report_hold").exists()

    def test_missing_log_exits_one(self, workspace, capsys):
        assert run(workspace, "analyze", str(workspace / "nolog.csv")) == 1
        assert "error:" in capsys.readouterr().err


class TestReport:
    def _report_dir(self, workspace):
        run(workspace, "ingest")
        run(workspace, "simulate", "--agent", "random")
        run(workspace, "analyze", str(workspace / "out" / "log_random.csv"))
        return workspace / "out" / "report_random"

    def test_renders_three_svgs(self, workspace, capsys):
        report_dir = self._report_dir(workspace)
        capsys.readouterr()
        assert run(workspace, "report", str(report_dir)) == 0
        assert "3 charts" in capsys.readouterr().out
        for name in ("cumulative_reward.svg", "integral_holding.svg", "holdings.svg"):
            ET.fromstring((report_dir / name).read_text())

    def test_rerender_byte_identical(self, workspace):
        report_dir = self._report_dir(workspace)
        assert run(workspace, "report", str(report_dir)) == 0
        first = {name.name: name.read_bytes() for name in report_dir.glob("*.svg")}
        assert len(first) == 3
        assert run(workspace, "report", str(report_dir)) == 0
        for name, blob in first.items():
            assert (report_dir / name).read_bytes() == blob

    def test_zero_holdings_report(self, workspace):
        run(workspace, "ingest")
        run(workspace, "simulate", "--agent", "hold")
        run(workspace, "analyze", str(workspace / "out" / "log_hold.csv"))
        report_dir = workspace / "out" / "report_hold"
        assert run(workspace, "report", str(report_dir)) == 0
        ET.fromstring((report_dir / "integral_holding.svg").read_text())

    def test_malformed_report_exits_one(self, workspace, capsys):
        target = workspace / "broken"
        target.mkdir()
        (target / "report.json").write_text("{oops")
        assert run(workspace, "report", str(target)) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_label_renders_the_same_bytes_under_an_ascii_locale(self, tmp_path):
        """Text files are UTF-8 whatever the locale. Under LC_ALL=C with
        Python's UTF-8 mode and locale coercion off, the locale's encoding is
        ASCII, and report still writes the SVG bytes of a run in UTF-8 mode."""
        features = make_features(["AA", "BB"], 60, seed=5)
        log = run_episode(make_baseline("random"), EnvConfig(), features, Window(features.warmup, 60))
        report_dir = tmp_path / "report"
        save_report(behavior_profile(dataclasses.replace(log, agent_label="Zürich-a2c")), report_dir)
        script = ("import codecs, locale, sys; from tradelab.cli import main; "
                  "print(codecs.lookup(locale.getpreferredencoding(False)).name); sys.exit(main())")
        package_root = str(Path(tradelab.__file__).parents[1])
        locales = {"ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                   "utf-8": {"LC_ALL": "C", "PYTHONUTF8": "1"}}
        svgs = {}
        for encoding, overrides in locales.items():
            env = {**os.environ, "PYTHONPATH": package_root, **overrides}
            done = subprocess.run([sys.executable, "-c", script, "report", str(report_dir)],
                                  cwd=tmp_path, env=env, capture_output=True)
            assert done.returncode == 0, done.stderr.decode(errors="replace")
            assert done.stdout.decode().split("\n")[0] == encoding
            svgs[encoding] = {path.name: path.read_bytes() for path in sorted(report_dir.glob("*.svg"))}
        assert len(svgs["ascii"]) == 3 and svgs["ascii"] == svgs["utf-8"]
        assert "Zürich-a2c".encode() in svgs["ascii"]["cumulative_reward.svg"]


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "section, value, names",
        [
            ("env", {"hmaxx": 5}, ["'env'", "'hmaxx'"]),
            ("env", {"hmax": "100"}, ["'env'", "hmax must be int", "'100'"]),
            ("indicators", {"rsi_period": 8.5}, ["'indicators'", "rsi_period"]),
            ("a2c", {"hidden_sizes": [16]}, ["'a2c'", "hidden_sizes"]),
            ("a2c", [16, 16], ["'a2c'", "JSON object"]),
            ("env", {"initial_capital": float("inf")}, ["'env'", "initial_capital", "finite", "inf"]),
            ("env", {"initial_capital": float("nan")}, ["'env'", "initial_capital", "finite", "nan"]),
            ("env", {"turbulence_gate": float("nan")}, ["'env'", "turbulence_gate", "finite"]),
            ("indicators", {"boll_k": float("-inf")}, ["'indicators'", "boll_k", "finite"]),
            ("a2c", {"lr": float("inf")}, ["'a2c'", "lr", "finite"]),
            ("a2c", {"rms_decay": 1.0}, ["'a2c'", "rms_decay"]),
            ("a2c", {"rms_decay": -0.5}, ["'a2c'", "rms_decay"]),
            ("a2c", {"rms_eps": 0.0}, ["'a2c'", "rms_eps"]),
            ("a2c", {"hidden_sizes": [0, 64]}, ["'a2c'", "hidden_sizes"]),
            ("env", {"hmax": 2**53 + 1}, ["'env'", "hmax", "2**53"]),
            ("env", {"hmax": 2**63}, ["'env'", "hmax", "2**53"]),
            ("a2c", {"seed": 5}, ["a2c.seed is 5", "seed is 3", "config.json"]),
        ],
    )
    def test_bad_config_section_exits_one(self, workspace, capsys, section, value, names):
        config = json.loads((workspace / "config.json").read_text())
        config[section] = value
        (workspace / "config.json").write_text(json.dumps(config))
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config")
        for name in names:
            assert name in err

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda config: {**config, "seed": [1]}, ["seed must be int", "[1]"]),
            (lambda config: [config], ["config must be a JSON object", "list"]),
            (lambda config: {**config, "outt": "elsewhere"}, ["unknown field 'outt'"]),
            (lambda config: {**config, "data": {"AA": 5}}, ["data must be dict[str, str]"]),
            (lambda config: {**config, "tickers": ["AA", "CC"]}, ["tickers without a data path", "CC"]),
        ],
        ids=["seed-list", "top-level-list", "unknown-key", "data-path-number", "ticker-without-data"],
    )
    def test_bad_config_top_level_exits_one(self, workspace, capsys, edit, names):
        path = workspace / "config.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config") and err.rstrip().endswith(f"in {path}")
        for name in names:
            assert name in err

    def test_config_that_is_not_json_exits_one(self, workspace, capsys):
        path = workspace / "config.json"
        path.write_text('{"seed": 1,')
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("fault", ["truncated", "over-long", "missing-key"])
    @pytest.mark.parametrize("name, key", [("panel.bin", "n_timestamps"), ("a2c.ckpt", "param_count")])
    def test_bad_binary_file_exits_one(self, workspace, capsys, name, key, fault):
        run(workspace, "ingest")
        ckpt = workspace / "out" / "a2c.ckpt"
        if name == "a2c.ckpt":
            run(workspace, "train")
        path = workspace / "out" / name
        raw = path.read_bytes()
        if fault == "truncated":
            raw = raw[:-8]
        elif fault == "over-long":
            raw += bytes(8)
        else:
            head, _, payload = raw.partition(b"\n")
            header = json.loads(head)
            del header[key]
            raw = json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        path.write_bytes(raw)
        capsys.readouterr()
        assert run(workspace, "simulate", "--agent", str(ckpt) if name == "a2c.ckpt" else "hold") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        if fault == "missing-key":
            assert key in err

    def test_panel_with_swapped_stamps_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        path = workspace / "out" / "panel.bin"
        head, _, payload = path.read_bytes().partition(b"\n")
        stamps = np.frombuffer(payload, dtype="<i8", count=json.loads(head)["n_timestamps"]).copy()
        stamps[[10, 11]] = stamps[[11, 10]]
        path.write_bytes(head + b"\n" + stamps.tobytes() + payload[stamps.nbytes:])
        (workspace / "out" / "features.csv").unlink(missing_ok=True)
        capsys.readouterr()
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: AA: timestamp not strictly increasing at index 11") and str(path) in err
        assert not (workspace / "out" / "features.csv").exists()

    def test_panel_with_a_nan_close_and_a_negative_low_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        path = workspace / "out" / "panel.bin"
        panel = load_panel(path)
        matrices = {name: getattr(panel, name).copy() for name in OHLCV}
        matrices["close"][30, 0] = np.nan
        matrices["low"][50, 1] = -1.0
        write_frame(path, PANEL_MAGIC, {"tickers": list(panel.tickers), "aux": [], "n_timestamps": panel.n_timestamps},
                    [panel.timestamps, *matrices.values()])
        (workspace / "out" / "features.csv").unlink(missing_ok=True)
        capsys.readouterr()
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: AA: non-finite field at index 30") and str(path) in err
        assert not (workspace / "out" / "features.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("label", 5), ("steps_trained", -1), ("normalizer_count", True), ("obs_dim", 11)],
        ids=["label-int", "steps-negative", "count-true", "obs-dim-vs-sizes"],
    )
    def test_bad_checkpoint_header_value_exits_one(self, workspace, capsys, key, value):
        run(workspace, "ingest")
        run(workspace, "train")
        path = workspace / "out" / "a2c.ckpt"
        head, _, payload = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        header[key] = value
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + payload)
        capsys.readouterr()
        assert run(workspace, "simulate", "--agent", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and f"'{key}'" in err
        assert not (workspace / "out" / "log_5.csv").exists() and not (workspace / "out" / "log_a2c.csv").exists()

    def test_checkpoint_label_that_is_not_a_file_name_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        run(workspace, "train")
        path = workspace / "out" / "a2c.ckpt"
        head, _, payload = path.read_bytes().partition(b"\n")
        path.write_bytes(json.dumps({**json.loads(head), "label": "../escaped"}, sort_keys=True).encode()
                         + b"\n" + payload)
        capsys.readouterr()
        assert run(workspace, "simulate", "--agent", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: agent label '../escaped'") and str(path) in err
        assert not list((workspace / "out").glob("log_*")) and not list(workspace.glob("escaped*"))

    def test_panel_without_tickers_exits_one(self, workspace, capsys):
        path = workspace / "out" / "panel.bin"
        path.parent.mkdir()
        write_frame(path, PANEL_MAGIC, {"tickers": [], "aux": [], "n_timestamps": 400},
                    [hourly_axis(START, 400), *(np.zeros((400, 0)) for _ in OHLCV)])
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least one ticker" in err and str(path) in err


    @pytest.mark.parametrize("tickers", [None, 1.5, ["AA", "AA"], "AB", "", [None, "BB"], ["", "BB"]],
                             ids=["null", "number", "duplicate", "string", "empty-string", "null-name", "empty-name"])
    def test_panel_with_bad_tickers_exits_one(self, workspace, capsys, tickers):
        path = workspace / "out" / "panel.bin"
        path.parent.mkdir()
        write_frame(path, PANEL_MAGIC, {"tickers": tickers, "aux": [], "n_timestamps": 40},
                    [hourly_axis(START, 40), *(np.ones((40, 2)) for _ in OHLCV)])
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_checkpoint_wider_than_panel_exits_one(self, workspace, capsys):
        run(workspace, "ingest")
        run(workspace, "train")
        ckpt = workspace / "out" / "a2c.ckpt"
        run(workspace, "ingest", "--tickers", "AA")
        capsys.readouterr()
        assert run(workspace, "simulate", "--agent", str(ckpt), "--tickers", "AA") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint") and str(ckpt) in err
        assert "21-wide" in err and "11-wide" in err
        assert not (workspace / "out" / "log_a2c.csv").exists()


class TestEntrypoint:
    # features before any ingest finds no cached panel, so it exits 1
    @pytest.mark.parametrize("command, code", [("ingest", 0), ("features", 1)])
    def test_exits_with_the_status_of_main(self, workspace, monkeypatch, command, code):
        monkeypatch.setattr(sys, "argv", ["tradelab", command, "--config", str(workspace / "config.json")])
        with pytest.raises(SystemExit) as caught:
            entrypoint()
        assert caught.value.code == code


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["ingest", "--seed", "1"], ["ingest", "--split", "2022-03-06"],
        ["features", "--seed", "1"], ["features", "--split", "2022-03-06"],
        ["analyze", "--seed", "1", "log.csv"], ["analyze", "--tickers", "AA", "log.csv"],
        ["analyze", "--split", "2022-03-06", "log.csv"], ["report", "--seed", "1", "dir"],
        ["report", "--tickers", "AA", "dir"], ["report", "--split", "2022-03-06", "dir"],
    ], ids=lambda argv: f"{argv[0]}{argv[1]}")
    def test_a_flag_the_command_does_not_read_exits_two(self, workspace, capsys, argv):
        with pytest.raises(SystemExit) as caught:
            run(workspace, *argv)
        assert caught.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("argv", [["ingest"], ["features"], ["simulate", "--agent", "hold"], ["train"],
                                      ["analyze", "log.csv"], ["report", "dir"]], ids=lambda argv: argv[0])
    def test_every_command_takes_config_and_out(self, argv):
        args = build_parser().parse_args([*argv, "--config", "run.json", "--out", "o"])
        assert (args.config, args.out) == ("run.json", "o")


class TestOutFlag:
    @pytest.mark.parametrize("argv", [["features"], ["simulate", "--agent", "hold"], ["train"], ["analyze", "bad.csv"]],
                             ids=["features", "simulate", "train", "analyze"])
    def test_failed_command_makes_no_directory(self, workspace, capsys, argv):
        """A command that fails before it writes (no panel yet, a malformed
        log) leaves no empty output directory: only a written artifact makes it."""
        (workspace / "bad.csv").write_text("t,timestamp\r\n0,x\r\n")
        assert run(workspace, *(str(workspace / arg) if arg.endswith(".csv") else arg for arg in argv)) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (workspace / "out").exists()

    def test_out_override_redirects_everything(self, workspace):
        other = workspace / "elsewhere"
        assert run(workspace, "ingest", "--out", str(other)) == 0
        assert (other / "panel.bin").exists()
        assert not (workspace / "out" / "panel.bin").exists()

    def test_config_out_resolves_against_config_dir(self, workspace, monkeypatch):
        config = json.loads((workspace / "config.json").read_text())
        config["data"] = {ticker: f"../{p}" for ticker, p in config["data"].items()}
        config["out"] = "myout"
        (workspace / "sub").mkdir()
        (workspace / "sub" / "run.json").write_text(json.dumps(config))
        cwd = workspace / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["ingest", "--config", str(workspace / "sub" / "run.json")]) == 0
        assert (workspace / "sub" / "myout" / "panel.bin").exists()
        assert not (cwd / "myout").exists()
        # the --out flag still resolves against the working directory
        assert main(["ingest", "--config", str(workspace / "sub" / "run.json"), "--out", "flagout"]) == 0
        assert (cwd / "flagout" / "panel.bin").exists()
