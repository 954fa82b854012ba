"""End-to-end CLI tests over a temporary workspace: every command, its error
paths, flag overrides, and byte-identical re-runs."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import hourly_axis, make_walk_series, write_bars_csv
from tradelab.analytics import behavior_profile, load_report
from tradelab.binfile import write_frame
from tradelab.cli import main
from tradelab.env import load_episode_log
from tradelab.marketdata import OHLCV, PANEL_MAGIC, format_timestamp, parse_timestamp

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
    "turb_window": None,
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

    def test_window_without_split(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "simulate", "--agent", "hold", "--window", "train") == 1
        assert "unavailable" in capsys.readouterr().err


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
        edit_config(workspace, "env", turbulence_gate=5.0)
        assert run(workspace, "ingest") == 0
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "turbulence gate needs indicators.turb_window, which is null" in err
        assert "Traceback" not in err


class TestTrain:
    def test_writes_checkpoint_and_stats(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "train") == 0
        out = capsys.readouterr().out
        steps = BARS - 16 - 1
        assert f"{200 // steps} episodes" in out
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
        assert run(workspace, "train") == 0
        assert (workspace / "out" / "a2c.ckpt").read_bytes() == first

    def test_timesteps_flag(self, workspace, capsys):
        run(workspace, "ingest")
        assert run(workspace, "train", "--timesteps", "120") == 0
        assert "trained 120 timesteps" in capsys.readouterr().out

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


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "section, value, names",
        [
            ("env", {"hmaxx": 5}, ["'env'", "'hmaxx'"]),
            ("env", {"hmax": "100"}, ["env.hmax", "int"]),
            ("indicators", {"rsi_period": 8.5}, ["indicators.rsi_period"]),
            ("a2c", {"hidden_sizes": [16]}, ["'a2c'", "hidden_sizes"]),
            ("a2c", [16, 16], ["'a2c'", "JSON object"]),
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
            (lambda config: {**config, "seed": [1]}, ["config field seed", "int", "[1]"]),
            (lambda config: [config], ["config must be a JSON object", "list"]),
            (lambda config: {**config, "outt": "elsewhere"}, ["unknown field 'outt'"]),
            (lambda config: {**config, "data": {"AA": 5}}, ["config field data", "dict[str, str]"]),
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

    def test_panel_without_tickers_exits_one(self, workspace, capsys):
        path = workspace / "out" / "panel.bin"
        path.parent.mkdir()
        write_frame(path, PANEL_MAGIC, {"tickers": [], "aux": [], "n_timestamps": 400},
                    [hourly_axis(START, 400), *(np.zeros((400, 0)) for _ in OHLCV)])
        assert run(workspace, "features") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least one ticker" in err and str(path) in err


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


class TestOutFlag:
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
