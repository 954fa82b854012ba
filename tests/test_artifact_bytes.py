"""Byte pins for the column-at-a-time artifact writers and readers.

Each reference below is the cell-by-cell implementation that the column-wise
code replaced: ``csv.writer`` rows, ``json.dumps(indent=2)``, per-point
coordinate closures, ``datetime`` formatting and per-row parsing. The package
must reproduce its bytes, and its parsed arrays, exactly.
"""

import csv
import dataclasses
import json
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import hourly_axis, make_features
from tradelab import svgchart
from tradelab.analytics import behavior_profile, save_report
from tradelab.env import EnvConfig, EpisodeLog, MalformedLog, Window, load_episode_log, run_episode, save_episode_log
from tradelab.marketdata import format_timestamp, format_timestamps, parse_timestamp, parse_timestamps

START = 1_646_380_800
YEAR_1000 = -30_610_224_000  # 1000-01-01T00:00:00Z
YEAR_10000 = 253_402_300_800  # 10000-01-01T00:00:00Z
YEAR_1 = -62_135_596_800  # 0001-01-01T00:00:00Z


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def ref_format_timestamp(ts):
    return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def ref_save_episode_log(log, path):
    n = log.n_tickers
    header = (
        ["t", "timestamp", "cash", "portfolio_value", "reward"]
        + [f"action_{i}" for i in range(n)]
        + [f"hold_{i}" for i in range(n)]
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t in range(log.n_timestamps):
            reward = log.rewards[t] if t < log.n_timestamps - 1 else 0.0
            writer.writerow(
                [
                    t,
                    ref_format_timestamp(log.timestamps[t]),
                    repr(float(log.cash[t])),
                    repr(float(log.portfolio_value[t])),
                    repr(float(reward)),
                ]
                + [repr(float(a)) for a in log.actions[t]]
                + [int(h) for h in log.holdings[t]]
            )


def ref_save_report(report, directory):
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": "tradelab-report-v1",
        "agent_label": report.agent_label,
        "timestamps": [int(v) for v in report.timestamps],
        "cumulative_reward": [float(v) for v in report.cumulative_reward],
        "integral_holding": [int(v) for v in report.integral_holding],
        "holdings_matrix": [[int(v) for v in row] for row in report.holdings_matrix],
        "trade_stats": report.trade_stats.to_dict(),
        "diversity": report.diversity.to_dict(),
        "trader_score": report.trader_score,
    }
    (directory / "report.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    with (directory / "cumulative_reward.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "timestamp", "cumulative_reward"])
        for k, value in enumerate(report.cumulative_reward):
            writer.writerow([k + 1, ref_format_timestamp(report.timestamps[k + 1]), repr(float(value))])
    with (directory / "integral_holding.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ticker", "integral_holding"])
        for i, value in enumerate(report.integral_holding):
            writer.writerow([i, int(value)])
    n = report.holdings_matrix.shape[1]
    with (directory / "holdings_matrix.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "timestamp"] + [f"hold_{i}" for i in range(n)])
        for t in range(report.holdings_matrix.shape[0]):
            writer.writerow(
                [t, ref_format_timestamp(report.timestamps[t])] + [int(v) for v in report.holdings_matrix[t]]
            )


def ref_render_line_chart(series, title=""):
    series = [(str(label), np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64))
              for label, xs, ys in series]
    legend = len(series) > 1
    plot_right = svgchart._W - svgchart._MR - (svgchart._LEGEND_W if legend else 0.0)
    x0, x1 = svgchart._span(min(xs.min() for _, xs, _ in series), max(xs.max() for _, xs, _ in series))
    y0, y1 = svgchart._span(min(ys.min() for _, _, ys in series), max(ys.max() for _, _, ys in series))
    fmt = svgchart._fmt

    def px(v):
        return svgchart._ML + (v - x0) / (x1 - x0) * (plot_right - svgchart._ML)

    def py(v):
        return svgchart._H - svgchart._MB - (v - y0) / (y1 - y0) * (svgchart._H - svgchart._MB - svgchart._MT)

    body = svgchart._axes(x0, x1, y0, y1, plot_right)
    for i, (label, xs, ys) in enumerate(series):
        color = svgchart.COLORS[i % len(svgchart.COLORS)]
        points = " ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in zip(xs, ys))
        body.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if legend:
            ly = svgchart._MT + 14 * i
            lx = plot_right + 12
            body.append(f'<rect x="{fmt(lx)}" y="{fmt(ly)}" width="10" height="10" fill="{color}"/>')
            body.append(
                f'<text x="{fmt(lx + 14)}" y="{fmt(ly + 9)}" font-size="11" '
                f'fill="#333">{svgchart._escape(label)}</text>'
            )
    return svgchart._frame(title, body)


def ref_parse_log(path):
    """The per-row parse of the log body (header checks are unchanged)."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    action_cols = [i for i, name in enumerate(header) if name.startswith("action_")]
    hold_cols = [i for i, name in enumerate(header) if name.startswith("hold_")]
    return {
        "timestamps": np.array([parse_timestamp(r[1]) for r in body], dtype=np.int64),
        "cash": np.array([float(r[2]) for r in body]),
        "portfolio_value": np.array([float(r[3]) for r in body]),
        "rewards": np.array([float(r[4]) for r in body[:-1]]),
        "actions": np.array([[float(r[i]) for i in action_cols] for r in body]),
        "holdings": np.array([[int(float(r[i])) for i in hold_cols] for r in body], dtype=np.int64),
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

class _Random:
    label = "random"

    def act(self, observation, rng):
        n = (observation.shape[0] - 1) // 10
        return rng.uniform(-1.0, 1.0, size=n)


def _log(timestamps, holdings, label="agent"):
    rng = np.random.default_rng(5)
    t, n = holdings.shape
    return EpisodeLog(
        timestamps=timestamps,
        actions=rng.uniform(-1.0, 1.0, size=(t, n)),
        holdings=holdings,
        cash=rng.uniform(0.0, 1e6, size=t),
        portfolio_value=rng.uniform(1e5, 2e6, size=t),
        rewards=rng.standard_normal(t - 1) * 100.0,
        agent_label=label,
    )


def _nonfinite_log(tmp_path):
    """An externally written log whose float cells hold -0.0, NaN and ±inf."""
    path = tmp_path / "external.csv"
    path.write_text(
        "t,timestamp,cash,portfolio_value,reward,action_0,action_1,hold_0,hold_1\n"
        "0,2022-03-04T08:00:00Z,-0.0,inf,nan,-0.0,nan,0,3\n"
        "1,2022-03-04T09:00:00Z,nan,-inf,inf,inf,-inf,1,3.0\n"
        "2,2022-03-04T10:00:00Z,1e-320,1.5e300,-inf,0.1,-0.1,-0.0,7\n"
        "3,2022-03-04T11:00:00Z,0.1,0.2,0.0,1.0,-1.0,2,7\n"
    )
    return load_episode_log(path)


def _logs(tmp_path):
    rng = np.random.default_rng(11)
    one_ticker = run_episode(_Random(), EnvConfig(hmax=10), make_features(["A"], 50, seed=4), Window(16, 50), seed=2)
    quoted = _log(hourly_axis(START, 30), rng.integers(0, 9, size=(30, 3)), label='a "quoted", ünïcode ∆ label')
    never_held = _log(hourly_axis(START, 12), np.zeros((12, 2), dtype=np.int64))
    pre_1970 = _log(hourly_axis(-10 * 3600 - 1, 20), rng.integers(0, 4, size=(20, 2)))
    odd_years = _log(np.array([YEAR_1, YEAR_1000 - 1, YEAR_1000, YEAR_10000 - 1]), rng.integers(0, 4, size=(4, 2)))
    return {
        "one-ticker": one_ticker,
        "nonfinite": _nonfinite_log(tmp_path),
        "quoted-label": quoted,
        "hhi-none": never_held,
        "pre-1970": pre_1970,
        "years-1-to-9999": odd_years,
    }


LOG_CASES = ["one-ticker", "nonfinite", "quoted-label", "hhi-none", "pre-1970", "years-1-to-9999"]


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

def test_format_timestamps_matches_strftime():
    rng = np.random.default_rng(0)
    edges = [0, -1, 1, START, YEAR_1, YEAR_1 + 1, YEAR_1000 - 1, YEAR_1000, YEAR_10000 - 1]
    stamps = np.concatenate([edges, rng.integers(YEAR_1, YEAR_10000, size=5000)]).astype(np.int64)
    assert format_timestamps(stamps) == [ref_format_timestamp(ts) for ts in stamps]
    assert [format_timestamp(ts) for ts in edges] == [ref_format_timestamp(ts) for ts in edges]
    assert format_timestamps([]) == []


@pytest.mark.parametrize("ts", [YEAR_10000, YEAR_1 - 1])
def test_format_timestamps_raises_like_strftime_beyond_year_9999(ts):
    with pytest.raises(ValueError) as expected:
        ref_format_timestamp(ts)
    with pytest.raises(ValueError) as caught:
        format_timestamps([START, ts])
    assert str(caught.value) == str(expected.value)


def test_parse_timestamps_uniform_matches_parse_timestamp():
    rng = np.random.default_rng(1)
    stamps = np.concatenate([[0, -1, START, YEAR_1, YEAR_10000 - 1, 951_782_400],  # 951782400: 2000-02-29
                             rng.integers(YEAR_1, YEAR_10000, size=5000)]).astype(np.int64)
    # zero-padded years, which strftime does not give below year 1000
    texts = [np.datetime_as_string(np.datetime64(int(ts), "s")) + "Z" for ts in stamps]
    assert all(len(text) == 20 for text in texts)
    parsed = parse_timestamps(texts)
    assert parsed.dtype == np.int64
    assert parsed.tolist() == [parse_timestamp(text) for text in texts] == stamps.tolist()
    assert parse_timestamps(tuple(texts)).tolist() == stamps.tolist()


@pytest.mark.parametrize(
    "texts",
    [
        ["3600", "-7200", "0"],
        ["2022-03-04T10:00:00+02:00", "2022-03-04T09:00:00+01:00"],
        ["2022-03-04T08:00:00Z", "1646384400", "2022-03-04 10:00:00", "2022-03-04T13:00:00+02:00", "2022-03-05"],
        ["2022-03-04T08:00:00Z", " 2022-03-04T09:00:00Z"],
        ["2022-03-04X08:00:00Z", "2022-03-04T08:00:00.5Z", "20220304T080000Z"],
    ],
    ids=["epoch", "offsets", "mixed", "padded", "other-separator"],
)
def test_parse_timestamps_other_forms_match_parse_timestamp(texts):
    assert parse_timestamps(texts).tolist() == [parse_timestamp(text) for text in texts]


@pytest.mark.parametrize(
    "bad",
    ["2023-02-29T00:00:00Z", "2022-04-31T00:00:00Z", "2022-13-01T00:00:00Z", "2022-00-10T00:00:00Z",
     "2022-03-00T00:00:00Z", "2022-03-04T24:00:00Z", "2022-03-04T08:60:00Z", "2022-03-04T08:00:60Z",
     "0000-01-01T00:00:00Z", "2022-03-04T08:00:0aZ", "2022-03-04T08:00:00z", "２０２２-03-04T08:00:00Z"],
)
def test_parse_timestamps_rejects_what_parse_timestamp_rejects(bad):
    with pytest.raises(ValueError) as expected:
        parse_timestamp(bad)
    with pytest.raises(ValueError) as caught:
        parse_timestamps(["2022-03-04T08:00:00Z", bad])
    assert str(caught.value) == str(expected.value)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", LOG_CASES)
def test_save_episode_log_matches_csv_writer(tmp_path, case):
    log = _logs(tmp_path)[case]
    save_episode_log(log, tmp_path / "new.csv")
    ref_save_episode_log(log, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_save_episode_log_beyond_year_9999_raises_like_csv_writer(tmp_path):
    log = _log(np.array([YEAR_10000 - 1, YEAR_10000]), np.zeros((2, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        ref_save_episode_log(log, tmp_path / "ref.csv")
    with pytest.raises(ValueError):
        save_episode_log(log, tmp_path / "new.csv")


@pytest.mark.parametrize("case", LOG_CASES)
def test_save_report_matches_json_dumps_and_csv_writer(tmp_path, case):
    report = behavior_profile(_logs(tmp_path)[case])
    save_report(report, tmp_path / "new")
    ref_save_report(report, tmp_path / "ref")
    for name in ("report.json", "cumulative_reward.csv", "integral_holding.csv", "holdings_matrix.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_save_report_spells_nonfinite_floats_like_json(tmp_path):
    report = behavior_profile(_logs(tmp_path)["hhi-none"])
    cumulative = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -2.5, 0.1, 7.0, 1.0, 2.0])
    report = dataclasses.replace(report, cumulative_reward=cumulative, trader_score=float("nan"))
    save_report(report, tmp_path / "new")
    ref_save_report(report, tmp_path / "ref")
    for name in ("report.json", "cumulative_reward.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
    assert "-Infinity" in (tmp_path / "new" / "report.json").read_text()


@pytest.mark.parametrize(
    "series",
    [
        [("flat", [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])],
        [("single", [3.0], [-2.5])],
        [("a", [0.0, 1.0], [1.0, 2.0]), ("b", [7.0], [7.0]), ("flat", [0.0, 7.0], [3.0, 3.0])],
        [("walk", np.arange(400.0) * 3600 + START, np.random.default_rng(3).standard_normal(400).cumsum() * 1e4)],
        [(f"hold_{i}", np.arange(60.0), np.random.default_rng(i).integers(0, 300, size=60)) for i in range(12)],
        [("signed", [-1e-9, 0.0, 1e-9], [-0.0, 0.0, -1e-300])],
    ],
    ids=["flat", "single-point", "legend", "walk", "many-series", "tiny-span"],
)
def test_render_line_chart_matches_point_closures(series):
    assert svgchart.render_line_chart(series, title="t") == ref_render_line_chart(series, title="t")


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "stamps, hold",
    [
        (["3600", "7200", "10800"], ["1", "2", "3"]),
        (["2022-03-04T10:00:00+02:00", "2022-03-04T11:00:00+02:00", "2022-03-04T12:00:00+02:00"], ["0", "0", "5"]),
        (["2022-03-04T08:00:00Z", "1646384400", "2022-03-04T12:00:00+02:00"], ["3.0", "4.000", "-0.0"]),
        (["1969-12-31T22:00:00Z", "1969-12-31T23:00:00Z", "1970-01-01T00:00:00Z"], ["1e2", "12", "7"]),
    ],
    ids=["epoch", "offsets", "mixed", "pre-1970"],
)
def test_load_episode_log_matches_row_parser(tmp_path, stamps, hold):
    floats = [["1000.0", "-0.0", "nan"], ["inf", "-inf", "1e-320"], ["0.1", "0.2", "garbage-in-terminal-reward"]]
    lines = ["t,timestamp,cash,portfolio_value,reward,action_0,hold_0,extra"]
    for t, (stamp, h, (a, b, c)) in enumerate(zip(stamps, hold, floats)):
        lines.append(f"{t},{stamp},{a},{b},{c},{a},{h},ignored")
    path = tmp_path / "external.csv"
    path.write_text("\n".join(lines) + "\n")
    log = load_episode_log(path)
    reference = ref_parse_log(path)
    for name, expected in reference.items():
        got = getattr(log, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("case", LOG_CASES[:-1])  # years below 1000 print unpadded, which no parser reads
def test_written_logs_read_back_like_the_row_parser(tmp_path, case):
    log = _logs(tmp_path)[case]
    save_episode_log(log, tmp_path / "log.csv")
    back = load_episode_log(tmp_path / "log.csv")
    for name, expected in ref_parse_log(tmp_path / "log.csv").items():
        assert getattr(back, name).tobytes() == expected.tobytes(), name


def test_unpadded_years_fail_closed_as_before(tmp_path):
    save_episode_log(_logs(tmp_path)["years-1-to-9999"], tmp_path / "log.csv")
    with pytest.raises(ValueError):
        ref_parse_log(tmp_path / "log.csv")
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(tmp_path / "log.csv")
    assert "column 'timestamp', row 2" in str(caught.value)
