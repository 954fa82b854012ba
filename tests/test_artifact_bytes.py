"""Byte pins for the column-at-a-time artifact writers and readers, and for
the panel alignment.

Each reference below is the cell-by-cell implementation that the column-wise
code replaced: ``csv.writer`` rows, ``json.dumps(indent=2)``, per-point
coordinate closures, ``datetime`` formatting and per-row parsing. The package
must reproduce its bytes, and its parsed arrays, exactly; the bar and aux
loaders must also raise the reference's errors. ``ref_read_csv_columns`` and
``ref_parse_csv_columns`` are the whole-file reader that the block reader
replaced: bars, aux series and episode logs must load through the block
reader with its arrays and its errors. ``ref_align_panel`` is the
per-ticker alignment loop with the guards that series which check their own
axes made unreachable; ``align_panel`` must build the same panel bit for bit.
"""

import csv
import dataclasses
import io
import json
import types
from datetime import datetime, timezone

import numpy as np
import pytest

from conftest import hourly_axis, make_features, make_walk_series
from tradelab import analytics, cli, svgchart
from tradelab.agents.a2c import TrainStats
from tradelab.analytics import ProfileComparison, behavior_profile, save_report, write_comparison_csv
from tradelab.env import (EnvConfig, EpisodeLog, MalformedLog, Window, _share_counts, load_episode_log, run_episode,
                          save_episode_log)
from tradelab.indicators import FEATURE_NAMES, write_features_csv
from tradelab.marketdata import (
    AuxSeries,
    BarSeries,
    EmptyIntersection,
    InvalidBar,
    MarketDataError,
    MarketPanel,
    _block_rows,
    _column_indices,
    align_panel,
    format_timestamp,
    format_timestamps,
    load_bars,
    load_series,
    parse_floats,
    parse_timestamp,
    parse_timestamps,
    quote_csv,
    write_panel_csv,
)

START = 1_646_380_800
OHLCV = ("open", "high", "low", "close", "volume")
COMPARISON_METRICS = ("final_cumulative_reward", "trader_score", "hhi", "max_shares_held")
YEAR_1000 = -30_610_224_000  # 1000-01-01T00:00:00Z
YEAR_10000 = 253_402_300_800  # 10000-01-01T00:00:00Z
YEAR_1 = -62_135_596_800  # 0001-01-01T00:00:00Z


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

def ref_format_timestamp(ts):
    stamp = datetime.fromtimestamp(int(ts), tz=timezone.utc)
    return f"{stamp.year:04d}" + stamp.strftime("-%m-%dT%H:%M:%SZ")


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
    stats = report.trade_stats
    doc = {
        "format": "tradelab-report-v1",
        "agent_label": report.agent_label,
        "timestamps": [int(v) for v in report.timestamps],
        "cumulative_reward": [float(v) for v in report.cumulative_reward],
        "integral_holding": [int(v) for v in report.integral_holding],
        "holdings_matrix": [[int(v) for v in row] for row in report.holdings_matrix],
        "trade_stats": {
            "trade_count": [int(v) for v in stats.trade_count],
            "total_turnover": [int(v) for v in stats.total_turnover],
            "max_shares_held": [int(v) for v in stats.max_shares_held],
            "stationarity_fraction": stats.stationarity_fraction,
            "mean_holding_run": stats.mean_holding_run,
        },
        "diversity": {name: getattr(report.diversity, name) for name in ("active_tickers", "hhi", "top1_share")},
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


def ref_write_panel_csv(panel, path):
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "ticker", "open", "high", "low", "close", "volume"])
        for t in range(panel.n_timestamps):
            stamp = ref_format_timestamp(panel.timestamps[t])
            for j, ticker in enumerate(panel.tickers):
                writer.writerow([
                    stamp,
                    ticker,
                    repr(float(panel.open[t, j])),
                    repr(float(panel.high[t, j])),
                    repr(float(panel.low[t, j])),
                    repr(float(panel.close[t, j])),
                    repr(float(panel.volume[t, j])),
                ])


def ref_write_features_csv(fp, path):
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "ticker", *FEATURE_NAMES])
        for t in range(fp.n_timestamps):
            stamp = ref_format_timestamp(fp.timestamps[t])
            for j, ticker in enumerate(fp.tickers):
                writer.writerow([stamp, ticker, *[repr(float(v)) for v in fp.features[t, j]]])


def ref_write_train_csvs(stats, directory):
    """The two CSVs of ``tradelab train``."""
    with (directory / "train_stats.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["update", "policy_loss", "value_loss", "entropy", "grad_norm"])
        rows = zip(stats.policy_losses, stats.value_losses, stats.entropies, stats.grad_norms)
        for k, (pl, vl, en, gn) in enumerate(rows):
            writer.writerow([k, repr(pl), repr(vl), repr(en), repr(gn)])
    with (directory / "episode_rewards.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["episode", "reward"])
        for k, reward in enumerate(stats.episode_rewards):
            writer.writerow([k, repr(reward)])


def ref_write_comparison_csv(comparison, path):
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["agent", *COMPARISON_METRICS])
        for i, label in enumerate(comparison.labels):
            row = {metric: getattr(comparison, metric)[i] for metric in COMPARISON_METRICS}
            writer.writerow(
                [label]
                + [
                    ""
                    if row[metric] is None
                    else (repr(float(row[metric])) if isinstance(row[metric], float) else row[metric])
                    for metric in COMPARISON_METRICS
                ]
            )


def ref_load_bars(path, ticker=None):
    """The row-at-a-time bar reader: parse up to the first unparsable row,
    then a bad bar before that row is the one reported."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, rows = rows[0], rows[1:]
    col = {key: header.index(key) for key in ("timestamp", *OHLCV)}
    name = ticker if ticker is not None else path.stem
    value_cols = [col[key] for key in OHLCV]
    records, row_nos, parse_error = [], [], None
    for row_no, row in enumerate(rows, start=2):
        try:
            records.append([parse_timestamp(row[col["timestamp"]])] + [float(row[i]) for i in value_cols])
        except (ValueError, IndexError) as exc:
            parse_error = InvalidBar(f"unparsable field: {exc}", path=path, row=row_no)
            break
        row_nos.append(row_no)
    if not records:
        raise parse_error or InvalidBar(f"no usable rows for ticker {name!r}", path=path)
    timestamps, *values = zip(*records)
    try:
        series = BarSeries(name, np.array(timestamps, dtype=np.int64), *(np.array(v) for v in values))
    except InvalidBar as exc:
        raise InvalidBar(exc.reason, path=path, row=row_nos[exc.index]) from None
    if parse_error is not None:
        raise parse_error
    return series


def ref_load_series(path, name):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, rows = rows[0], rows[1:]
    col = {key: header.index(key) for key in ("timestamp", "value")}
    parsed = []
    for offset, row in enumerate(rows):
        row_no = offset + 2
        try:
            parsed.append((parse_timestamp(row[col["timestamp"]]), float(row[col["value"]]), row_no))
        except (ValueError, IndexError) as exc:
            raise MarketDataError(f"unparsable field: {exc}", path=path, row=row_no) from None
    parsed.sort(key=lambda item: item[0])
    for prev, cur in zip(parsed, parsed[1:]):
        if cur[0] == prev[0]:
            raise MarketDataError(f"duplicate timestamp {ref_format_timestamp(cur[0])}", path=path, row=cur[2])
    return (np.array([p[0] for p in parsed], dtype=np.int64), np.array([p[1] for p in parsed]))


def ref_read_csv_columns(path, error, pick):
    """The whole-file column reader that the block reader replaced:
    ``(names, columns, short)``, with every row held as text."""
    try:
        with path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"not CSV text: {exc}", path=path) from None
    header = rows.pop(0) if rows else []
    indices = pick(header)
    width, short = max(indices) + 1, None
    if min(map(len, rows), default=width) < width:
        k = next(k for k, cells in enumerate(rows) if len(cells) < width)
        short = error(f"row has {len(rows[k])} cells, the header needs {width}", path=path, row=k + 2)
        del rows[k:]
    columns = list(zip(*rows)) or [()] * width
    return [header[j] for j in indices], [columns[j] for j in indices], short


def ref_parse_csv_columns(path, error, columns, fault=None):
    """Each ``(name, cells, parse)`` of ``columns`` parsed whole: the arrays up
    to the first faulty row and the ``error`` naming it, or ``fault``."""
    arrays, faults = [], [] if fault is None else [fault]
    for name, cells, parse in columns:
        try:
            arrays.append(parse(cells))
        except (ValueError, OverflowError) as reason:
            for row, cell in enumerate(cells, start=2):
                try:
                    parse((cell,))
                except (ValueError, OverflowError) as exc:
                    faults.append(error(f"unparsable field: {exc}", path=path, row=row, column=name))
                    break
            else:
                raise error(f"unparsable column: {reason}", path=path, column=name) from None
    if not faults:
        return arrays, None
    fault = min(faults, key=lambda exc: exc.row)
    return [parse(cells[: fault.row - 2]) for _, cells, parse in columns], fault


def ref_whole_load_bars(path):
    names, cells, short = ref_read_csv_columns(path, MarketDataError,
                                               lambda header: _column_indices(header, ("timestamp", *OHLCV), path))
    parsers = [parse_timestamps] + [parse_floats] * len(OHLCV)
    arrays, fault = ref_parse_csv_columns(path, InvalidBar, list(zip(names, cells, parsers)), short)
    if arrays[0].size == 0:
        raise fault or InvalidBar(f"no usable rows for ticker {path.stem!r}", path=path)
    try:
        series = BarSeries(path.stem, *arrays)
    except InvalidBar as exc:
        raise InvalidBar(exc.reason, path=path, row=exc.index + 2) from None
    if fault is not None:
        raise fault
    return [series.timestamps, *(getattr(series, name) for name in OHLCV)]


def ref_whole_load_series(path):
    names, cells, short = ref_read_csv_columns(path, MarketDataError,
                                               lambda header: _column_indices(header, ("timestamp", "value"), path))
    columns = list(zip(names, cells, (parse_timestamps, parse_floats)))
    (timestamps, values), fault = ref_parse_csv_columns(path, MarketDataError, columns, fault=short)
    if fault is not None:
        raise fault
    if timestamps.size == 0:
        raise MarketDataError("no rows for series 'vix'", path=path)
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]
    if (timestamps[1:] == timestamps[:-1]).any():
        k = int(np.argmax(timestamps[1:] == timestamps[:-1])) + 1
        raise MarketDataError(f"duplicate timestamp {format_timestamp(timestamps[k])}", path=path,
                              row=int(order[k]) + 2)
    return [timestamps, values[order]]


def ref_whole_load_episode_log(path):
    """The whole-file log reader, columns in header order, without a sidecar."""
    def pick(header):
        if tuple(header[:5]) != ("t", "timestamp", "cash", "portfolio_value", "reward"):
            raise MalformedLog(f"unexpected header {header[:5]}", path=path, row=1)
        action_cols = [i for i, name in enumerate(header) if name.startswith("action_")]
        hold_cols = [i for i, name in enumerate(header) if name.startswith("hold_")]
        if not action_cols or len(action_cols) != len(hold_cols):
            raise MalformedLog("action_*/hold_* columns missing or unbalanced", path=path, row=1)
        return [*range(1, 5), *action_cols, *hold_cols]

    names, cells, short = ref_read_csv_columns(path, MalformedLog, pick)
    n = (len(names) - 4) // 2
    cells[3] = cells[3][:-1]
    parsers = [parse_timestamps] + [parse_floats] * (3 + n) + [_share_counts] * n
    arrays, fault = ref_parse_csv_columns(path, MalformedLog, list(zip(names, cells, parsers)), fault=short)
    if fault is not None:
        raise fault
    timestamps, cash, values, rewards, *columns = arrays
    try:
        return EpisodeLog(timestamps=timestamps, actions=np.column_stack(columns[:n]),
                          holdings=np.column_stack(columns[n:]), cash=cash, portfolio_value=values,
                          rewards=rewards, agent_label=path.stem)
    except MalformedLog as exc:
        raise MalformedLog(exc.reason, path=path, row=exc.row, column=exc.column) from None


class UnfillableLeadingGap(MarketDataError):
    """The reference alignment's error for a series with no bar at or before
    a panel stamp."""


def ref_align_panel(series, aux=(), *, fill):
    series = list(series)
    aux = list(aux)
    if not series:
        raise ValueError("align_panel requires at least one BarSeries")
    if fill not in ("intersect", "forward-fill"):
        raise ValueError(f"unknown fill policy {fill!r}")
    tickers = [s.ticker for s in series]
    if len(set(tickers)) != len(tickers):
        raise ValueError("duplicate tickers in input series")

    axes = [s.timestamps for s in series] + [a.timestamps for a in aux]
    if fill == "intersect":
        timestamps = axes[0]
        for axis in axes[1:]:
            timestamps = np.intersect1d(timestamps, axis, assume_unique=True)
        if timestamps.size == 0:
            raise EmptyIntersection("no timestamp is common to all inputs")
    else:
        timestamps = axes[0]
        for axis in axes[1:]:
            timestamps = np.union1d(timestamps, axis)
        start = max(int(axis[0]) for axis in axes)
        timestamps = timestamps[timestamps >= start]
        if timestamps.size == 0:
            raise EmptyIntersection("no timestamps remain after dropping leading gaps")

    matrices = {name: np.empty((timestamps.size, len(series))) for name in OHLCV}
    for j, s in enumerate(series):
        idx = np.searchsorted(s.timestamps, timestamps, side="right") - 1
        if np.any(idx < 0):
            raise UnfillableLeadingGap(f"{s.ticker}: no observation at or before panel start")
        exact = s.timestamps[idx] == timestamps
        if fill == "intersect" and not exact.all():
            raise UnfillableLeadingGap(f"{s.ticker}: intersection produced a missing cell")
        last_close = s.close[idx]
        matrices["open"][:, j] = np.where(exact, s.open[idx], last_close)
        matrices["high"][:, j] = np.where(exact, s.high[idx], last_close)
        matrices["low"][:, j] = np.where(exact, s.low[idx], last_close)
        matrices["close"][:, j] = np.where(exact, s.close[idx], last_close)
        matrices["volume"][:, j] = np.where(exact, s.volume[idx], 0.0)

    aux_columns = {}
    for a in aux:
        idx = np.searchsorted(a.timestamps, timestamps, side="right") - 1
        if np.any(idx < 0):
            raise UnfillableLeadingGap(f"aux {a.name!r}: no observation at or before panel start")
        aux_columns[a.name] = a.values[idx]

    return MarketPanel(tickers=tuple(tickers), timestamps=timestamps, aux=aux_columns, **matrices)


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
    """An externally written log whose action cells hold -0.0, NaN and ±inf, and
    whose cash, values and rewards (which must be finite) hold -0.0,
    subnormals and numbers near the float64 limit."""
    path = tmp_path / "external.csv"
    path.write_text(
        "t,timestamp,cash,portfolio_value,reward,action_0,action_1,hold_0,hold_1\n"
        "0,2022-03-04T08:00:00Z,-0.0,1.5e300,1.7e308,-0.0,nan,0,3\n"
        "1,2022-03-04T09:00:00Z,5e-324,-1e-320,-1e-320,inf,-inf,1,3.0\n"
        "2,2022-03-04T10:00:00Z,1e-320,1.5e300,-0.0,0.1,-0.1,-0.0,7\n"
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
    # the writers join and write a block of rows at a time, as many as the cell budget holds of the
    # 3-ticker log's 11 columns: one full block, and a last block of one row
    block = _block_rows(11)
    one_block = _log(hourly_axis(START, block), rng.integers(0, 9, size=(block, 3)))
    blocks = _log(hourly_axis(START, 2 * block + 1), rng.integers(0, 9, size=(2 * block + 1, 3)))
    return {
        "one-ticker": one_ticker,
        "nonfinite": _nonfinite_log(tmp_path),
        "quoted-label": quoted,
        "hhi-none": never_held,
        "pre-1970": pre_1970,
        "years-1-to-9999": odd_years,
        "one-block": one_block,
        "two-blocks-and-one": blocks,
    }


LOG_CASES = ["one-ticker", "nonfinite", "quoted-label", "hhi-none", "pre-1970", "years-1-to-9999", "one-block",
             "two-blocks-and-one"]


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


def test_parse_timestamps_agrees_with_parse_timestamp_on_random_digits():
    rng = np.random.default_rng(12)
    # half with every digit random, so most dates are impossible; half with each field drawn
    # one past its range on both sides (month 0-13, day 0-32, ...), so most are possible
    digits = rng.integers(0, 10, size=(1000, 14)).tolist()
    fields = np.column_stack([rng.integers(0, 3, size=1000) * rng.integers(0, 10_000, size=1000),  # some year 0000
                              *(rng.integers(0, top + 1, size=1000) for top in (13, 32, 24, 60, 60))]).tolist()
    texts = ["{}{}{}{}-{}{}-{}{}T{}{}:{}{}:{}{}Z".format(*d) for d in digits]
    texts += ["{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format(*f) for f in fields]
    outcomes = set()
    for text in texts:
        try:
            expected = [parse_timestamp(text)]
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                parse_timestamps([text])
            assert str(caught.value) == str(exc), text
            outcomes.add("rejected")
        else:
            assert parse_timestamps([text]).tolist() == expected, text
            outcomes.add("parsed")
    assert outcomes == {"rejected", "parsed"}


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", LOG_CASES)
def test_save_episode_log_matches_csv_writer(tmp_path, case):
    log = _logs(tmp_path)[case]
    save_episode_log(log, tmp_path / "new.csv")
    ref_save_episode_log(log, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("case", LOG_CASES)
def test_save_report_matches_json_dumps_and_csv_writer(tmp_path, case):
    report = behavior_profile(_logs(tmp_path)[case])
    save_report(report, tmp_path / "new")
    ref_save_report(report, tmp_path / "ref")
    for name in ("report.json", "cumulative_reward.csv", "integral_holding.csv", "holdings_matrix.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_json_array_of_nothing_matches_json_dumps(depth):
    assert analytics._json_array([], depth) == json.dumps([], indent=2)


def test_save_report_spells_nonfinite_floats_like_json(tmp_path):
    report = behavior_profile(_logs(tmp_path)["hhi-none"])
    cumulative = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, -2.5, 0.1, 7.0, 1.0, 2.0])
    report = dataclasses.replace(report, cumulative_reward=cumulative)
    save_report(report, tmp_path / "new")
    ref_save_report(report, tmp_path / "ref")
    for name in ("report.json", "cumulative_reward.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
    assert "-Infinity" in (tmp_path / "new" / "report.json").read_text()


SHARED_X = np.arange(80.0) * 3600 + START  # one float64 array that every series passes, as cmd_report's t


def _shared_x_ys(extra):
    """Eight holdings-like series over SHARED_X: repeated whole numbers, with
    -0.0, 0.0 and ``extra`` at fixed steps."""
    ys = np.random.default_rng(6).integers(0, 30, size=(8, SHARED_X.size)).astype(np.float64)
    ys[:, 5], ys[:, 6], ys[2:, 40] = -0.0, 0.0, extra
    return list(ys)


@pytest.mark.parametrize(
    "series",
    [
        [("flat", [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])],
        [("single", [3.0], [-2.5])],
        [("a", [0.0, 1.0], [1.0, 2.0]), ("b", [7.0], [7.0]), ("flat", [0.0, 7.0], [3.0, 3.0])],
        [("walk", np.arange(400.0) * 3600 + START, np.random.default_rng(3).standard_normal(400).cumsum() * 1e4)],
        [(f"hold_{i}", np.arange(60.0), np.random.default_rng(i).integers(0, 300, size=60)) for i in range(12)],
        [("signed", [-1e-9, 0.0, 1e-9], [-0.0, 0.0, -1e-300])],
        [(f"hold_{i}", SHARED_X, ys) for i, ys in enumerate(_shared_x_ys(np.nan))],
        [(f"hold_{i}", SHARED_X, ys) for i, ys in enumerate(_shared_x_ys(0.0))],
    ],
    ids=["flat", "single-point", "legend", "walk", "many-series", "tiny-span", "shared-x-nan", "shared-x"],
)
def test_render_line_chart_matches_point_closures(series):
    assert svgchart.render_line_chart(series, title="t") == ref_render_line_chart(series, title="t")


@pytest.mark.parametrize(
    "values",
    [
        [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, np.nan, 1.005, 1.005, -0.004, 0.004, 5e-324],
        np.random.default_rng(4).integers(0, 40, size=300) * 11.3,
        np.random.default_rng(4).standard_normal(300) * 400.0,
    ],
    ids=["signed-zeros-nan-inf", "repeats", "distinct"],
)
def test_fmt_each_matches_fmt_per_value(values):
    values = np.array(values, dtype=np.float64)
    assert svgchart._fmt_each(values) == [svgchart._fmt(v) for v in values.tolist()]


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
    # cash, portfolio_value, reward (finite, as a log must hold them), then the action
    floats = [["1000.0", "-0.0", "1e-320", "nan"], ["5e-324", "1e300", "-2.5", "inf"],
              ["0.1", "0.2", "garbage-in-terminal-reward", "-inf"]]
    lines = ["t,timestamp,cash,portfolio_value,reward,action_0,hold_0,extra"]
    for t, (stamp, h, (a, b, c, d)) in enumerate(zip(stamps, hold, floats)):
        lines.append(f"{t},{stamp},{a},{b},{c},{d},{h},ignored")
    path = tmp_path / "external.csv"
    path.write_text("\n".join(lines) + "\n")
    log = load_episode_log(path)
    reference = ref_parse_log(path)
    for name, expected in reference.items():
        got = getattr(log, name)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("case", LOG_CASES)
def test_written_logs_read_back_like_the_row_parser(tmp_path, case):
    log = _logs(tmp_path)[case]
    save_episode_log(log, tmp_path / "log.csv")
    back = load_episode_log(tmp_path / "log.csv")
    for name, expected in ref_parse_log(tmp_path / "log.csv").items():
        assert getattr(back, name).tobytes() == expected.tobytes(), name


def test_years_below_1000_round_trip(tmp_path):
    log = _logs(tmp_path)["years-1-to-9999"]
    save_episode_log(log, tmp_path / "log.csv")
    stamps = [line.split(",")[1] for line in (tmp_path / "log.csv").read_text().splitlines()[1:]]
    assert stamps == ["0001-01-01T00:00:00Z", "0999-12-31T23:59:59Z", "1000-01-01T00:00:00Z", "9999-12-31T23:59:59Z"]
    assert np.array_equal(load_episode_log(tmp_path / "log.csv").timestamps, log.timestamps)


# ---------------------------------------------------------------------------
# the other CSV writers
# ---------------------------------------------------------------------------

TICKER_CASES = {
    "one-ticker": ["A"],
    "comma": ["A,B", "C"],
    "quote": ['Q"X', "plain", '"'],
    "line-breaks": ["cr\rx", "lf\ny", "crlf\r\nz"],
    "non-ascii": ["ünï", "∆x", "株"],
}


def _special_bars(rng, shape):
    """OHLCV matrices that hold the bar rule, with closes that include a
    subnormal, 1e300, 0.1 and 1e22, and volumes that include -0.0."""
    close = rng.normal(100.0, 30.0, size=shape) ** 2 + 1.0
    close.reshape(-1)[:4] = [5e-324, 1e300, 0.1, 1e22]
    volume = rng.integers(0, 1000, size=shape).astype(np.float64)
    volume.reshape(-1)[:2] = [-0.0, 0.0]
    return close * 0.95, close * 1.1, close * 0.9, close, volume


@pytest.mark.parametrize("case", list(TICKER_CASES))
def test_write_panel_csv_matches_csv_writer(tmp_path, case):
    tickers = TICKER_CASES[case]
    rng = np.random.default_rng(21)
    shape = (40, len(tickers))
    panel = MarketPanel(tickers, hourly_axis(START, 40), *_special_bars(rng, shape))
    write_panel_csv(panel, tmp_path / "new.csv")
    ref_write_panel_csv(panel, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# (tickers, bars); the last case's bars of 5 tickers are two blocks of features.csv's 10 columns and one row
FEATURE_ROWS = 2 * _block_rows(2 + len(FEATURE_NAMES)) + 1
FEATURE_CASES = {**{case: (tickers, 40) for case, tickers in TICKER_CASES.items()},
                 "two-blocks-and-one": (["A", "B,C", 'Q"X', "ünï", "lf\ny"], FEATURE_ROWS // 5)}


@pytest.mark.parametrize("case", list(FEATURE_CASES))
def test_write_features_csv_matches_csv_writer(tmp_path, case):
    tickers, bars = FEATURE_CASES[case]
    assert case != "two-blocks-and-one" or len(tickers) * bars == FEATURE_ROWS
    built = make_features([f"T{j}" for j in range(len(tickers))], bars, seed=3)
    features = dataclasses.replace(built, tickers=tuple(tickers))  # NaN through the warmup rows
    write_features_csv(features, tmp_path / "new.csv")
    ref_write_features_csv(features, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert np.isnan(features.features).any()


@pytest.mark.parametrize(
    "stats",
    [
        TrainStats(policy_losses=[0.5, -0.0, float("nan")], value_losses=[1e300, 5e-324, 2.0],
                   entropies=[float("inf"), -float("inf"), 0.1], grad_norms=[3.0, 0.25, 1e-7],
                   episode_rewards=[-12.5, float("nan"), 7.0]),
        TrainStats(),
    ],
    ids=["special-floats", "no-updates"],
)
def test_train_csvs_match_csv_writer(tmp_path, monkeypatch, stats):
    monkeypatch.setattr(cli, "_build_features", lambda cfg: make_features(["A"], 40))
    # a stand-in policy: cmd_train reads only the steps it trained, for its stdout line
    policy = types.SimpleNamespace(steps_trained=10 * stats.updates)
    monkeypatch.setattr(cli, "a2c_train", lambda cfg, factory: (policy, stats))
    monkeypatch.setattr(cli, "save_checkpoint", lambda policy, path: None)
    assert cli.cmd_train(cli.RunConfig(out=str(tmp_path / "new")), None) == 0
    (tmp_path / "ref").mkdir()
    ref_write_train_csvs(stats, tmp_path / "ref")
    for name in ("train_stats.csv", "episode_rewards.csv"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


@pytest.mark.parametrize(
    "labels, rewards, hhi",
    [
        (("alpha", "beta"), (1.5, -2.0), (None, 0.5)),
        (("a,b", 'q"x', "cr\rlf\n", "ünï ∆"), (np.nan, np.inf, -np.inf, -0.0), (0.25, None, np.nan, 1.0)),
    ],
    ids=["hhi-none", "quoted-labels-nonfinite"],
)
def test_write_comparison_csv_matches_csv_writer(tmp_path, labels, rewards, hhi):
    n = len(labels)
    comparison = ProfileComparison(
        labels=labels,
        final_cumulative_reward=tuple(float(v) for v in rewards),
        trader_score=tuple(np.linspace(0.0, 1.0, n).tolist()),
        hhi=hhi,
        max_shares_held=tuple(range(0, 7 * n, 7)),
    )
    write_comparison_csv(comparison, tmp_path / "new.csv")
    ref_write_comparison_csv(comparison, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_quote_csv_matches_csv_writer():
    rng = np.random.default_rng(8)
    alphabet = list('ab ,"\r\n\t;\'ü∆') + [""]
    for _ in range(3000):
        text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 8))).tolist())
        buffer = io.StringIO()
        csv.writer(buffer).writerow([text, "x"])
        assert quote_csv(text) + ",x\r\n" == buffer.getvalue(), repr(text)


# ---------------------------------------------------------------------------
# the bar and aux readers
# ---------------------------------------------------------------------------

def _outcome(load, *args):
    try:
        return load(*args)
    except (MarketDataError, MalformedLog) as exc:
        return exc


def _assert_same_outcome(got, expected):
    """Equal arrays, or the reference's error: its class and row, and its
    message once the column the package names is left out. A short row is
    reported as such, as a MarketDataError, where the reference ran out of
    cells."""
    if not isinstance(expected, Exception):
        assert not isinstance(got, Exception), got
        for ours, theirs in zip(got, expected):
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        return
    assert isinstance(got, MarketDataError), got
    assert got.row == expected.row
    if "list index out of range" in str(expected):
        assert type(got) is MarketDataError and "cells, the header needs" in str(got)
    else:
        assert type(got) is type(expected)
        assert str(got).replace(f"column {got.column!r}, ", "") == str(expected)


def _bars(series):
    return series if isinstance(series, Exception) else [series.timestamps, *(getattr(series, f) for f in OHLCV)]


GOOD = "2022-03-04T08:00:00Z,10,11,9,10.5,100"
GOOD_2 = "2022-03-04T09:00:00Z,10.5,12,10,11,200"
BAD_BAR = "2022-03-04T10:00:00Z,10.5,9.5,10,10.2,200"
BAD_CELL = "2022-03-04T10:00:00Z,ten,11,9,10.5,100"
BAD_STAMP = "2022-03-04T25:00:00Z,10,11,9,10.5,100"
SHORT = "2022-03-04T11:00:00Z,10,11"


@pytest.mark.parametrize(
    "rows",
    [
        ["2022-03-04T08:00:00Z,1,2,1,2,3", "1646384400,1,2,1,2,3", "2022-03-04T12:00:00+02:00,1,2,1,2,3",
         "2022-03-04 11:00:00,1,2,1,2,3", "2022-03-04T12:00:00.5Z,1,2,1,2,3", "2022-03-05,1,2,1,2,3"],
        [GOOD + ",extra", GOOD_2],
        [GOOD, GOOD_2, SHORT],
        [GOOD, BAD_BAR, SHORT],
        [GOOD, SHORT, BAD_BAR],
        [GOOD, BAD_CELL, SHORT],
        [GOOD, SHORT, BAD_CELL],
        [GOOD, "", GOOD_2],
        [BAD_STAMP, GOOD],
        [GOOD, GOOD_2, BAD_BAR, BAD_STAMP],
        [GOOD, "2022-03-04T10:00:00Z,ten,eleven,9,10.5,100"],
        [],
    ],
    ids=["mixed-stamps", "extra-cell", "short-last", "bad-bar-then-short", "short-then-bad-bar",
         "bad-cell-then-short", "short-then-bad-cell", "blank-line", "bad-stamp-first", "bad-bar-then-bad-stamp",
         "two-bad-cells", "header-only"],
)
def test_load_bars_matches_row_reader(tmp_path, rows):
    path = tmp_path / "AAA.csv"
    path.write_text("\n".join(["timestamp,open,high,low,close,volume", *rows]) + "\n")
    _assert_same_outcome(_bars(_outcome(load_bars, path)), _bars(_outcome(ref_load_bars, path)))


@pytest.mark.parametrize(
    "rows",
    [
        ["2022-03-04T10:00:00Z,3", "3600,1", "2022-03-04T09:00:00+01:00,2", "1970-01-01 00:30:00,0.5"],
        ["2022-03-04T08:00:00Z,1", "2022-03-04T09:00:00Z,2", "1646380800,3"],
        ["3600,1", "7200,2", "1970-01-01T02:00:00+00:00,3", "1970-01-01T01:00:00Z,4"],
        ["3600,1", "3600,2", "3600,3"],
        ["3600,1", "7200", "bad,3"],
        ["3600,1", "bad,2", "10800"],
        ["3600,1", "7200,two"],
    ],
    ids=["mixed-unsorted", "duplicate-forms", "two-duplicates", "triplicate", "short-then-bad", "bad-then-short",
         "bad-value"],
)
def test_load_series_matches_row_reader(tmp_path, rows):
    path = tmp_path / "vix.csv"
    path.write_text("\n".join(["timestamp,value", *rows]) + "\n")
    got = _outcome(load_series, path, "vix")
    got = got if isinstance(got, Exception) else [got.timestamps, got.values]
    _assert_same_outcome(got, _outcome(ref_load_series, path, "vix"))


def test_load_series_refuses_a_header_only_file(tmp_path):
    """The row reader read a header-only file as an empty series, which no
    alignment can use; the loader refuses it and names the file."""
    path = tmp_path / "vix.csv"
    path.write_text("timestamp,value\n")
    assert all(column.size == 0 for column in ref_load_series(path, "vix"))
    with pytest.raises(MarketDataError, match="no rows for series 'vix'") as caught:
        load_series(path, "vix")
    assert caught.value.path == str(path)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def _alignment_inputs(seed):
    """Seeded bar and aux series over one hourly base axis: each input keeps a
    random subset of it (dropped bars), some start late or end early (leading
    and trailing gaps), and a few volumes are -0.0."""
    rng = np.random.default_rng(seed)
    base = hourly_axis(START, int(rng.integers(3, 60)))

    def subset():
        keep = rng.random(base.size) > rng.uniform(0.0, 0.5)
        keep[: int(rng.integers(0, base.size // 3 + 1))] = False
        keep[base.size - int(rng.integers(0, base.size // 3 + 1)):] = False
        keep[int(rng.integers(0, base.size))] = True
        return base[keep]

    series = []
    for j in range(int(rng.integers(1, 6))):
        bars = make_walk_series(f"S{j}", subset(), rng)
        volume = np.where(rng.random(len(bars)) < 0.1, -0.0, bars.volume)
        series.append(dataclasses.replace(bars, volume=volume))
    aux = []
    for k in range(int(rng.integers(0, 3))):
        stamps = subset()
        aux.append(AuxSeries(f"aux{k}", stamps, rng.normal(18.0, 2.0, size=stamps.size)))
    return series, aux


@pytest.mark.parametrize("fill", ["intersect", "forward-fill"])
def test_align_panel_matches_the_reference_loop(fill):
    aligned = 0
    for seed in range(120):
        series, aux = _alignment_inputs(seed)
        got, expected = (_outcome(lambda: align(series, aux, fill=fill)) for align in (align_panel, ref_align_panel))
        if isinstance(expected, Exception):
            assert type(got) is type(expected) is EmptyIntersection, (seed, got, expected)
            continue
        aligned += 1
        assert got.tickers == expected.tickers
        for name in ("timestamps", *OHLCV):
            ours, theirs = getattr(got, name), getattr(expected, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, (seed, name)
            assert ours.tobytes() == theirs.tobytes(), (seed, name)
        assert list(got.aux) == list(expected.aux)
        assert all(got.aux[key].tobytes() == expected.aux[key].tobytes() for key in got.aux), seed
    assert aligned >= 60  # most seeds share stamps, so both paths build a panel


# ---------------------------------------------------------------------------
# the block reader against the whole-file reader
# ---------------------------------------------------------------------------

def _cell(j, text):
    """An edit of one data line: cell ``j`` replaced by ``text``."""
    def edit(line):
        cells = line.split(",")
        cells[j] = text
        return ",".join(cells)
    return edit


EDITS = {
    "bad-cell": _cell(-1, "x"),
    "short": lambda line: line.rsplit(",", 1)[0],
    "blank": lambda line: "",
    "bad-utf8": lambda line: line + "\udcff",
    "bad-reward-and-hold": lambda line: _cell(4, "r")(_cell(-1, "h")(line)),  # in a log
}


def _stamp(k):
    return ref_format_timestamp(START + 3600 * k)


READERS = {
    "bars": ("timestamp,open,high,low,close,volume",
             lambda k: f"{_stamp(k)},{10 + k % 7},{12 + k % 7},{9 + k % 7},{10.5 + k % 7},{k}",
             lambda path: _bars(load_bars(path)), ref_whole_load_bars),
    "aux": ("timestamp,value", lambda k: f"{_stamp(k)},{0.5 * k}",
            lambda path: _series_fields(load_series(path, "vix")), ref_whole_load_series),
    "log": ("t,timestamp,cash,portfolio_value,reward,action_0,action_1,hold_0,hold_1",
            lambda k: f"{k},{_stamp(k)},{1000.0 - k},{2000.0 + k},{0.25 * k},0.5,-0.5,{k},{k % 3}",
            lambda path: _log_fields(load_episode_log(path)),
            lambda path: _log_fields(ref_whole_load_episode_log(path))),
}


def _series_fields(series):
    return [series.timestamps, series.values]


def _log_fields(log):
    return [log.timestamps, log.actions, log.holdings, log.cash, log.portfolio_value, log.rewards]


def _reader_cases(reader):
    """(id, data rows, {data row index: edit}) for ``reader``, whose blocks hold
    the rows of its header's width that fit the cell budget: each fault at the
    last row of a block, the first row of the next one, and the file's last row."""
    B = _block_rows(READERS[reader][0].count(",") + 1)
    cases = [
        (f"{kind}-at-{where}", rows, {at: EDITS[kind]})
        for kind in ("bad-cell", "short", "blank")
        for where, rows, at in (("block-end", 2 * B + 3, B - 1), ("block-start", 2 * B + 3, B),
                                ("file-end", 2 * B + 3, 2 * B + 2), ("file-and-block-end", 2 * B, 2 * B - 1))
    ] + [
        ("clean-one-block", B, {}),
        ("clean-three-blocks", 2 * B + 3, {}),
        ("fault-in-block-1-bad-utf8-in-block-3", 2 * B + 9, {5: EDITS["bad-cell"], 2 * B + 4: EDITS["bad-utf8"]}),
        ("bad-utf8-in-block-3", 2 * B + 9, {2 * B + 4: EDITS["bad-utf8"]}),
        ("bad-utf8-in-blocks-1-and-3", 2 * B + 9, {3: EDITS["bad-utf8"], 2 * B + 4: EDITS["bad-utf8"]}),
        ("short-then-bad-utf8", 2 * B + 9, {B + 1: EDITS["short"], 2 * B + 8: EDITS["bad-utf8"]}),
        ("bad-cell-then-short-in-one-block", 40, {7: EDITS["bad-cell"], 9: EDITS["short"]}),
    ]
    if reader == "log":
        return cases + [
            # the terminal reward is never parsed: the file's last row, or the row before a short one
            (f"garbage-terminal-reward-{size}", rows, {rows - 1: _cell(4, "garbage")})
            for size, rows in (("2-rows", 2), ("one-block", B), ("one-block-and-one", B + 1),
                               ("three-blocks", 2 * B + 3))
        ] + [
            (f"garbage-terminal-reward-short-row-at-{where}", 2 * B + 3,
             {at - 1: _cell(4, "garbage"), at: EDITS["short"]})
            for where, at in (("row-5", 5), ("block-end", B - 1), ("block-start", B), ("block-start-and-one", B + 1))
        ] + [
            # a row with a bad reward and a bad holding reports the reward, unless it is the terminal row
            ("bad-reward-and-hold-in-one-row", 2 * B + 3, {B - 1: EDITS["bad-reward-and-hold"]}),
            ("bad-terminal-reward-and-hold", B, {B - 1: EDITS["bad-reward-and-hold"]}),
            ("bad-terminal-reward-and-hold-before-short", 2 * B + 3,
             {B - 1: EDITS["bad-reward-and-hold"], B: EDITS["short"]}),
            ("bad-reward-before-bad-hold", 2 * B + 3, {B + 4: _cell(4, "r"), B + 5: _cell(-1, "h")}),
            ("one-row", 1, {}),
        ]
    if reader == "bars":
        return cases + [
            ("bad-bar-then-bad-cell-in-block-2", 2 * B + 3, {10: _cell(2, "1"), B + 3: EDITS["bad-cell"]}),
            ("bad-cell-then-bad-bar", 2 * B + 3, {B - 1: EDITS["bad-cell"], B + 3: _cell(2, "1")}),
        ]
    return cases + [("duplicate-across-blocks", 2 * B + 3, {B + 2: _cell(0, _stamp(3))})]


def _reader_file(tmp_path, reader, rows, edits):
    header, row, _, _ = READERS[reader]
    lines = [header] + [edits.get(k, lambda line: line)(row(k)) for k in range(rows)]
    path = tmp_path / "AAA.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    return path


def _assert_same_load(got, expected):
    """Equal arrays bit for bit, or the same error: its class, row, column and message."""
    if isinstance(expected, Exception):
        assert isinstance(got, Exception), got
        assert (type(got), got.row, got.column, str(got)) == \
            (type(expected), expected.row, expected.column, str(expected))
        return
    assert not isinstance(got, Exception), got
    assert len(got) == len(expected)
    for ours, theirs in zip(got, expected):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize(
    "reader, rows, edits",
    [pytest.param(reader, rows, edits, id=f"{reader}-{case}")
     for reader in ("bars", "aux", "log") for case, rows, edits in _reader_cases(reader)],
)
def test_block_reader_loads_like_the_whole_file_reader(tmp_path, reader, rows, edits):
    path = _reader_file(tmp_path, reader, rows, edits)
    _, _, load, ref_load = READERS[reader]
    _assert_same_load(_outcome(load, path), _outcome(ref_load, path))


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("text", ["", "header-only"])
def test_block_reader_loads_an_empty_file_like_the_whole_file_reader(tmp_path, reader, text):
    header, _, load, ref_load = READERS[reader]
    path = tmp_path / "AAA.csv"
    path.write_text(f"{header}\n" if text else "")
    got = _outcome(load, path)
    assert isinstance(got, Exception)
    _assert_same_load(got, _outcome(ref_load, path))
