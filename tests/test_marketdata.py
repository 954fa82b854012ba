"""Loader, alignment, and cache behavior, checked against brute-force oracles."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import HOUR, hourly_axis, make_features, make_walk_series, write_bars_csv
from tradelab.agents import RandomPolicy
from tradelab.binfile import MalformedFile, write_frame
from tradelab.env import EnvConfig, Window, load_episode_log, run_episode, save_episode_log
from tradelab.errors import TradeLabError
from tradelab.marketdata import (
    OHLCV,
    PANEL_MAGIC,
    AuxSeries,
    BarSeries,
    DuplicateTimestamp,
    EmptyIntersection,
    InvalidBar,
    MarketDataError,
    MarketPanel,
    SchemaMismatch,
    align_panel,
    format_timestamp,
    load_bars,
    load_panel,
    load_series,
    parse_floats,
    parse_timestamp,
    parse_timestamps,
    read_csv_columns,
    save_panel,
    write_panel_csv,
)

T0 = parse_timestamp("2022-03-04T08:00:00Z")


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------

def test_parse_timestamp_variants():
    assert parse_timestamp("1970-01-01T00:00:00Z") == 0
    assert parse_timestamp("1970-01-01T01:00:00+01:00") == 0
    assert parse_timestamp("1970-01-01 00:00:00") == 0  # naive means UTC
    assert parse_timestamp("3600") == 3600
    assert parse_timestamp("2023-12-01") == parse_timestamp("2023-12-01T00:00:00Z")


def test_format_round_trip():
    for ts in (0, T0, 1_701_388_800):
        assert parse_timestamp(format_timestamp(ts)) == ts


def test_parse_timestamp_garbage():
    with pytest.raises(ValueError):
        parse_timestamp("not-a-time")


@pytest.mark.parametrize("text", ["253402300800", "-62135596801", "9999-12-31T23:00:00-02:00",
                                  "0001-01-01T00:00:00+01:00"])
def test_parse_timestamp_outside_years_1_to_9999(text):
    with pytest.raises(ValueError, match="years 1-9999"):
        parse_timestamp(text)
    with pytest.raises(ValueError, match="years 1-9999"):
        parse_timestamps([text])


def test_parse_timestamp_accepts_the_ends_of_years_1_to_9999():
    assert parse_timestamp("253402300799") == parse_timestamp("9999-12-31T23:59:59Z")
    assert parse_timestamp("-62135596800") == parse_timestamp("0001-01-01T00:00:00Z")


# ---------------------------------------------------------------------------
# load_bars
# ---------------------------------------------------------------------------

def test_load_bars_well_formed(tmp_path):
    path = tmp_path / "AAA.csv"
    path.write_text(
        "timestamp,open,high,low,close,volume\n"
        "2022-03-04T08:00:00Z,10,11,9,10.5,100\n"
        "2022-03-04T09:00:00Z,10.5,12,10,11,200\n"
        "2022-03-04T10:00:00Z,11,11.5,10.8,11.2,50\n"
    )
    series = load_bars(path)
    assert series.ticker == "AAA"
    assert len(series) == 3
    assert np.all(np.diff(series.timestamps) > 0)
    assert series.close[1] == 11.0


def test_load_bars_high_below_low(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,open,high,low,close,volume\n"
        "2022-03-04T08:00:00Z,10,11,9,10.5,100\n"
        "2022-03-04T09:00:00Z,10.5,9.5,10,10.2,200\n"
    )
    with pytest.raises(InvalidBar) as err:
        load_bars(path)
    assert err.value.row == 3
    assert "bad.csv" in str(err.value)


def test_load_bars_open_outside_range(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,open,high,low,close,volume\n"
        "2022-03-04T08:00:00Z,12,11,9,10.5,100\n"
    )
    with pytest.raises(InvalidBar) as err:
        load_bars(path)
    assert err.value.row == 2


def test_load_bars_unparsable_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,open,high,low,close,volume\n"
        "2022-03-04T08:00:00Z,ten,11,9,10.5,100\n"
    )
    with pytest.raises(InvalidBar) as err:
        load_bars(path)
    assert err.value.row == 2


def test_load_bars_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,open,high,low,close\n2022-03-04T08:00:00Z,10,11,9,10.5\n")
    with pytest.raises(SchemaMismatch) as err:
        load_bars(path)
    assert "volume" in str(err.value)
    assert err.value.row == 1


def test_load_bars_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_bars(tmp_path / "absent.csv")


def test_load_bars_non_monotonic(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "timestamp,open,high,low,close,volume\n"
        "2022-03-04T09:00:00Z,10,11,9,10.5,100\n"
        "2022-03-04T08:00:00Z,10,11,9,10.5,100\n"
    )
    with pytest.raises(InvalidBar) as err:
        load_bars(path)
    assert err.value.row == 3


GOOD_ROW = "2022-03-04T08:00:00Z,10,11,9,10.5,100"
HIGH_BELOW_LOW_ROW = "2022-03-04T09:00:00Z,10.5,9.5,10,10.2,200"
UNPARSABLE_ROW = "2022-03-04T10:00:00Z,ten,11,9,10.5,100"


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([GOOD_ROW, HIGH_BELOW_LOW_ROW, UNPARSABLE_ROW], "low 10.0 above high 9.5"),
        ([GOOD_ROW, UNPARSABLE_ROW, HIGH_BELOW_LOW_ROW], "unparsable field"),
        (["2022-03-04T09:00:00Z,10,11,9,10.5,100", GOOD_ROW, UNPARSABLE_ROW], "timestamp not strictly increasing"),
        ([GOOD_ROW, "2022-03-04T07:00:00Z,10,11,9,10.5,-1"], "negative volume"),  # outranks the order fault
    ],
    ids=["invariant-before-parse", "parse-before-invariant", "order-before-parse", "two-faults-one-row"],
)
def test_load_bars_reports_first_bad_row(tmp_path, rows, reason):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["timestamp,open,high,low,close,volume", *rows]) + "\n")
    with pytest.raises(InvalidBar) as err:
        load_bars(path)
    assert err.value.row == 3
    assert str(err.value).startswith(reason)
    assert "bad.csv" in str(err.value)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("close", np.nan, "non-finite field"),
        ("low", -1.0, "non-positive price"),
        ("volume", -1.0, "negative volume"),
        ("high", 8.0, "low 9.0 above high 8.0"),
        ("open", 11.5, "open 11.5 outside [low, high]"),
        ("close", 8.5, "close 8.5 outside [low, high]"),
        ("timestamps", T0, "timestamp not strictly increasing"),
    ],
)
def test_bar_series_reports_first_fault(field, value, reason):
    columns = {"timestamps": hourly_axis(T0, 3), "open": 10.0, "high": 11.0, "low": 9.0, "close": 10.5, "volume": 100.0}
    columns = {name: np.full(3, v) if np.ndim(v) == 0 else v for name, v in columns.items()}
    columns[field][1] = value
    with pytest.raises(InvalidBar) as err:
        BarSeries("AAA", **columns)
    assert err.value.index == 1
    assert str(err.value) == f"AAA: {reason} at index 1"


def test_load_bars_round_trip(tmp_path, rng):
    # write-then-read oracle: 100 synthetic rows survive bit-identically
    original = make_walk_series("RT", hourly_axis(T0, 100), rng)
    path = tmp_path / "RT.csv"
    write_bars_csv(path, original)
    loaded = load_bars(path)
    assert np.array_equal(loaded.timestamps, original.timestamps)
    for field in ("open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(loaded, field), getattr(original, field)), field


# ---------------------------------------------------------------------------
# load_series
# ---------------------------------------------------------------------------

def test_load_series_basic(tmp_path):
    path = tmp_path / "vix.csv"
    lines = ["timestamp,value"]
    for i in range(5):
        lines.append(f"{format_timestamp(T0 + i * HOUR)},{15.0 + i}")
    path.write_text("\n".join(lines) + "\n")
    series = load_series(path, "vix")
    assert series.name == "vix"
    assert len(series) == 5
    assert series.values[-1] == 19.0


def test_load_series_duplicate_timestamp(tmp_path):
    path = tmp_path / "vix.csv"
    stamp = format_timestamp(T0)
    path.write_text(f"timestamp,value\n{stamp},15\n{stamp},16\n")
    with pytest.raises(DuplicateTimestamp):
        load_series(path, "vix")


def test_load_series_sorts_rows(tmp_path):
    path = tmp_path / "vix.csv"
    path.write_text(
        "timestamp,value\n"
        f"{format_timestamp(T0 + HOUR)},16\n"
        f"{format_timestamp(T0)},15\n"
    )
    series = load_series(path, "vix")
    assert list(series.values) == [15.0, 16.0]


def test_load_series_round_trip(tmp_path, rng):
    # write-then-read oracle on 50 synthetic values
    timestamps = hourly_axis(T0, 50)
    values = rng.normal(20, 3, size=50)
    path = tmp_path / "aux.csv"
    lines = ["timestamp,value"]
    for ts, v in zip(timestamps, values):
        lines.append(f"{format_timestamp(ts)},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")
    series = load_series(path, "aux")
    assert np.array_equal(series.timestamps, timestamps)
    assert np.array_equal(series.values, values)


# ---------------------------------------------------------------------------
# align_panel
# ---------------------------------------------------------------------------

def test_align_identical_axes(rng):
    timestamps = hourly_axis(T0, 40)
    series = [make_walk_series(t, timestamps, rng) for t in ("AAA", "BBB")]
    panel = align_panel(series, fill="intersect")
    assert panel.n_timestamps == 40
    assert panel.tickers == ("AAA", "BBB")
    assert np.array_equal(panel.close[:, 0], series[0].close)


def test_align_intersect_drops_missing(rng):
    t1, t2, t3 = T0, T0 + HOUR, T0 + 2 * HOUR
    a = make_walk_series("AAA", np.array([t1, t2, t3]), rng)
    b = make_walk_series("BBB", np.array([t2, t3]), rng)
    panel = align_panel([a, b], fill="intersect")
    assert panel.n_timestamps == 2
    assert list(panel.timestamps) == [t2, t3]


def test_align_intersect_set_oracle(rng):
    # randomized subsets vs the brute-force set intersection
    base = hourly_axis(T0, 200)
    for trial in range(20):
        axes = [np.sort(rng.choice(base, size=rng.integers(50, 200), replace=False)) for _ in range(3)]
        series = [make_walk_series(f"S{k}", axes[k], rng) for k in range(3)]
        expected = sorted(set(axes[0]) & set(axes[1]) & set(axes[2]))
        if not expected:
            continue
        panel = align_panel(series, fill="intersect")
        assert list(panel.timestamps) == expected


def test_align_intersect_empty(rng):
    a = make_walk_series("AAA", hourly_axis(T0, 5), rng)
    b = make_walk_series("BBB", hourly_axis(T0 + 100 * HOUR, 5), rng)
    with pytest.raises(EmptyIntersection):
        align_panel([a, b], fill="intersect")


def test_align_forward_fill_scan_oracle(rng):
    # randomized gap pattern: every filled cell must equal the most recent
    # prior close and carry volume 0, by direct linear scan
    base = hourly_axis(T0, 300)
    axes = []
    for k in range(4):
        keep = rng.random(300) > 0.3
        keep[rng.integers(0, 10)] = True  # guarantee an early start
        axes.append(base[keep])
    series = [make_walk_series(f"S{k}", axes[k], rng) for k in range(4)]
    panel = align_panel(series, fill="forward-fill")

    start = max(int(ax[0]) for ax in axes)
    expected_axis = sorted(set(np.concatenate(axes)[np.concatenate(axes) >= start]))
    assert list(panel.timestamps) == expected_axis

    for j, s in enumerate(series):
        lookup = {int(ts): i for i, ts in enumerate(s.timestamps)}
        last = None
        for t, ts in enumerate(panel.timestamps):
            if int(ts) in lookup:
                last = lookup[int(ts)]
                assert panel.close[t, j] == s.close[last]
                assert panel.volume[t, j] == s.volume[last]
            else:
                assert last is not None
                ref = s.close[last]
                assert panel.open[t, j] == ref
                assert panel.high[t, j] == ref
                assert panel.low[t, j] == ref
                assert panel.close[t, j] == ref
                assert panel.volume[t, j] == 0.0


def test_align_forward_fill_leading_gap_bounds_start(rng):
    a = make_walk_series("AAA", hourly_axis(T0, 50), rng)
    b = make_walk_series("BBB", hourly_axis(T0 + 10 * HOUR, 40), rng)
    panel = align_panel([a, b], fill="forward-fill")
    assert panel.timestamps[0] == T0 + 10 * HOUR
    assert panel.n_timestamps == 40


def test_align_aux_forward_fills(rng):
    timestamps = hourly_axis(T0, 20)
    a = make_walk_series("AAA", timestamps, rng)
    vix = AuxSeries("vix", timestamps[::2], np.arange(10, dtype=float))
    panel = align_panel([a], aux=[vix], fill="forward-fill")
    assert panel.n_timestamps == 20
    assert list(panel.aux["vix"][:4]) == [0.0, 0.0, 1.0, 1.0]


def test_align_panel_invariants_hold(rng):
    base = hourly_axis(T0, 120)
    axes = [base[rng.random(120) > 0.2] for _ in range(3)]
    axes = [np.concatenate([base[:1], ax]) if ax[0] != base[0] else ax for ax in axes]
    axes = [np.unique(ax) for ax in axes]
    series = [make_walk_series(f"S{k}", axes[k], rng) for k in range(3)]
    panel = align_panel(series, fill="forward-fill")
    assert np.all(panel.low <= panel.high)
    assert np.all((panel.low <= panel.open) & (panel.open <= panel.high))
    assert np.all((panel.low <= panel.close) & (panel.close <= panel.high))
    assert np.all(panel.open > 0) and np.all(panel.volume >= 0)


def test_panel_arrays_read_only(rng):
    panel = align_panel([make_walk_series("AAA", hourly_axis(T0, 5), rng)], fill="intersect")
    with pytest.raises(ValueError):
        panel.close[0, 0] = 1.0


# ---------------------------------------------------------------------------
# cache round trip
# ---------------------------------------------------------------------------

def _panel_of(rng, count):
    series = [make_walk_series(t, hourly_axis(T0, count), rng) for t in ("AAA", "BBB")]
    return align_panel(series, fill="intersect")


def test_save_load_panel_round_trip(tmp_path, rng):
    base = hourly_axis(T0, 60)
    series = [make_walk_series(t, base, rng) for t in ("AAA", "BBB", "CCC")]
    vix = AuxSeries("vix", base, rng.normal(18, 2, size=60))
    panel = align_panel(series, aux=[vix], fill="intersect")

    path = tmp_path / "panel.bin"
    save_panel(panel, path)
    loaded = load_panel(path)
    assert loaded.tickers == panel.tickers
    assert np.array_equal(loaded.timestamps, panel.timestamps)
    for field in ("open", "high", "low", "close", "volume"):
        assert np.array_equal(getattr(loaded, field), getattr(panel, field))
    assert np.array_equal(loaded.aux["vix"], panel.aux["vix"])

    # byte-identical on re-save
    second = tmp_path / "panel2.bin"
    save_panel(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_write_panel_csv_reloads(tmp_path, rng):
    panel = _panel_of(rng, 25)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    names = ["timestamp", "ticker", *OHLCV]
    _, (stamps, tickers, *values), short = read_csv_columns(path, MarketDataError,
                                                            lambda header: [header.index(n) for n in names])
    assert short is None
    for j, ticker in enumerate(panel.tickers):
        rows = [k for k, cell in enumerate(tickers) if cell == ticker]
        series = BarSeries(ticker, parse_timestamps([stamps[k] for k in rows]),
                           *(parse_floats([column[k] for k in rows]) for column in values))
        assert np.array_equal(series.timestamps, panel.timestamps)
        assert np.array_equal(series.close, panel.close[:, j])
        assert np.array_equal(series.volume, panel.volume[:, j])


def test_panel_without_tickers_is_refused(tmp_path):
    with pytest.raises(ValueError, match="at least one ticker"):
        MarketPanel((), hourly_axis(T0, 400), *(np.zeros((400, 0)) for _ in OHLCV))
    path = tmp_path / "panel.bin"
    write_frame(path, PANEL_MAGIC, {"tickers": [], "aux": [], "n_timestamps": 400},
                [hourly_axis(T0, 400), *(np.zeros((400, 0)) for _ in OHLCV)])
    with pytest.raises(MalformedFile, match="at least one ticker") as caught:
        load_panel(path)
    assert str(path) in str(caught.value)


# ---------------------------------------------------------------------------
# damaged input files
# ---------------------------------------------------------------------------

def _write_vix(path, count=30):
    path.write_text("timestamp,value\n" + "".join(f"{format_timestamp(T0 + i * HOUR)},{15.0 + i}\n"
                                                    for i in range(count)))


@pytest.mark.parametrize("load", [load_bars, lambda path: load_series(path, "vix")], ids=["bars", "aux"])
def test_non_utf8_input_fails_closed_naming_the_file(tmp_path, rng, load):
    path = tmp_path / "AAA.csv"
    write_bars_csv(path, make_walk_series("AAA", hourly_axis(T0, 5), rng))
    if load is not load_bars:
        _write_vix(path, 5)
    raw = bytearray(path.read_bytes())
    raw[60] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(MarketDataError) as err:
        load(path)
    assert "not CSV text" in str(err.value) and str(path) in str(err.value)


def test_load_bars_stamp_beyond_int64_fails_closed(tmp_path):
    path = tmp_path / "AAA.csv"
    path.write_text("timestamp,open,high,low,close,volume\n99999999999999999999,10,11,9,10.5,100\n")
    with pytest.raises(InvalidBar) as err:
        load_bars(path)
    assert err.value.row == 2 and err.value.column == "timestamp"


@pytest.mark.parametrize("stamp", ["253402300800", "-62135596801"])
def test_load_bars_stamp_outside_years_fails_closed(tmp_path, stamp):
    path = tmp_path / "AAA.csv"
    path.write_text(f"timestamp,open,high,low,close,volume\n{T0},10,11,9,10.5,100\n{stamp},10,11,9,10.5,100\n")
    with pytest.raises(InvalidBar, match="years 1-9999") as err:
        load_bars(path)
    assert err.value.path == str(path) and err.value.row == 3 and err.value.column == "timestamp"


def test_load_series_stamp_outside_years_fails_closed(tmp_path):
    path = tmp_path / "vix.csv"
    path.write_text("timestamp,value\n253402300800,15\n253402300800,16\n")
    with pytest.raises(MarketDataError, match="years 1-9999") as err:
        load_series(path, "vix")
    assert err.value.path == str(path) and err.value.row == 2 and err.value.column == "timestamp"


def _damaged_files(kind, tmp_path):
    """A valid file of ``kind`` and the function that loads it."""
    if kind == "bars":
        path = tmp_path / "AAA.csv"
        write_bars_csv(path, make_walk_series("AAA", hourly_axis(T0, 30), np.random.default_rng(1)))
        return path, load_bars
    if kind == "aux":
        path = tmp_path / "vix.csv"
        _write_vix(path)
        return path, lambda p: load_series(p, "vix")
    path = tmp_path / "log.csv"
    save_episode_log(run_episode(RandomPolicy(), EnvConfig(hmax=5), make_features(["A", "B"], 40), Window(16, 40)), path)
    return path, load_episode_log


@pytest.mark.parametrize("kind", ["bars", "aux", "log"])
def test_loaders_fail_closed_on_damaged_files(tmp_path, kind):
    """Seeded truncations and byte flips: each load succeeds or raises a
    TradeLabError that names the file."""
    path, load = _damaged_files(kind, tmp_path)
    original = path.read_bytes()
    rng = np.random.default_rng(sum(map(ord, kind)))
    failures = 0
    for trial in range(150):
        raw = bytearray(original)
        if trial % 3 == 0:
            del raw[int(rng.integers(0, len(raw))):]
        else:
            for at in rng.integers(0, len(raw), size=int(rng.integers(1, 4))):
                raw[at] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(raw))
        try:
            load(path)
        except TradeLabError as exc:
            assert str(path) in str(exc), (bytes(raw), exc)
            failures += 1
    assert 0 < failures < 150
