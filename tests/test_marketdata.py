"""Loader, alignment, and cache behavior, checked against brute-force oracles."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from conftest import HOUR, hourly_axis, make_features, make_walk_series, write_bars_csv
from tradelab.agents.policies import RandomPolicy
from tradelab.binfile import MalformedFile, write_frame
from tradelab.env import EnvConfig, Window, load_episode_log, run_episode, save_episode_log
from tradelab.errors import TradeLabError
from tradelab.marketdata import (
    _BLOCK_CELLS,
    OHLCV,
    PANEL_MAGIC,
    AuxSeries,
    BarSeries,
    EmptyIntersection,
    InvalidBar,
    MarketDataError,
    MarketPanel,
    _block_rows,
    align_panel,
    format_timestamp,
    format_timestamps,
    load_bars,
    load_panel,
    load_series,
    parse_floats,
    parse_timestamp,
    parse_timestamps,
    read_csv_columns,
    save_panel,
    write_csv_columns,
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
    with pytest.raises(MarketDataError, match="missing column 'volume'") as err:
        load_bars(path)
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


@pytest.mark.parametrize("field, value", [("timestamps", [T0 + 0.5, T0 + 1.9]), ("timestamps", [T0, np.nan]),
                                          ("close", [10.5, 2**53 + 1])], ids=["fraction", "nan", "beyond-2**53"])
def test_bar_series_refuses_a_conversion_that_changes_a_value(field, value):
    """0.5 and 1.9 would be stored as stamps 0 and 1, NaN as some integer, and
    the integer 2**53 + 1 as the float 2**53: each raises, naming the field."""
    columns = {"timestamps": hourly_axis(T0, 2), "open": 10.0, "high": 11.0, "low": 9.0, "close": 10.5,
               "volume": 100.0}
    columns = {name: np.full(2, v) if np.ndim(v) == 0 else v for name, v in columns.items()}
    columns[field] = np.array(value, dtype=object if field == "close" else np.float64)
    with pytest.raises(ValueError, match=f"field '{field}' holds values that"):
        BarSeries("AAA", **columns)


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
    with pytest.raises(MarketDataError, match=f"duplicate timestamp {stamp}") as err:
        load_series(path, "vix")
    assert err.value.row == 3


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


def test_align_panel_needs_a_series():
    with pytest.raises(ValueError, match="at least one BarSeries"):
        align_panel([], fill="intersect")


def test_align_panel_refuses_an_unknown_fill(rng):
    with pytest.raises(ValueError, match="unknown fill policy 'backfill'"):
        align_panel([make_walk_series("AAA", hourly_axis(T0, 5), rng)], fill="backfill")


def test_bar_series_needs_a_bar():
    empty = np.zeros(0)
    with pytest.raises(InvalidBar, match="series contains no bars"):
        BarSeries("AAA", np.zeros(0, dtype=np.int64), empty, empty, empty, empty, empty)


def test_read_csv_columns_names_a_column_that_fails_only_whole(tmp_path):
    def pairs_only(cells):  # every single cell parses; the column of three does not
        if len(cells) > 2:
            raise ValueError("more than two cells")
        return parse_floats(cells)

    path = tmp_path / "x.csv"
    path.write_text("value\n1\n2\n3\n")
    with pytest.raises(MarketDataError, match="unparsable column: more than two cells") as caught:
        read_csv_columns(path, MarketDataError, lambda header: [0], [pairs_only])
    assert caught.value.column == "value" and str(path) in str(caught.value)


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


@pytest.mark.parametrize("count", [1, 31])
def test_align_forward_fill_axis_is_the_union_of_the_inputs(rng, count):
    """The forward-fill axis, one sort of all input stamps, is byte for byte
    the pairwise union1d reduce over the inputs, from the latest first stamp
    on: staggered starts and ends, gaps, and an aux series on its own grid."""
    base = hourly_axis(T0, 400)
    axes = [base[rng.integers(0, 40):400 - rng.integers(0, 40)] for _ in range(count)]
    axes = [ax[rng.random(ax.size) > 0.25] for ax in axes]
    series = [make_walk_series(f"S{k:02d}", ax, rng) for k, ax in enumerate(axes)]
    aux = [AuxSeries("vix", base[5::3] + HOUR // 2, np.arange(base[5::3].size, dtype=float))] if count > 1 else []
    panel = align_panel(series, aux=aux, fill="forward-fill")
    inputs = axes + [a.timestamps for a in aux]
    union = functools.reduce(np.union1d, inputs)
    want = union[union >= max(ax[0] for ax in inputs)]
    assert panel.timestamps.dtype == np.int64
    assert panel.timestamps.tobytes() == want.tobytes()
    if count == 1:
        assert panel.timestamps.tobytes() == axes[0].tobytes()


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


def test_align_panel_bounds_its_temporaries():
    """Forward-filling 30 bar series and one aux series of 3,500 bars, on
    axes staggered by up to six hours, keeps 4.3 MB of panel and peaks at
    6.1 MB: MarketPanel keeps the matrices align_panel builds, where a copy
    of them would hold 4.2 MB more at once."""
    rng = np.random.default_rng(5)
    series = [make_walk_series(f"T{j:02d}", hourly_axis(T0 + HOUR * (j % 7), 3500), rng) for j in range(30)]
    aux = [AuxSeries("vix", hourly_axis(T0 + 3 * HOUR, 3500), 15.0 + rng.random(3500))]
    tracemalloc.start()
    try:
        panel = align_panel(series, aux=aux, fill="forward-fill")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.close.shape == (3500, 30)
    assert peak < 1.15 * 6.06e6, peak


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


def test_load_panel_holds_one_copy_of_the_file_beside_the_panel(tmp_path, rng):
    """load_panel reads the file once and copies its payload into the panel;
    nothing else of file size stays alive while it decodes. Binding the
    payload after the header line (as ``raw.partition`` does) held a second
    copy: about 2.3 file sizes above the kept panel, against about 1.3."""
    base = hourly_axis(T0, 2000)
    panel = align_panel([make_walk_series(f"T{j}", base, rng) for j in range(6)], fill="intersect")
    path = tmp_path / "panel.bin"
    save_panel(panel, path)
    del panel
    size = path.stat().st_size
    tracemalloc.start()
    try:
        loaded = load_panel(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.close.shape == (2000, 6) and kept >= 0.95 * size
    assert peak - kept < 1.6 * size, (peak - kept) / size


def test_write_panel_csv_reloads(tmp_path, rng):
    panel = _panel_of(rng, 25)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    names = ["timestamp", "ticker", *OHLCV]
    (stamps, tickers, *values), fault = read_csv_columns(
        path, MarketDataError, lambda header: [header.index(n) for n in names],
        [parse_timestamps, lambda cells: np.array(cells, dtype=object)] + [parse_floats] * len(OHLCV))
    assert fault is None
    for j, ticker in enumerate(panel.tickers):
        rows = tickers == ticker
        series = BarSeries(ticker, stamps[rows], *(column[rows] for column in values))
        assert np.array_equal(series.timestamps, panel.timestamps)
        assert np.array_equal(series.close, panel.close[:, j])
        assert np.array_equal(series.volume, panel.volume[:, j])


ROWS = 3 * _block_rows(3)  # a column one cell shorter runs out in the third block of rows


@pytest.mark.parametrize(
    "columns, message",
    [([np.arange(5), ["a", "b", "c", "d"], np.linspace(0.0, 1.0, 5)],
      "x.csv: column 'label' has 4 cells, column 'k' has 5"),
     ([np.arange(5), ["a", "b", "c", "d", "e"], np.linspace(0.0, 1.0, 4)],
      "x.csv: column 'value' has 4 cells, column 'k' has 5"),
     ([np.arange(ROWS), list(map(str, range(ROWS))), np.arange(ROWS - 1)],
      f"x.csv: column 'value' has {ROWS - 1} cells, column 'k' has {ROWS}"),
     ([np.arange(3), np.arange(3.0)], "x.csv: the header names 3 columns, but 2 are given"),
     ([np.arange(3), ["a", "b", "c"], np.arange(3.0), np.arange(3)],
      "x.csv: the header names 3 columns, but 4 are given")],
    ids=["short-text-column", "short-array-column", "short-array-past-a-block", "header-longer", "header-shorter"],
)
def test_write_csv_columns_refuses_columns_of_unequal_length(tmp_path, columns, message):
    """The rows would otherwise stop at the shortest column and drop the rest
    unseen, or sit under a header that names another number of columns. Every
    column has a length, so both are refused before anything is written: an
    earlier file stays as it was, and the error names the file and the
    counts."""
    path = tmp_path / "x.csv"
    path.write_text("earlier\n")
    with pytest.raises(ValueError) as caught:
        write_csv_columns(path, ["k", "label", "value"], columns)
    assert str(caught.value) == str(tmp_path / message)
    assert path.read_text() == "earlier\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["x.csv"]


def test_write_csv_columns_holds_about_one_block_of_text(tmp_path):
    """50 blocks of rows through the writer peak at about six blocks' worth
    of the file's text (the block's row texts, their join, its UTF-8 bytes
    and the block's numbers); a writer that joined the whole file before
    writing it would hold over 50."""
    rows = 50 * _block_rows(5)
    rng = np.random.default_rng(9)
    stamps = format_timestamps(hourly_axis(T0, rows))
    columns = [np.arange(rows), stamps, rng.standard_normal(rows), rng.standard_normal((rows, 2))[:, 1],
               rng.integers(0, 1000, size=rows)]
    path = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        write_csv_columns(path, ["t", "timestamp", "a", "b", "c"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = path.stat().st_size / 50
    assert path.read_text().count("\n") == rows + 1
    assert peak < 10 * block, peak / block


def _wide_columns(rows):
    """The 65 columns of a 30-ticker episode log's shape, ``rows`` rows each:
    an integer step, 34 float columns and 30 integer ones."""
    rng = np.random.default_rng(4)
    header = ["t", *(f"x{j}" for j in range(34)), *(f"h{j}" for j in range(30))]
    return header, [np.arange(rows), *rng.standard_normal((34, rows)), *rng.integers(0, 1000, size=(30, rows))]


def _budget_text(path, rows, width):
    """The bytes of file text in one cell budget: the file's bytes per cell, times ``_BLOCK_CELLS``."""
    return path.stat().st_size / (rows * width) * _BLOCK_CELLS


def test_write_csv_columns_holds_one_cell_budget_of_a_wide_file(tmp_path):
    """A 65-column file (a 30-ticker episode log's width) is written a block of
    rows that fits the cell budget at a time: the writer peaks at 6.7 budgets
    of the file's text (the block's cells as Python objects, its row texts and
    their join). A block of a fixed 512 rows held 33,280 cells, 6.5 budgets,
    and peaked at 38."""
    header, columns = _wide_columns(3000)
    path = tmp_path / "wide.csv"
    tracemalloc.start()
    try:
        write_csv_columns(path, header, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = _budget_text(path, 3000, len(header))
    assert peak < 10 * budget, peak / budget


def test_read_csv_columns_holds_one_cell_budget_of_a_wide_file(tmp_path):
    """Reading the same 65-column file holds 11.5 budgets of the file's text
    beside the parsed arrays: a block of rows that fits the cell budget, its
    cells by column, and each column's parsed blocks until they are joined.
    A block of a fixed 512 rows held 39.5."""
    header, columns = _wide_columns(3000)
    path = tmp_path / "wide.csv"
    write_csv_columns(path, header, columns)
    tracemalloc.start()
    try:
        arrays, fault = read_csv_columns(path, MarketDataError, lambda names: list(range(len(names))),
                                         [parse_floats] * len(header))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fault is None and all(np.array_equal(a, c) for a, c in zip(arrays, columns))
    budget = _budget_text(path, 3000, len(header))
    assert peak - kept < 16 * budget, (peak - kept) / budget


def test_panel_without_tickers_is_refused(tmp_path):
    with pytest.raises(ValueError, match="at least one ticker"):
        MarketPanel((), hourly_axis(T0, 400), *(np.zeros((400, 0)) for _ in OHLCV))
    path = tmp_path / "panel.bin"
    write_frame(path, PANEL_MAGIC, {"tickers": [], "aux": [], "n_timestamps": 400},
                [hourly_axis(T0, 400), *(np.zeros((400, 0)) for _ in OHLCV)])
    with pytest.raises(MalformedFile, match="at least one ticker") as caught:
        load_panel(path)
    assert str(path) in str(caught.value)


BAD_TICKERS = {
    "null": None,
    "number": 1.5,
    "duplicate": ["A", "A"],
    "string": "AB",  # tuple() would split it into two one-letter tickers
    "empty-string": "",
    "null-name": [None, "B"],
    "number-name": [1.5, "B"],
    "empty-name": ["", "B"],
}


@pytest.mark.parametrize("tickers", list(BAD_TICKERS.values()), ids=list(BAD_TICKERS))
def test_market_panel_refuses_bad_tickers(tickers):
    with pytest.raises((ValueError, TypeError)):
        MarketPanel(tickers, hourly_axis(T0, 4), *(np.ones((4, 2)) for _ in OHLCV))


@pytest.mark.parametrize("tickers", list(BAD_TICKERS.values()), ids=list(BAD_TICKERS))
def test_load_panel_refuses_bad_tickers_naming_the_file(tmp_path, tickers):
    path = tmp_path / "panel.bin"
    write_frame(path, PANEL_MAGIC, {"tickers": tickers, "aux": [], "n_timestamps": 4},
                [hourly_axis(T0, 4), *(np.ones((4, 2)) for _ in OHLCV)])
    with pytest.raises(MalformedFile) as caught:
        load_panel(path)
    assert str(path) in str(caught.value)


def test_align_panel_refuses_duplicate_tickers(rng):
    series = [make_walk_series("AAA", hourly_axis(T0, 5), rng) for _ in range(2)]
    with pytest.raises(ValueError, match="distinct"):
        align_panel(series, fill="intersect")


@pytest.mark.parametrize("stamps", [[T0 + HOUR, T0], [T0, T0 + HOUR, T0 + HOUR], []],
                         ids=["unsorted", "duplicate", "empty"])
def test_aux_series_refuses_an_axis_that_does_not_strictly_increase(stamps):
    with pytest.raises(MarketDataError, match="'vix'"):
        AuxSeries("vix", np.array(stamps, dtype=np.int64), np.ones(len(stamps)))


def test_aux_series_refuses_values_off_its_axis():
    with pytest.raises(ValueError, match="'values' has shape"):
        AuxSeries("vix", hourly_axis(T0, 3), np.ones(4))


def test_aux_series_refuses_a_stamp_that_is_not_whole():
    with pytest.raises(ValueError, match="field 'timestamps' holds values that int64 cannot hold exactly"):
        AuxSeries("vix", np.array([T0, T0 + 3600.7]), np.ones(2))


def test_market_panel_refuses_a_stamp_that_is_not_whole():
    stamps = np.array([T0, T0 + 3600.7])
    with pytest.raises(ValueError, match="field 'timestamps' holds values that int64 cannot hold exactly"):
        MarketPanel(("A", "B"), stamps, **_bar_matrices((2, 2)))


def _swapped_axis(count=12):
    stamps = hourly_axis(T0, count)
    stamps[[10, 11]] = stamps[[11, 10]]
    return stamps


@pytest.mark.parametrize("stamps", [_swapped_axis(), hourly_axis(T0, 3)[[0, 1, 1]]], ids=["swapped", "duplicate"])
def test_market_panel_refuses_an_axis_that_does_not_strictly_increase(stamps):
    with pytest.raises(MarketDataError, match="not strictly increasing at index"):
        MarketPanel(("A", "B"), stamps, *(np.ones((stamps.size, 2)) for _ in OHLCV))


def _bar_matrices(shape):
    """OHLCV matrices of one valid bar repeated."""
    bar = {"open": 10.0, "high": 11.0, "low": 9.0, "close": 10.5, "volume": 100.0}
    return {name: np.full(shape, bar[name]) for name in OHLCV}


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("close", np.nan, "non-finite field"),
        ("low", -1.0, "non-positive price"),
        ("volume", -1.0, "negative volume"),
        ("high", 8.0, "low 9.0 above high 8.0"),
        ("open", 11.5, "open 11.5 outside [low, high]"),
        ("close", 8.5, "close 8.5 outside [low, high]"),
    ],
)
def test_market_panel_holds_the_bar_rule(field, value, reason):
    matrices = _bar_matrices((4, 3))
    matrices[field][2, 1] = value
    matrices["volume"][3, 0] = -1.0  # a later index, so not the one reported
    with pytest.raises(InvalidBar) as caught:
        MarketPanel(("A", "B", "C"), hourly_axis(T0, 4), **matrices)
    assert str(caught.value) == f"B: {reason} at index 2"


def test_load_panel_refuses_a_bar_that_breaks_the_bar_rule_naming_the_file(tmp_path):
    matrices = _bar_matrices((6, 2))
    matrices["close"][4, 0] = np.nan
    matrices["low"][3, 1] = -1.0
    path = tmp_path / "panel.bin"
    write_frame(path, PANEL_MAGIC, {"tickers": ["A", "B"], "aux": [], "n_timestamps": 6},
                [hourly_axis(T0, 6), *matrices.values()])
    with pytest.raises(MalformedFile, match="B: non-positive price at index 3") as caught:
        load_panel(path)
    assert str(path) in str(caught.value)

def test_load_panel_refuses_a_swapped_axis_naming_the_file(tmp_path):
    stamps = _swapped_axis()
    path = tmp_path / "panel.bin"
    write_frame(path, PANEL_MAGIC, {"tickers": ["A", "B"], "aux": [], "n_timestamps": stamps.size},
                [stamps, *(np.ones((stamps.size, 2)) for _ in OHLCV)])
    with pytest.raises(MalformedFile, match="not strictly increasing at index 11") as caught:
        load_panel(path)
    assert str(path) in str(caught.value)


BAD_AUX = {
    "duplicate": ["a", "a"],
    "string": "ab",  # iterating it would give two aux series, a and b
    "number-name": ["a", 5],
    "empty-name": [""],
}


@pytest.mark.parametrize("aux", list(BAD_AUX.values()), ids=list(BAD_AUX))
def test_load_panel_refuses_bad_aux_names_naming_the_file(tmp_path, aux):
    path = tmp_path / "panel.bin"
    write_frame(path, PANEL_MAGIC, {"tickers": ["A"], "aux": aux, "n_timestamps": 4},
                [hourly_axis(T0, 4), *(np.ones((4, 1)) for _ in OHLCV), *(np.full(4, k) for k in range(len(aux)))])
    with pytest.raises(MalformedFile, match="aux") as caught:
        load_panel(path)
    assert str(path) in str(caught.value)


@pytest.mark.parametrize("name", [5, "", None])
def test_market_panel_refuses_aux_names_that_are_not_non_empty_strings(name):
    with pytest.raises(ValueError, match="aux names"):
        MarketPanel(("A",), hourly_axis(T0, 4), *(np.ones((4, 1)) for _ in OHLCV), aux={name: np.ones(4)})


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
