"""Loading, validation, and alignment of hourly OHLCV bar data, and the
package's one CSV codec.

Timestamps are UTC epoch seconds internally; input parsing accepts ISO-8601
(a trailing ``Z`` or an explicit offset; naive values are taken as UTC) as
well as raw integer seconds. Loader errors carry the file path and the
1-based physical row number (the header is row 1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .binfile import read_frame, write_frame
from .errors import TradeLabError

__all__ = [
    "BarSeries",
    "AuxSeries",
    "MarketPanel",
    "ALIGN_MODES",
    "MarketDataError",
    "SchemaMismatch",
    "InvalidBar",
    "DuplicateTimestamp",
    "EmptyIntersection",
    "UnfillableLeadingGap",
    "parse_timestamp",
    "parse_timestamps",
    "parse_floats",
    "format_timestamp",
    "format_timestamps",
    "quote_csv",
    "long_format_keys",
    "write_csv_columns",
    "read_csv_columns",
    "parse_csv_columns",
    "load_bars",
    "load_series",
    "align_panel",
    "save_panel",
    "load_panel",
    "write_panel_csv",
]

PANEL_MAGIC = "tradelab-panel-v1"
OHLCV = ("open", "high", "low", "close", "volume")
ALIGN_MODES = ("intersect", "forward-fill")


class MarketDataError(TradeLabError):
    """Base for data errors."""


class SchemaMismatch(MarketDataError):
    pass


class InvalidBar(MarketDataError):
    """A bar breaks an invariant or the time order; ``index`` is its position, when known."""

    def __init__(self, reason: str, index: int | None = None, ticker: str = "", **context):
        super().__init__(reason if index is None else f"{ticker}: {reason} at index {index}", **context)
        self.reason, self.index = reason, index


class DuplicateTimestamp(MarketDataError):
    pass


class EmptyIntersection(MarketDataError):
    pass


class UnfillableLeadingGap(MarketDataError):
    pass


# UTC epoch seconds of 0001-01-01 and 10000-01-01: a stamp outside these
# years cannot be formatted, so no loader accepts one
_STAMP_YEARS = (-62_135_596_800, 253_402_300_800)


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp (or integer epoch seconds) to UTC epoch
    seconds; a stamp outside UTC years 1-9999 raises ValueError."""
    raw = text.strip()
    try:
        seconds = int(raw)
    except ValueError:
        try:
            stamp = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        except ValueError as exc:
            raise ValueError(f"unparsable timestamp {text!r}") from exc
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        seconds = int(stamp.timestamp())
    if not _STAMP_YEARS[0] <= seconds < _STAMP_YEARS[1]:
        raise ValueError(f"timestamp {text!r} is outside UTC years 1-9999")
    return seconds


# the one text form that parse_timestamps reads without parse_timestamp;
# "0" marks a digit
_UNIFORM_STAMP = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_DIGITS = _UNIFORM_STAMP == ord("0")


def parse_timestamps(texts) -> np.ndarray:
    """``parse_timestamp`` over a sequence of texts, as an int64 array.

    A sequence that is all ``YYYY-MM-DDTHH:MM:SSZ`` (valid dates, years
    0001-9999) is parsed in one pass over its bytes; any other sequence is
    parsed text by text with ``parse_timestamp`` and raises as it does.
    """
    stamps = _parse_uniform_stamps(texts)
    if stamps is None:
        stamps = np.array([parse_timestamp(text) for text in texts], dtype=np.int64)
    return stamps


def _parse_uniform_stamps(texts) -> np.ndarray | None:
    if len(texts) == 0 or set(map(len, texts)) != {_UNIFORM_STAMP.size}:
        return None
    try:
        raw = "".join(texts).encode("ascii")
    except UnicodeEncodeError:
        return None
    chars = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _UNIFORM_STAMP.size)
    digits = chars[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    if (chars[:, ~_STAMP_DIGITS] != _UNIFORM_STAMP[~_STAMP_DIGITS]).any() or (digits < 0).any() or (digits > 9).any():
        return None
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]  # century, year of century, month, day, hour, minute, second
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day = pairs[:, 2], pairs[:, 3]
    if (year < 1).any() or (month < 1).any() or (month > 12).any() or (pairs[:, 4:] > (23, 59, 59)).any():
        return None
    months = (year - 1970) * 12 + (month - 1)
    first_day, next_first_day = (m.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
                                 for m in (months, months + 1))
    if (day < 1).any() or (day > next_first_day - first_day).any():
        return None
    return (first_day + day - 1) * 86400 + pairs[:, 4:] @ (3600, 60, 1)


def format_timestamps(ts) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SSZ`` text for each UTC epoch second in ``ts``, the
    year zero-padded to four digits, so ``parse_timestamps`` reads it back.
    The first stamp outside UTC years 1-9999 raises ValueError."""
    ts = np.asarray(ts, dtype=np.int64)
    stamps = ts.astype("datetime64[s]")
    outside = (ts < _STAMP_YEARS[0]) | (ts >= _STAMP_YEARS[1])
    if outside.any():
        year = int(stamps[outside][0].astype("datetime64[Y]").astype(np.int64)) + 1970
        raise ValueError(f"year {year} is out of range")
    return np.datetime_as_string(stamps, timezone="UTC").tolist()


def format_timestamp(ts: int) -> str:
    return format_timestamps([int(ts)])[0]


def parse_floats(cells) -> np.ndarray:
    """``float`` of each text, as a float64 array."""
    return np.fromiter(map(float, cells), np.float64, len(cells))


def quote_csv(text: str) -> str:
    """``text`` as ``csv.writer`` writes a cell: wrapped in quotes, inner
    quotes doubled, when it holds a comma, a quote, a CR or a LF."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def long_format_keys(timestamps, tickers) -> list:
    """The timestamp and ticker columns of a long-format CSV (ticker varying
    fastest), each timestamp formatted once and each ticker quoted once."""
    stamps, names = format_timestamps(timestamps), list(map(quote_csv, tickers))
    return [chain.from_iterable(map(repeat, stamps, repeat(len(names)))),
            chain.from_iterable(repeat(names, len(stamps)))]


def _cells(column):
    if not isinstance(column, np.ndarray):
        return column
    text = float.__repr__ if column.dtype.kind == "f" else str
    return map(text, column.tolist() if column.ndim == 1 else chain.from_iterable(map(np.ndarray.tolist, column)))


def write_csv_columns(path, header: list[str], columns) -> None:
    """Write a CSV file, byte for byte as ``csv.writer`` writes its rows. A
    column is a 1-D or 2-D array, written in C order a row at a time (floats
    by ``float.__repr__``, integers by ``str``), or an iterable of cell text,
    written as given: user text (tickers, labels) comes through ``quote_csv``.
    Rows are written one at a time, so lazy columns stream."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(quote_csv, header)) + "\r\n")
        handle.writelines(map("{}\r\n".format, map(",".join, zip(*map(_cells, columns)))))


def read_csv_columns(path, error, pick) -> tuple[list[str], list[tuple], TradeLabError | None]:
    """``(names, columns, short)``: the header names and cell tuples of the
    columns ``pick(header)`` checks and selects (an empty file has header
    ``[]``), up to the first row too short to hold them, and the ``error``
    naming that row, or None. Text that is not UTF-8 CSV raises ``error``."""
    try:
        with Path(path).open(encoding="utf-8", newline="") as handle:
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
    columns = list(zip(*rows)) or [()] * width  # every row left holds `width` cells, so zip drops no picked one
    return [header[j] for j in indices], [columns[j] for j in indices], short


def parse_csv_columns(path, error, columns, fault=None) -> tuple[list, TradeLabError | None]:
    """Parse each ``(name, cells, parse)`` of ``columns`` at once; only a column
    that fails is searched for its first bad cell. The cells are the data rows
    2, 3, ... of the file. Returns the arrays up to the first faulty row and
    the ``error`` naming it, or the given ``fault`` if that comes first."""
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


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BarSeries:
    """Validated per-ticker bar history with strictly increasing timestamps."""

    ticker: str
    timestamps: np.ndarray  # int64 (T,)
    open: np.ndarray  # float64 (T,)
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _readonly(np.asarray(self.timestamps, dtype=np.int64)))
        for name in OHLCV:
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=np.float64)))
            if getattr(self, name).shape != self.timestamps.shape:
                raise ValueError(f"{self.ticker}: field {name} length mismatch")
        if len(self) == 0:
            raise InvalidBar("series contains no bars")
        ts, o, h, l, c, v = self.timestamps, self.open, self.high, self.low, self.close, self.volume
        ordered = np.ones(ts.shape, dtype=bool)
        ordered[1:] = ts[1:] > ts[:-1]
        # a bar with several faults is reported by the first check it fails
        checks = (
            (np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v), "non-finite field"),
            ((o > 0) & (h > 0) & (l > 0) & (c > 0), "non-positive price"),
            (v >= 0, "negative volume"),
            (l <= h, "low {l} above high {h}"),
            ((l <= o) & (o <= h), "open {o} outside [low, high]"),
            ((l <= c) & (c <= h), "close {c} outside [low, high]"),
            (ordered, "timestamp not strictly increasing"),
        )
        ok = np.logical_and.reduce([passed for passed, _ in checks])
        if not ok.all():
            i = int(np.argmin(ok))
            reason = next(why for passed, why in checks if not passed[i])
            reason = reason.format(o=float(o[i]), h=float(h[i]), l=float(l[i]), c=float(c[i]))
            raise InvalidBar(reason, index=i, ticker=self.ticker)

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


@dataclass(frozen=True)
class AuxSeries:
    """Market-wide scalar series (e.g. VIX) on its own timestamp axis."""

    name: str
    timestamps: np.ndarray  # int64 (T,)
    values: np.ndarray  # float64 (T,)

    def __post_init__(self):
        object.__setattr__(self, "timestamps", _readonly(np.asarray(self.timestamps, dtype=np.int64)))
        object.__setattr__(self, "values", _readonly(np.asarray(self.values, dtype=np.float64)))
        if self.timestamps.shape != self.values.shape:
            raise ValueError(f"{self.name}: timestamp/value length mismatch")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


@dataclass(frozen=True)
class MarketPanel:
    """Time-aligned OHLCV matrices over a fixed ticker order, plus aux series.

    Every matrix is (T, N); ticker order is fixed and used by all downstream
    consumers. Arrays are read-only, so a panel is safe to share across
    concurrent readers.
    """

    tickers: tuple[str, ...]
    timestamps: np.ndarray  # int64 (T,)
    open: np.ndarray  # float64 (T, N)
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    aux: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if not self.tickers:
            raise ValueError("a panel needs at least one ticker")
        object.__setattr__(self, "timestamps", _readonly(np.asarray(self.timestamps, dtype=np.int64)))
        shape = (self.timestamps.shape[0], len(self.tickers))
        for name in OHLCV:
            arr = _readonly(np.asarray(getattr(self, name), dtype=np.float64))
            if arr.shape != shape:
                raise ValueError(f"panel field {name} has shape {arr.shape}, expected {shape}")
            object.__setattr__(self, name, arr)
        aux = {}
        for name, values in self.aux.items():
            arr = _readonly(np.asarray(values, dtype=np.float64))
            if arr.shape != (shape[0],):
                raise ValueError(f"aux series {name!r} has shape {arr.shape}, expected ({shape[0]},)")
            aux[name] = arr
        object.__setattr__(self, "aux", aux)

    @property
    def n_timestamps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)


def _column_indices(header: list[str], names, path) -> list[int]:
    for name in names:
        if name not in header:
            raise SchemaMismatch(f"missing column {name!r}", path=path, row=1)
    return [header.index(name) for name in names]


def load_bars(path, ticker: str | None = None) -> BarSeries:
    """Load one ticker's bars from its ``timestamp,open,high,low,close,volume``
    CSV file; ``ticker`` names the series and defaults to the file stem.
    Rows violating bar invariants or ordering are rejected with their 1-based
    row number.
    """
    path = Path(path)
    name = ticker if ticker is not None else path.stem
    names, cells, short = read_csv_columns(path, MarketDataError,
                                           lambda header: _column_indices(header, ("timestamp", *OHLCV), path))

    # Parse up to the first unparsable row; BarSeries then checks the parsed
    # bars at once, and a bad bar before that row is the one reported.
    parsers = [parse_timestamps] + [parse_floats] * len(OHLCV)
    arrays, fault = parse_csv_columns(path, InvalidBar, list(zip(names, cells, parsers)), short)
    if arrays[0].size == 0:
        raise fault or InvalidBar(f"no usable rows for ticker {name!r}", path=path)
    try:
        series = BarSeries(name, *arrays)
    except InvalidBar as exc:
        raise InvalidBar(exc.reason, path=path, row=exc.index + 2) from None  # header is row 1
    if fault is not None:
        raise fault
    return series


def load_series(path, name: str) -> AuxSeries:
    """Load a two-column (timestamp, value) market-wide series, e.g. VIX.

    Rows are sorted by timestamp; duplicate timestamps are rejected.
    """
    path = Path(path)
    names, cells, short = read_csv_columns(path, MarketDataError,
                                           lambda header: _column_indices(header, ("timestamp", "value"), path))
    columns = list(zip(names, cells, (parse_timestamps, parse_floats)))
    (timestamps, values), fault = parse_csv_columns(path, MarketDataError, columns, fault=short)
    if fault is not None:
        raise fault
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]
    repeated = np.flatnonzero(timestamps[1:] == timestamps[:-1])
    if repeated.size:
        k = int(repeated[0]) + 1
        raise DuplicateTimestamp(f"duplicate timestamp {format_timestamp(timestamps[k])}", path=path,
                                 row=int(order[k]) + 2)
    return AuxSeries(name=name, timestamps=timestamps, values=values[order])


def align_panel(series, aux=(), fill: str = "forward-fill") -> MarketPanel:
    """Align bar series (and aux series) onto one shared timestamp axis.

    ``intersect`` keeps only timestamps present in every input. ``forward-fill``
    takes the union, starts the panel at the latest first-observation among
    inputs (dropping unfillable leading gaps), and fills interior/trailing gaps
    with a flat bar at the most recent prior close (volume 0); aux gaps carry
    the prior value forward.
    """
    series = list(series)
    aux = list(aux)
    if not series:
        raise ValueError("align_panel requires at least one BarSeries")
    if fill not in ALIGN_MODES:
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


def save_panel(panel: MarketPanel, path) -> None:
    """Binary cache: timestamps, the OHLCV matrices, then aux series by name."""
    header = {"tickers": list(panel.tickers), "aux": sorted(panel.aux), "n_timestamps": panel.n_timestamps}
    arrays = [panel.timestamps, *(getattr(panel, name) for name in OHLCV), *(panel.aux[a] for a in sorted(panel.aux))]
    write_frame(path, PANEL_MAGIC, header, arrays)


def load_panel(path) -> MarketPanel:
    def decode(header, take):
        t, tickers = header["n_timestamps"], tuple(header["tickers"])
        timestamps = take("<i8", t)
        matrices = {name: take("<f8", t * len(tickers)).reshape(t, len(tickers)) for name in OHLCV}
        aux = {name: take("<f8", t) for name in header["aux"]}
        return MarketPanel(tickers=tickers, timestamps=timestamps, aux=aux, **matrices)

    return read_frame(path, PANEL_MAGIC, decode)


def write_panel_csv(panel: MarketPanel, path) -> None:
    """Long-format mirror of the cache: timestamp,ticker,open,high,low,close,volume."""
    write_csv_columns(path, ["timestamp", "ticker", *OHLCV], [
        *long_format_keys(panel.timestamps, panel.tickers), *(getattr(panel, name) for name in OHLCV),
    ])
