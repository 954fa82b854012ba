"""Loading, validation, and alignment of hourly OHLCV bar data, and the
package's one CSV codec.

Timestamps are UTC epoch seconds internally; input parsing accepts ISO-8601
(a trailing ``Z`` or an explicit offset; naive values are taken as UTC) as
well as raw integer seconds. Loader errors carry the file path and the
1-based physical row number (the header is row 1).
"""

from __future__ import annotations

import csv
import functools
import json
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .binfile import read_frame, write_frame
from .errors import TradeLabError

__all__ = [
    "BarSeries",
    "AuxSeries",
    "MarketPanel",
    "ALIGN_MODES",
    "MarketDataError",
    "InvalidBar",
    "EmptyIntersection",
    "parse_timestamp",
    "parse_timestamps",
    "parse_floats",
    "format_timestamp",
    "format_timestamps",
    "quote_csv",
    "write_csv_columns",
    "write_long_csv",
    "read_csv_columns",
    "load_bars",
    "load_series",
    "align_panel",
    "save_panel",
    "load_panel",
    "write_panel_csv",
    "sidecar_path",
    "write_sidecar",
]

PANEL_MAGIC = "tradelab-panel-v1"
OHLCV = ("open", "high", "low", "close", "volume")
ALIGN_MODES = ("intersect", "forward-fill")
_BLOCK_ROWS = 512  # data rows that the CSV codec holds as text at a time: parsed, or joined and written


class MarketDataError(TradeLabError):
    """Base for data errors."""


class InvalidBar(MarketDataError):
    """A bar breaks an invariant or the time order; ``index`` is its position, when known."""

    def __init__(self, reason: str, index: int | None = None, ticker: str = "", **context):
        super().__init__(reason if index is None else f"{ticker}: {reason} at index {index}", **context)
        self.reason, self.index = reason, index


class EmptyIntersection(MarketDataError):
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
    0001-9999) is parsed in one numpy call; any other sequence is
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
    try:  # numpy checks the month, the day of the month, the hour, the minute and the second
        stamps = np.frombuffer(raw, dtype="S20").astype("S19").astype("datetime64[s]").astype(np.int64)
    except ValueError:
        return None
    return None if (stamps < _STAMP_YEARS[0]).any() else stamps  # year 0000


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


def _cells(column):
    if not isinstance(column, np.ndarray):
        return column
    text = float.__repr__ if column.dtype.kind == "f" else str
    blocks = (column[k : k + _BLOCK_ROWS].ravel().tolist() for k in range(0, len(column), _BLOCK_ROWS))
    return map(text, chain.from_iterable(blocks))


def write_csv_columns(path, header: list[str], columns) -> None:
    """Write a CSV file, byte for byte as ``csv.writer`` writes its rows. A
    column is a 1-D or 2-D array, written in C order (floats by
    ``float.__repr__``, integers by ``str``) and turned into Python numbers
    ``_BLOCK_ROWS`` rows at a time, or an iterable of cell text, written as
    given: user text (tickers, labels) comes through ``quote_csv``. Rows are
    joined and written ``_BLOCK_ROWS`` at a time, so lazy columns stream and
    at most one block's text is held.

    Columns of unequal length raise ValueError: columns with a length before
    the file is opened, naming the file and the column, and a lazy column as
    it runs out. A write that fails removes the partial file."""
    sized = [(name, column.size if isinstance(column, np.ndarray) else len(column))
             for name, column in zip(header, columns) if hasattr(column, "__len__")]
    for name, cells in sized[1:]:
        if cells != sized[0][1]:
            raise ValueError(f"{path}: column {name!r} has {cells} cells, column {sized[0][0]!r} has {sized[0][1]}")
    rows = map(",".join, zip(*map(_cells, columns), strict=True))
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        try:
            handle.write(",".join(map(quote_csv, header)) + "\r\n")
            while block := list(islice(rows, _BLOCK_ROWS)):
                block.append("")  # so the join ends the last row too
                handle.write("\r\n".join(block))
        except BaseException:
            handle.close()
            path.unlink()
            raise


def write_long_csv(path, timestamps, tickers, columns: dict) -> None:
    """Write a long-format CSV, ``timestamp,ticker`` and then each name of
    ``columns``: one row per (timestamp, ticker), ticker varying fastest, so
    each column is a (T, N) array. Each timestamp is formatted once and each
    ticker quoted once."""
    stamps, quoted = format_timestamps(timestamps), list(map(quote_csv, tickers))
    write_csv_columns(path, ["timestamp", "ticker", *columns], [
        chain.from_iterable(map(repeat, stamps, repeat(len(quoted)))),
        chain.from_iterable(repeat(quoted, len(stamps))),
        *columns.values(),
    ])


class _ButLast(NamedTuple):
    """A parser for ``read_csv_columns`` whose column leaves out the cell of the
    last row kept, as an episode log's terminal reward, which no step earns."""

    parse: Callable


def read_csv_columns(path, error, pick, parsers) -> tuple[list[np.ndarray], TradeLabError | None]:
    """Read the columns that ``pick(header)`` checks and selects (an empty file
    has header ``[]``), ``_BLOCK_ROWS`` data rows at a time, and parse each
    block's cells of the k-th column with ``parsers[k]`` at once; only a column
    that fails is searched for its first bad cell. Only the parsed arrays are
    kept, joined at the end. ``pick`` runs before ``parsers`` is read, so it
    may extend ``parsers`` to fit the header; a ``_ButLast`` parser's column
    leaves out the last row kept.

    The rows kept end before the first row too short to hold the columns. Returns
    the arrays up to the first faulty row (a short row, or a cell its parser
    refuses: the earliest row, then the leftmost column) and the ``error`` naming
    it, or None. The rest of the file is still read, so text that is not UTF-8
    CSV raises ``error`` wherever it sits, before any refusal of ``pick`` or of
    a parser that fails a block whose cells each parse."""
    try:
        with Path(path).open(encoding="utf-8", newline="") as handle:
            rows = csv.reader(handle)
            try:
                return _read_blocks(path, error, pick, parsers, rows)
            except TradeLabError:  # a refusal by pick or a parser comes after the text check
                deque(rows, maxlen=0)
                raise
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"not CSV text: {exc}", path=path) from None


def _read_blocks(path, error, pick, parsers, rows):
    """``read_csv_columns`` over the ``csv.reader`` rows of an open file."""
    header = next(rows, [])
    indices = pick(header)
    width = max(indices) + 1
    but_last = [isinstance(parse, _ButLast) for parse in parsers]
    parsers = [parse.parse if last else parse for parse, last in zip(parsers, but_last)]
    parts = [[parse(())] for parse in parsers]  # typed, for a file with no rows kept
    ahead, row, fault = list(islice(rows, 1)), 2, None  # a row of look-ahead: do the rows kept end in a block?
    while ahead and fault is None:
        block = ahead + list(islice(rows, _BLOCK_ROWS))
        ahead = block[_BLOCK_ROWS:]
        del block[_BLOCK_ROWS:]
        kept = next((k for k, cells in enumerate(block) if len(cells) < width), len(block))
        ends = kept < len(block) or not ahead or len(ahead[0]) < width
        columns = list(zip(*block[:kept])) or [()] * width  # every row kept holds `width` cells
        cells = [columns[j][: kept - 1 if ends and last else kept] for j, last in zip(indices, but_last)]
        faults, arrays = [], []
        for j, column, parse in zip(indices, cells, parsers):
            try:
                arrays.append(parse(column))
            except (ValueError, OverflowError) as reason:
                faults.append(_first_fault(path, error, header[j], column, parse, row, reason))
        if kept < len(block):
            faults.append(error(f"row has {len(block[kept])} cells, the header needs {width}",
                                path=path, row=row + kept))
        if faults:
            fault = min(faults, key=lambda exc: exc.row)  # stable: the leftmost column of the earliest row
            arrays = [parse(column[: fault.row - row]) for column, parse in zip(cells, parsers)]
        for part, array in zip(parts, arrays):
            part.append(array)
        row += len(block)
        del block, columns, cells  # so the next block's text replaces this one's instead of joining it
    deque(rows, maxlen=0)  # the rest of the file, unkept: text that is not CSV raises here too
    for k, part in enumerate(parts):  # each column's blocks go as it is joined: one copy, plus one column
        parts[k] = np.concatenate(part)
    return parts, fault


def _first_fault(path, error, name, cells, parse, row, reason):
    """The ``error`` naming the first cell of ``cells`` (data row ``row`` on) that
    ``parse`` refuses alone; with none, raises the whole column's ``reason``."""
    for row, cell in enumerate(cells, start=row):
        try:
            parse((cell,))
        except (ValueError, OverflowError) as exc:
            return error(f"unparsable field: {exc}", path=path, row=row, column=name)
    raise error(f"unparsable column: {reason}", path=path, column=name) from None


def _frozen(value, dtype, shape, name: str) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array for the field ``name``.

    An array that already has the dtype, is read-only and owns its memory is
    kept, so a record shares what the package has just built; anything else
    is copied, so the caller's array stays writable and later writes to it do
    not reach the record. A conversion that changes a value (3600.7 or NaN to
    an integer) or a shape other than ``shape`` (None: any) raises ValueError.
    """
    arr = value
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.flags.owndata and not arr.flags.writeable):
        given = np.asarray(value)
        with np.errstate(invalid="ignore"):  # NaN or an infinity to an integer, refused below
            arr = np.array(given, dtype=dtype)
            changed = given.dtype != arr.dtype and not np.array_equal(arr.astype(given.dtype), given,
                                                                      equal_nan=given.dtype.kind in "fc")
        if changed:
            raise ValueError(f"field {name!r} holds values that {arr.dtype} cannot hold exactly")
    if shape is not None and arr.shape != shape:
        raise ValueError(f"field {name!r} has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _freeze(record, dtype, shape, *names) -> None:
    """Replace each named field of the frozen dataclass ``record`` with its ``_frozen`` array."""
    for name in names:
        object.__setattr__(record, name, _frozen(getattr(record, name), dtype, shape, name))


def sidecar_path(path) -> Path:
    """The ``<path>.json`` file that carries an artifact's metadata."""
    return Path(f"{path}.json")


def write_sidecar(path, doc) -> None:
    """Write ``doc`` as the sidecar of the artifact at ``path``: sorted keys, indented, one trailing newline."""
    sidecar_path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _increasing(ts) -> np.ndarray:
    """Whether each stamp of ``ts`` is above the one before it; the first always is."""
    mask = np.ones(ts.shape, dtype=bool)
    mask[1:] = ts[1:] > ts[:-1]
    return mask


def _check_bars(tickers, timestamps, o, h, l, c, v) -> None:
    """The bar rule over (T, K) OHLCV columns of ``tickers`` and their (T,) axis. The first faulty
    bar (earliest index, then leftmost column) raises InvalidBar with the first check it fails."""
    checks = (
        (np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c) & np.isfinite(v), "non-finite field"),
        ((o > 0) & (h > 0) & (l > 0) & (c > 0), "non-positive price"),
        (v >= 0, "negative volume"),
        (l <= h, "low {l} above high {h}"),
        ((l <= o) & (o <= h), "open {o} outside [low, high]"),
        ((l <= c) & (c <= h), "close {c} outside [low, high]"),
        (np.broadcast_to(_increasing(timestamps)[:, None], o.shape), "timestamp not strictly increasing"),
    )
    ok = np.logical_and.reduce([passed for passed, _ in checks])
    if not ok.all():
        i, j = np.unravel_index(np.argmin(ok), ok.shape)
        reason = next(why for passed, why in checks if not passed[i, j])
        reason = reason.format(o=float(o[i, j]), h=float(h[i, j]), l=float(l[i, j]), c=float(c[i, j]))
        raise InvalidBar(reason, index=int(i), ticker=tickers[j])


@dataclass(frozen=True)
class BarSeries:
    """Validated per-ticker bar history: at least one bar, each holding the
    bar rule of ``_check_bars``."""

    ticker: str
    timestamps: np.ndarray  # int64 (T,)
    open: np.ndarray  # float64 (T,)
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        _freeze(self, np.int64, (np.size(self.timestamps),), "timestamps")  # one axis, of any length
        _freeze(self, np.float64, self.timestamps.shape, *OHLCV)
        if len(self) == 0:
            raise InvalidBar("series contains no bars")
        _check_bars((self.ticker,), self.timestamps, *(getattr(self, name)[:, None] for name in OHLCV))

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


@dataclass(frozen=True)
class AuxSeries:
    """Market-wide scalar series (e.g. VIX) on its own timestamp axis, which
    holds the ``BarSeries`` axis rules: not empty, strictly increasing."""

    name: str
    timestamps: np.ndarray  # int64 (T,)
    values: np.ndarray  # float64 (T,)

    def __post_init__(self):
        _freeze(self, np.int64, (np.size(self.timestamps),), "timestamps")
        _freeze(self, np.float64, self.timestamps.shape, "values")
        if len(self) == 0:
            raise MarketDataError(f"aux series {self.name!r} has no observations")
        ordered = _increasing(self.timestamps)
        if not ordered.all():
            k = np.argmin(ordered)
            raise MarketDataError(f"aux series {self.name!r}: timestamp not strictly increasing at index {k}")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])


@dataclass(frozen=True)
class MarketPanel:
    """Time-aligned OHLCV matrices over a fixed ticker order, plus aux series.

    Every matrix is (T, N) over a strictly increasing axis, and every bar
    holds the ``BarSeries`` bar rule (``_check_bars``); ticker order is
    fixed and used by all downstream consumers, and tickers and aux names are
    distinct, non-empty strings. Arrays are read-only, so a panel is safe to
    share across concurrent readers.
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
        if isinstance(self.tickers, str):  # tuple() would split it into characters
            raise ValueError(f"tickers must be a sequence of names, got the string {self.tickers!r}")
        object.__setattr__(self, "tickers", tuple(self.tickers))
        if not self.tickers:
            raise ValueError("a panel needs at least one ticker")
        if not all(isinstance(t, str) and t for t in self.tickers) or len(set(self.tickers)) != len(self.tickers):
            raise ValueError(f"tickers must be distinct, non-empty strings, got {list(self.tickers)}")
        _freeze(self, np.int64, (np.size(self.timestamps),), "timestamps")
        _freeze(self, np.float64, (self.n_timestamps, self.n_tickers), *OHLCV)
        _check_bars(self.tickers, self.timestamps, *(getattr(self, name) for name in OHLCV))
        if not all(isinstance(name, str) and name for name in self.aux):
            raise ValueError(f"aux names must be non-empty strings, got {list(self.aux)}")
        object.__setattr__(self, "aux", {name: _frozen(values, np.float64, (self.n_timestamps,), name)
                                         for name, values in self.aux.items()})

    @property
    def n_timestamps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)


def _column_indices(header: list[str], names, path) -> list[int]:
    for name in names:
        if name not in header:
            raise MarketDataError(f"missing column {name!r}", path=path, row=1)
    return [header.index(name) for name in names]


def load_bars(path, ticker: str | None = None) -> BarSeries:
    """Load one ticker's bars from its ``timestamp,open,high,low,close,volume``
    CSV file; ``ticker`` names the series and defaults to the file stem.
    Rows violating bar invariants or ordering are rejected with their 1-based
    row number.
    """
    path = Path(path)
    name = ticker if ticker is not None else path.stem
    # Parse up to the first faulty row; BarSeries then checks the parsed bars
    # at once, and a bad bar before that row is the one reported.
    arrays, fault = read_csv_columns(path, MarketDataError,
                                     lambda header: _column_indices(header, ("timestamp", *OHLCV), path),
                                     [parse_timestamps] + [parse_floats] * len(OHLCV))
    if fault is not None and fault.column is not None:  # an unparsable cell, not a short row
        fault = InvalidBar(fault.reason, path=path, row=fault.row, column=fault.column)
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

    Rows are sorted by timestamp; a file without rows and duplicate
    timestamps are rejected.
    """
    path = Path(path)
    (timestamps, values), fault = read_csv_columns(
        path, MarketDataError, lambda header: _column_indices(header, ("timestamp", "value"), path),
        [parse_timestamps, parse_floats])
    if fault is not None:
        raise fault
    if timestamps.size == 0:
        raise MarketDataError(f"no rows for series {name!r}", path=path)
    order = np.argsort(timestamps, kind="stable")
    timestamps = timestamps[order]
    ordered = _increasing(timestamps)
    if not ordered.all():  # sorted, so a repeat
        k = int(np.argmin(ordered))
        raise MarketDataError(f"duplicate timestamp {format_timestamp(timestamps[k])}", path=path,
                              row=int(order[k]) + 2)
    return AuxSeries(name=name, timestamps=timestamps, values=values[order])


def align_panel(series, aux=(), fill: str = "forward-fill") -> MarketPanel:
    """Align bar series (and aux series) onto one shared timestamp axis.

    ``intersect`` keeps only timestamps present in every input. ``forward-fill``
    keeps every input's timestamps from the latest first timestamp among the
    inputs on (so leading gaps drop), and fills interior/trailing gaps with a
    flat bar at the most recent prior close (volume 0); aux gaps carry the
    prior value forward. Every input axis is non-empty and strictly
    increasing, so each panel timestamp has an observation at or before it
    in every input.
    """
    series, aux = list(series), list(aux)
    if not series:
        raise ValueError("align_panel requires at least one BarSeries")
    if fill not in ALIGN_MODES:
        raise ValueError(f"unknown fill policy {fill!r}")
    axes = [s.timestamps for s in series] + [a.timestamps for a in aux]
    if fill == "intersect":
        timestamps = functools.reduce(functools.partial(np.intersect1d, assume_unique=True), axes)
        if timestamps.size == 0:
            raise EmptyIntersection("no timestamp is common to all inputs")
    else:
        timestamps = np.sort(np.concatenate(axes))
        timestamps = timestamps[_increasing(timestamps) & (timestamps >= max(axis[0] for axis in axes))]

    # each input's last observation at or before each panel stamp; a gap
    # (never in intersect mode) is a flat bar at that close, volume 0
    picks = [np.searchsorted(axis, timestamps, side="right") - 1 for axis in axes]
    gaps = [s.timestamps[idx] != timestamps for s, idx in zip(series, picks)]
    matrices = {
        name: np.column_stack([np.where(gap, 0.0 if name == "volume" else s.close[idx], getattr(s, name)[idx])
                               for s, idx, gap in zip(series, picks, gaps)])
        for name in OHLCV
    }
    aux_columns = {a.name: a.values[idx] for a, idx in zip(aux, picks[len(series):])}
    del picks, gaps  # freed before MarketPanel's bar check adds its own temporaries
    for arr in (timestamps, *matrices.values(), *aux_columns.values()):  # kept by MarketPanel, not copied
        arr.setflags(write=False)
    return MarketPanel(tickers=[s.ticker for s in series], timestamps=timestamps, aux=aux_columns, **matrices)


def save_panel(panel: MarketPanel, path) -> None:
    """Binary cache: timestamps, the OHLCV matrices, then aux series by name."""
    header = {"tickers": list(panel.tickers), "aux": sorted(panel.aux), "n_timestamps": panel.n_timestamps}
    arrays = [panel.timestamps, *(getattr(panel, name) for name in OHLCV), *(panel.aux[a] for a in sorted(panel.aux))]
    write_frame(path, PANEL_MAGIC, header, arrays)


def load_panel(path) -> MarketPanel:
    def decode(header, take):
        t, tickers, aux_names = header["n_timestamps"], header["tickers"], header["aux"]
        for key, names in (("tickers", tickers), ("aux", aux_names)):
            if not isinstance(names, list):
                raise ValueError(f"{key} must be a JSON list, got {names!r}")
        timestamps = take("<i8", t)
        matrices = {name: take("<f8", t * len(tickers)).reshape(t, len(tickers)) for name in OHLCV}
        aux = {name: take("<f8", t) for name in aux_names}
        if len(aux) != len(aux_names):
            raise ValueError(f"aux names must be distinct, got {aux_names!r}")
        return MarketPanel(tickers=tickers, timestamps=timestamps, aux=aux, **matrices)

    return read_frame(path, PANEL_MAGIC, decode)


def write_panel_csv(panel: MarketPanel, path) -> None:
    """Long-format mirror of the cache: timestamp,ticker,open,high,low,close,volume."""
    write_long_csv(path, panel.timestamps, panel.tickers, {name: getattr(panel, name) for name in OHLCV})
