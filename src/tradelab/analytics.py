"""Behavioral analytics over episode logs.

Everything here is a pure function of an EpisodeLog, whose arrays are
read-only int64/float64 and at least two rows long: cumulative reward (prefix
sums of the logged value deltas, so the series is in account currency),
integral holding (time-summed share exposure), trade statistics over position
changes, purchase-diversity concentration, and a continuous holder-vs-trader
score. Trades are detected as holding changes, never from the action sign —
a clipped no-op action is not a trade.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import EpisodeLog
from .errors import TradeLabError
from .marketdata import format_timestamps, quote_csv, write_csv_columns

__all__ = [
    "TradeStats",
    "DiversityStats",
    "BehaviorReport",
    "ProfileComparison",
    "WindowMismatch",
    "DuplicateLabel",
    "MalformedReport",
    "cumulative_reward",
    "integral_holding",
    "trade_stats",
    "diversity_stats",
    "behavior_profile",
    "compare_profiles",
    "save_report",
    "load_report",
    "write_comparison_csv",
    "TRADER_THRESHOLD",
]

# convention only: a score above this prints as "trader", below as "holder"
TRADER_THRESHOLD = 0.5

COMPARISON_METRICS = ("final_cumulative_reward", "trader_score", "hhi", "max_shares_held")

REPORT_MAGIC = "tradelab-report-v1"


class WindowMismatch(TradeLabError):
    pass


class DuplicateLabel(TradeLabError):
    pass


class MalformedReport(TradeLabError):
    pass


@dataclass(frozen=True)
class TradeStats:
    """Position-change statistics; the first three are per-ticker vectors."""

    trade_count: np.ndarray  # int64 (N,) steps with a holding change
    total_turnover: np.ndarray  # int64 (N,) sum of |delta shares|
    max_shares_held: np.ndarray  # int64 (N,)
    stationarity_fraction: float  # fraction of (step, ticker) pairs left unchanged
    mean_holding_run: float  # mean rows per maximal constant-holding segment

    def to_dict(self) -> dict:
        return {
            "trade_count": [int(v) for v in self.trade_count],
            "total_turnover": [int(v) for v in self.total_turnover],
            "max_shares_held": [int(v) for v in self.max_shares_held],
            "stationarity_fraction": self.stationarity_fraction,
            "mean_holding_run": self.mean_holding_run,
        }


@dataclass(frozen=True)
class DiversityStats:
    """Concentration of integral holding; hhi/top1_share are None when the
    agent never held anything (the index is undefined at zero exposure)."""

    active_tickers: int
    hhi: float | None
    top1_share: float | None

    def to_dict(self) -> dict:
        return {"active_tickers": self.active_tickers, "hhi": self.hhi, "top1_share": self.top1_share}


@dataclass(frozen=True)
class BehaviorReport:
    """Everything the analytics layer derives from one episode."""

    agent_label: str
    timestamps: np.ndarray  # int64 (T,)
    cumulative_reward: np.ndarray  # float64 (T-1,) running account-currency total
    integral_holding: np.ndarray  # int64 (N,) share-steps
    holdings_matrix: np.ndarray  # int64 (T, N)
    trade_stats: TradeStats
    diversity: DiversityStats
    trader_score: float  # 1 - stationarity_fraction

    @property
    def final_cumulative_reward(self) -> float:
        return float(self.cumulative_reward[-1])

    @property
    def is_trader(self) -> bool:
        return self.trader_score > TRADER_THRESHOLD


def cumulative_reward(log: EpisodeLog) -> np.ndarray:
    """Running total of the logged per-step value deltas (Σ_{k<=t} r_k).

    The deltas telescope, so the last element is exactly V_T - V_0.
    """
    return np.cumsum(log.rewards)


def integral_holding(log: EpisodeLog) -> np.ndarray:
    """Time-summed exposure per ticker, in share-steps: Σ_t holdings[t][i]."""
    return log.holdings.sum(axis=0)


def trade_stats(log: EpisodeLog) -> TradeStats:
    holdings = log.holdings
    deltas = np.diff(holdings, axis=0)
    changed = deltas != 0
    trade_count = changed.sum(axis=0).astype(np.int64)
    # each change starts a new maximal constant run, so every ticker has
    # trade_count+1 runs covering all T rows; the mean follows in closed form
    n_runs = int(trade_count.sum()) + holdings.shape[1]
    return TradeStats(
        trade_count=trade_count,
        total_turnover=np.abs(deltas).sum(axis=0),
        max_shares_held=holdings.max(axis=0),
        stationarity_fraction=float((~changed).mean()),
        mean_holding_run=holdings.size / n_runs,
    )


def diversity_stats(log: EpisodeLog) -> DiversityStats:
    held = integral_holding(log)
    total = int(held.sum())
    active = int(np.count_nonzero(held))
    if total == 0:
        return DiversityStats(active_tickers=active, hhi=None, top1_share=None)
    shares = held / total
    return DiversityStats(
        active_tickers=active,
        hhi=float((shares**2).sum()),
        top1_share=float(shares.max()),
    )


def behavior_profile(log: EpisodeLog) -> BehaviorReport:
    """Assemble every analytic for one log; the report shares the log's
    read-only timestamp and holdings arrays."""
    stats = trade_stats(log)
    return BehaviorReport(
        agent_label=log.agent_label,
        timestamps=log.timestamps,
        cumulative_reward=cumulative_reward(log),
        integral_holding=integral_holding(log),
        holdings_matrix=log.holdings,
        trade_stats=stats,
        diversity=diversity_stats(log),
        trader_score=1.0 - stats.stationarity_fraction,
    )


@dataclass(frozen=True)
class ProfileComparison:
    """Side-by-side metric table over reports that share a window.

    ``rankings`` maps each metric to labels ordered best (largest) first;
    reports without a defined hhi rank last there.
    """

    labels: tuple
    final_cumulative_reward: tuple
    trader_score: tuple
    hhi: tuple
    max_shares_held: tuple
    rankings: dict = field(default_factory=dict)


def compare_profiles(reports) -> ProfileComparison:
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("comparison needs at least two reports")
    base = reports[0].timestamps
    for report in reports[1:]:
        if not np.array_equal(report.timestamps, base):
            raise WindowMismatch(
                f"report {report.agent_label!r} covers a different window than {reports[0].agent_label!r}"
            )
    labels = tuple(r.agent_label for r in reports)
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise DuplicateLabel(
            f"reports share the agent label {repeated[0]!r}; each row of a comparison needs its own label"
        )
    table = {
        "final_cumulative_reward": tuple(r.final_cumulative_reward for r in reports),
        "trader_score": tuple(r.trader_score for r in reports),
        "hhi": tuple(r.diversity.hhi for r in reports),
        "max_shares_held": tuple(int(r.trade_stats.max_shares_held.max()) for r in reports),
    }
    rankings = {}
    for metric, values in table.items():
        order = sorted(
            range(len(reports)),
            key=lambda i: (values[i] is None, -(values[i] if values[i] is not None else 0.0), i),
        )
        rankings[metric] = [labels[i] for i in order]
    return ProfileComparison(labels=labels, rankings=rankings, **table)


# ---------------------------------------------------------------------------
# persistence: one JSON document of record plus flat CSVs for plotting
# ---------------------------------------------------------------------------

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_array(items: list, depth: int) -> str:
    """``json.dumps(..., indent=2)`` of a list whose items are already JSON
    text, for a list whose opening bracket sits at nesting depth ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _json_floats(values: np.ndarray) -> list:
    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def save_report(report: BehaviorReport, directory) -> None:
    """Write report.json plus cumulative_reward/integral_holding/
    holdings_matrix CSVs under the given directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    timestamps = np.asarray(report.timestamps, dtype=np.int64)
    cumulative = np.asarray(report.cumulative_reward, dtype=np.float64)
    held = np.asarray(report.integral_holding, dtype=np.int64)
    holdings = np.asarray(report.holdings_matrix, dtype=np.int64)
    small = {
        "format": REPORT_MAGIC,
        "agent_label": report.agent_label,
        "trade_stats": report.trade_stats.to_dict(),
        "diversity": report.diversity.to_dict(),
        "trader_score": report.trader_score,
    }
    # json.dumps(doc, sort_keys=True, indent=2), with the four large arrays encoded column-wise
    fields = {key: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ") for key, value in small.items()}
    fields.update({
        "timestamps": _json_array(list(map(str, timestamps.tolist())), 1),
        "cumulative_reward": _json_array(_json_floats(cumulative), 1),
        "integral_holding": _json_array(list(map(str, held.tolist())), 1),
        "holdings_matrix": _json_array([_json_array(list(map(str, row)), 2) for row in holdings.tolist()], 1),
    })
    doc = ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    (directory / "report.json").write_text("{\n" + doc + "\n}\n")

    stamps = format_timestamps(timestamps)
    write_csv_columns(directory / "cumulative_reward.csv", ["t", "timestamp", "cumulative_reward"],
                      [np.arange(1, cumulative.shape[0] + 1), stamps[1:], cumulative])
    write_csv_columns(directory / "integral_holding.csv", ["ticker", "integral_holding"],
                      [np.arange(held.shape[0]), held])
    write_csv_columns(
        directory / "holdings_matrix.csv", ["t", "timestamp"] + [f"hold_{i}" for i in range(holdings.shape[1])],
        [np.arange(holdings.shape[0]), stamps, *holdings.T],
    )


def load_report(directory) -> BehaviorReport:
    """Rebuild a report from its JSON document of record.

    Every array must have the shape save_report gives it: timestamps (T,)
    with T >= 2, cumulative_reward (T-1,), holdings_matrix (T, N) with
    N >= 1, and integral_holding and the trade-stat vectors (N,).
    """
    path = Path(directory) / "report.json"
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise MalformedReport(f"unparsable report JSON: {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != REPORT_MAGIC:
        raise MalformedReport(f"not a behavior report: {path}")

    def numbers(name: str, integer: bool, shape: tuple = ()):
        """The field at dotted ``name``, shaped ``shape`` (None: any length):
        JSON integers, or numbers (NaN and ±Infinity too), never coerced."""
        value = doc
        for key in name.split("."):
            value = value[key]
        cells = np.array(value, dtype=object)
        if not set(map(type, cells.flat)) <= ({int} if integer else {int, float}):
            kind = "integers" if integer else "numbers"
            raise MalformedReport(f"report field {name} must hold JSON {kind} only, got {value!r:.80}", path=path)
        if cells.ndim != len(shape) or any(size not in (None, got) for got, size in zip(cells.shape, shape)):
            raise MalformedReport(f"report field {name} has shape {cells.shape}, expected {shape}", path=path)
        return cells.astype(np.int64 if integer else np.float64) if shape else (int if integer else float)(value)

    def require(ok: bool, name: str, what: str) -> None:
        if not ok:
            raise MalformedReport(f"report field {name} must be {what}, got {doc[name]!r:.80}", path=path)

    try:
        require(isinstance(doc["agent_label"], str), "agent_label", "a string")
        stamps = numbers("timestamps", True, (None,))
        require(len(stamps) >= 2, "timestamps", "(T,) with T >= 2")
        holdings = numbers("holdings_matrix", True, (len(stamps), None))
        require(holdings.shape[1] >= 1, "holdings_matrix", "(T, N) with N >= 1")
        n = holdings.shape[1]
        return BehaviorReport(
            agent_label=doc["agent_label"],
            timestamps=stamps,
            cumulative_reward=numbers("cumulative_reward", False, (len(stamps) - 1,)),
            integral_holding=numbers("integral_holding", True, (n,)),
            holdings_matrix=holdings,
            trade_stats=TradeStats(
                *(numbers(f"trade_stats.{key}", True, (n,))
                  for key in ("trade_count", "total_turnover", "max_shares_held")),
                *(numbers(f"trade_stats.{key}", False) for key in ("stationarity_fraction", "mean_holding_run")),
            ),
            diversity=DiversityStats(
                numbers("diversity.active_tickers", True),
                *(None if doc["diversity"][key] is None else numbers(f"diversity.{key}", False)
                  for key in ("hhi", "top1_share")),
            ),
            trader_score=numbers("trader_score", False),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedReport(f"report fields missing or malformed: {path}: {exc}") from None


def write_comparison_csv(comparison: ProfileComparison, path) -> None:
    """Flat `agent,<metrics...>` table; hhi prints empty when undefined."""

    def cell(value) -> str:
        return "" if value is None else float.__repr__(value) if isinstance(value, float) else str(value)

    write_csv_columns(path, ["agent", *COMPARISON_METRICS], [
        map(quote_csv, comparison.labels), *(map(cell, getattr(comparison, metric)) for metric in COMPARISON_METRICS),
    ])
