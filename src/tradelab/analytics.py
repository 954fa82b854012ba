"""Behavioral analytics over episode logs.

A BehaviorReport holds one episode's cumulative reward (prefix sums of the
logged value deltas, so the series is in account currency) and holdings
matrix, and derives the rest from the holdings, an int64 (T, N) array at
least two rows long and one ticker wide, which the report checks itself:
integral holding (time-summed share exposure), trade statistics over
position changes, purchase-diversity concentration, and a continuous
holder-vs-trader score. Trades are detected as holding changes, never from
the action sign — a clipped no-op action is not a trade.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binfile import write_file
from .env import EpisodeLog
from .errors import TradeLabError
from .marketdata import _STAMP_YEARS, _freeze, _increasing, quote_csv, write_csv_columns

__all__ = [
    "TradeStats",
    "DiversityStats",
    "BehaviorReport",
    "ProfileComparison",
    "MalformedReport",
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


@dataclass(frozen=True)
class DiversityStats:
    """Concentration of integral holding; hhi/top1_share are None when the
    agent never held anything (the index is undefined at zero exposure)."""

    active_tickers: int
    hhi: float | None
    top1_share: float | None


@dataclass(frozen=True)
class BehaviorReport:
    """One episode's rewards and holdings, and every statistic the analytics
    layer derives from the holdings; a report is never handed a statistic.

    The four given fields hold their own rule, and a fault raises ValueError
    naming the field: timestamps (T,) with T >= 2, strictly increasing, within UTC years
    1-9999; holdings (T, N) with N >= 1, never negative; cumulative reward (T-1,).
    """

    agent_label: str
    timestamps: np.ndarray  # int64 (T,)
    cumulative_reward: np.ndarray  # float64 (T-1,) running account-currency total
    holdings_matrix: np.ndarray  # int64 (T, N)
    integral_holding: np.ndarray = field(init=False)  # int64 (N,) share-steps
    trade_stats: TradeStats = field(init=False)
    diversity: DiversityStats = field(init=False)

    def __post_init__(self):
        _freeze(self, np.int64, None, "timestamps", "holdings_matrix")
        _freeze(self, np.float64, None, "cumulative_reward")
        stamps, held = self.timestamps, self.holdings_matrix
        t = stamps.shape[0] if stamps.ndim == 1 else 0
        if t < 2:
            raise ValueError(f"report field timestamps must be (T,) with T >= 2, got shape {stamps.shape}")
        if not _increasing(stamps).all():
            raise ValueError("report field timestamps must be strictly increasing")
        if ((stamps < _STAMP_YEARS[0]) | (stamps >= _STAMP_YEARS[1])).any():
            raise ValueError("report field timestamps must lie in UTC years 1-9999")
        if held.ndim != 2 or held.shape[0] != t or held.shape[1] < 1:
            raise ValueError(f"report field holdings_matrix must be ({t}, N) with N >= 1, got shape {held.shape}")
        if (held < 0).any():
            raise ValueError("report field holdings_matrix must never be negative")
        if self.cumulative_reward.shape != (t - 1,):
            raise ValueError(f"report field cumulative_reward must be ({t - 1},), "
                             f"got shape {self.cumulative_reward.shape}")
        object.__setattr__(self, "integral_holding", integral_holding(self.holdings_matrix))
        object.__setattr__(self, "trade_stats", trade_stats(self.holdings_matrix))
        object.__setattr__(self, "diversity", diversity_stats(self.holdings_matrix))

    @property
    def trader_score(self) -> float:
        return 1.0 - self.trade_stats.stationarity_fraction

    @property
    def final_cumulative_reward(self) -> float:
        return float(self.cumulative_reward[-1])

    @property
    def is_trader(self) -> bool:
        return self.trader_score > TRADER_THRESHOLD


def integral_holding(holdings: np.ndarray) -> np.ndarray:
    """Time-summed exposure per ticker, in share-steps: Σ_t holdings[t][i]."""
    return holdings.sum(axis=0)


def trade_stats(holdings: np.ndarray) -> TradeStats:
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


def diversity_stats(holdings: np.ndarray) -> DiversityStats:
    held = integral_holding(holdings)
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
    """The report of one log: its cumulative reward is the running total of
    the logged value deltas, whose last element is exactly V_T - V_0; the
    report shares the log's read-only timestamp and holdings arrays."""
    return BehaviorReport(log.agent_label, log.timestamps, np.cumsum(log.rewards), log.holdings)


@dataclass(frozen=True)
class ProfileComparison:
    """Side-by-side metric table over reports that share a window; one
    entry per report in each column, and None for an hhi that is not defined."""

    labels: tuple
    final_cumulative_reward: tuple
    trader_score: tuple
    hhi: tuple
    max_shares_held: tuple


def compare_profiles(reports) -> ProfileComparison:
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("comparison needs at least two reports")
    base = reports[0].timestamps
    for report in reports[1:]:
        if not np.array_equal(report.timestamps, base):
            raise TradeLabError(
                f"report {report.agent_label!r} covers a different window than {reports[0].agent_label!r}"
            )
    labels = tuple(r.agent_label for r in reports)
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise TradeLabError(
            f"reports share the agent label {repeated[0]!r}; each row of a comparison needs its own label"
        )
    return ProfileComparison(
        labels=labels,
        final_cumulative_reward=tuple(r.final_cumulative_reward for r in reports),
        trader_score=tuple(r.trader_score for r in reports),
        hhi=tuple(r.diversity.hhi for r in reports),
        max_shares_held=tuple(int(r.trade_stats.max_shares_held.max()) for r in reports),
    )


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


def _json_fields(record) -> dict:
    """A stats record's fields as JSON values, each array as a list."""
    return {name: value.tolist() if isinstance(value, np.ndarray) else value for name, value in vars(record).items()}


def _report_fields(report: BehaviorReport) -> dict:
    """report.json's fields but the three per-step arrays, as JSON values:
    save_report writes them, and load_report holds a stored report to them."""
    return {
        "format": REPORT_MAGIC,
        "agent_label": report.agent_label,
        "integral_holding": report.integral_holding.tolist(),
        "trade_stats": _json_fields(report.trade_stats),
        "diversity": _json_fields(report.diversity),
        "trader_score": report.trader_score,
    }


def save_report(report: BehaviorReport, directory) -> None:
    """Write report.json plus cumulative_reward/integral_holding/
    holdings_matrix CSVs under the given directory."""
    directory = Path(directory)
    timestamps, cumulative, holdings = report.timestamps, report.cumulative_reward, report.holdings_matrix
    rewards = list(map(float.__repr__, cumulative.tolist()))  # the CSV's text; JSON spells nan and inf its own way
    json_rewards = rewards if np.isfinite(cumulative).all() else [_JSON_NONFINITE.get(text, text) for text in rewards]
    row_template = _json_array(["{}"] * holdings.shape[1], 2)  # one row of the holdings_matrix JSON array
    # json.dumps(doc, sort_keys=True, indent=2), with the three per-step arrays encoded column-wise
    fields = {key: json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
              for key, value in _report_fields(report).items()}
    fields.update({
        "timestamps": _json_array(list(map(str, timestamps.tolist())), 1),
        "cumulative_reward": _json_array(json_rewards, 1),
        "holdings_matrix": _json_array(list(map(row_template.format, *holdings.T.tolist())), 1),
    })
    doc = ",\n".join(f"  {json.dumps(key)}: {fields[key]}" for key in sorted(fields))
    write_file(directory / "report.json", ["{\n", doc, "\n}\n"])

    stamps = timestamps.view("datetime64[s]")
    write_csv_columns(directory / "cumulative_reward.csv", ["t", "timestamp", "cumulative_reward"],
                      [np.arange(1, cumulative.shape[0] + 1), stamps[1:], rewards])
    write_csv_columns(directory / "integral_holding.csv", ["ticker", "integral_holding"],
                      [np.arange(holdings.shape[1]), report.integral_holding])
    write_csv_columns(
        directory / "holdings_matrix.csv", ["t", "timestamp"] + [f"hold_{i}" for i in range(holdings.shape[1])],
        [np.arange(holdings.shape[0]), stamps, *holdings.T],
    )


def load_report(directory) -> BehaviorReport:
    """Rebuild a report from its JSON document of record.

    The four given fields are decoded as JSON types (agent_label a string,
    timestamps and holdings_matrix integers, cumulative_reward numbers) and
    then hold BehaviorReport's own rule. Every other stored field must be, as
    JSON text, what the rebuilt report derives from its holdings, as
    save_report writes it.
    """
    path = Path(directory) / "report.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise MalformedReport(f"unparsable report JSON: {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != REPORT_MAGIC:
        raise MalformedReport(f"not a behavior report: {path}")

    def numbers(name: str, integer: bool) -> np.ndarray:
        """The field ``name``: JSON integers, or numbers (NaN and ±Infinity
        too), never coerced."""
        cells = np.array(doc[name], dtype=object)
        if not set(map(type, cells.flat)) <= ({int} if integer else {int, float}):
            kind = "integers" if integer else "numbers"
            raise MalformedReport(f"report field {name} must hold JSON {kind} only, got {doc[name]!r:.80}", path=path)
        return cells.astype(np.int64 if integer else np.float64)

    try:
        if not isinstance(doc["agent_label"], str):
            raise MalformedReport(f"report field agent_label must be a string, got {doc['agent_label']!r:.80}",
                                  path=path)
        fields = (numbers("timestamps", True), numbers("cumulative_reward", False), numbers("holdings_matrix", True))
        try:
            report = BehaviorReport(doc["agent_label"], *fields)
        except ValueError as exc:
            raise MalformedReport(str(exc), path=path) from None
        for key, derived in _report_fields(report).items():
            for sub, value in derived.items() if isinstance(derived, dict) else [(None, derived)]:
                name, stored = (key, doc[key]) if sub is None else (f"{key}.{sub}", doc[key][sub])
                if json.dumps(stored) != json.dumps(value):
                    raise MalformedReport(f"report field {name} is {json.dumps(stored):.80}, but the holdings "
                                          f"give {json.dumps(value):.80}", path=path)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedReport(f"report fields missing or malformed: {path}: {exc}") from None
    return report


def write_comparison_csv(comparison: ProfileComparison, path) -> None:
    """Flat `agent,<metrics...>` table; hhi prints empty when undefined."""

    def cell(value) -> str:
        return "" if value is None else float.__repr__(value) if isinstance(value, float) else str(value)

    write_csv_columns(path, ["agent", *COMPARISON_METRICS], [list(map(quote_csv, comparison.labels)),
                      *(list(map(cell, getattr(comparison, metric))) for metric in COMPARISON_METRICS)])
