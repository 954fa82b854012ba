"""Analytics tests: every metric against a brute-force oracle, the documented
degenerate cases, profile comparison, and report persistence."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import HOUR, hourly_axis, make_features
from tradelab.agents.policies import HoldPolicy, RandomPolicy
from tradelab.analytics import (
    BehaviorReport,
    DiversityStats,
    MalformedReport,
    behavior_profile,
    compare_profiles,
    diversity_stats,
    integral_holding,
    load_report,
    save_report,
    trade_stats,
    write_comparison_csv,
)
from tradelab.env import EnvConfig, EpisodeLog, MalformedLog, Window, run_episode
from tradelab.errors import TradeLabError

START = 1_646_380_800


def synthetic_log(rng, t=40, n=4, label="synthetic", holdings=None):
    """A structurally valid log with arbitrary cash/value content; analytics
    only reads timestamps, rewards, and holdings."""
    if holdings is None:
        start = rng.integers(0, 5, size=(1, n))
        steps = rng.integers(-3, 4, size=(t - 1, n))
        steps[rng.random((t - 1, n)) < 0.4] = 0
        holdings = np.maximum(np.cumsum(np.vstack([start, steps]), axis=0), 0)
    t = holdings.shape[0]
    n = holdings.shape[1]
    return EpisodeLog(
        timestamps=hourly_axis(START, t),
        actions=rng.uniform(-1.0, 1.0, size=(t, n)),
        holdings=holdings,
        cash=rng.uniform(0.0, 1e6, size=t),
        portfolio_value=rng.uniform(1e5, 2e6, size=t),
        rewards=rng.standard_normal(t - 1) * 100.0,
        agent_label=label,
    )


def scan_trade_stats(holdings):
    """Independent double-loop scanner for every trade statistic."""
    t, n = holdings.shape
    trade_count, turnover, max_held, runs = [], [], [], []
    stationary = 0
    for i in range(n):
        col = holdings[:, i]
        count = 0
        turn = 0
        for k in range(t - 1):
            d = int(col[k + 1]) - int(col[k])
            if d != 0:
                count += 1
                turn += abs(d)
            else:
                stationary += 1
        trade_count.append(count)
        turnover.append(turn)
        max_held.append(int(col.max()))
        length = 1
        for k in range(1, t):
            if col[k] == col[k - 1]:
                length += 1
            else:
                runs.append(length)
                length = 1
        runs.append(length)
    return (
        trade_count,
        turnover,
        max_held,
        stationary / ((t - 1) * n),
        sum(runs) / len(runs),
    )


def test_episode_log_refuses_a_one_row_log():
    """Every analytic needs a step; EpisodeLog guarantees one."""
    with pytest.raises(MalformedLog, match="at least two rows"):
        EpisodeLog(
            timestamps=hourly_axis(START, 1),
            actions=np.zeros((1, 3)),
            holdings=np.zeros((1, 3), dtype=np.int64),
            cash=np.ones(1),
            portfolio_value=np.ones(1),
            rewards=np.zeros(0),
            agent_label="one-row",
        )


class TestCumulativeReward:
    def test_prefix_sums(self, rng):
        log = synthetic_log(rng, t=4, n=2)
        object.__setattr__(log, "rewards", np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(behavior_profile(log).cumulative_reward, [1.0, 3.0, 6.0])

    def test_hold_log_is_flat_zero(self, rng):
        feats = make_features(["AA", "BB"], 80, seed=3)
        log = run_episode(HoldPolicy(), EnvConfig(), feats, Window(feats.warmup, 80), seed=0)
        assert np.array_equal(behavior_profile(log).cumulative_reward, np.zeros(log.n_timestamps - 1))

    def test_final_equals_value_delta(self, rng):
        feats = make_features(["AA", "BB", "CC"], 120, seed=9)
        log = run_episode(RandomPolicy(), EnvConfig(), feats, Window(feats.warmup, 120), seed=4)
        series = behavior_profile(log).cumulative_reward
        expected = log.portfolio_value[-1] - log.portfolio_value[0]
        assert series[-1] == pytest.approx(expected, rel=1e-9, abs=1e-6)
        assert series.shape == (log.n_timestamps - 1,)

    def test_invariant_under_ticker_permutation(self, rng):
        log = synthetic_log(rng, t=30, n=5)
        perm = rng.permutation(5)
        swapped = EpisodeLog(
            timestamps=log.timestamps,
            actions=log.actions[:, perm],
            holdings=log.holdings[:, perm],
            cash=log.cash,
            portfolio_value=log.portfolio_value,
            rewards=log.rewards,
            agent_label=log.agent_label,
        )
        assert np.array_equal(behavior_profile(log).cumulative_reward, behavior_profile(swapped).cumulative_reward)


class TestIntegralHolding:
    def test_constant_holding(self, rng):
        holdings = np.full((12, 3), 7, dtype=np.int64)
        log = synthetic_log(rng, holdings=holdings)
        assert np.array_equal(integral_holding(log.holdings), [84, 84, 84])

    def test_untraded_ticker_is_zero(self, rng):
        holdings = np.zeros((10, 2), dtype=np.int64)
        holdings[:, 0] = 5
        log = synthetic_log(rng, holdings=holdings)
        assert np.array_equal(integral_holding(log.holdings), [50, 0])

    def test_double_loop_oracle(self, rng):
        for _ in range(25):
            log = synthetic_log(rng, t=int(rng.integers(2, 60)), n=int(rng.integers(1, 6)))
            expected = [
                sum(int(log.holdings[t, i]) for t in range(log.n_timestamps))
                for i in range(log.n_tickers)
            ]
            assert np.array_equal(integral_holding(log.holdings), expected)

    def test_permutation_equivariance(self, rng):
        log = synthetic_log(rng, t=30, n=5)
        perm = rng.permutation(5)
        swapped = synthetic_log(rng, holdings=log.holdings[:, perm])
        assert np.array_equal(integral_holding(swapped.holdings), integral_holding(log.holdings)[perm])


class TestTradeStats:
    def test_buy_and_hold_shape(self, rng):
        # one trade per ticker at the first step, then frozen
        holdings = np.zeros((10, 3), dtype=np.int64)
        holdings[1:] = [5, 9, 2]
        stats = trade_stats(holdings)
        assert np.array_equal(stats.trade_count, [1, 1, 1])
        assert np.array_equal(stats.total_turnover, [5, 9, 2])
        assert np.array_equal(stats.max_shares_held, [5, 9, 2])
        assert stats.stationarity_fraction == pytest.approx(8 / 9)
        # runs per ticker: the initial zero row and the held block
        assert stats.mean_holding_run == pytest.approx(30 / 6)

    def test_alternating_run_of_one(self, rng):
        holdings = (np.arange(12, dtype=np.int64) % 2)[:, None]
        stats = trade_stats(holdings)
        assert stats.mean_holding_run == 1.0
        assert stats.stationarity_fraction == 0.0
        assert stats.trade_count[0] == 11

    def test_scanner_oracle(self, rng):
        for _ in range(25):
            log = synthetic_log(rng, t=int(rng.integers(2, 80)), n=int(rng.integers(1, 6)))
            stats = trade_stats(log.holdings)
            count, turn, held, stationary, mean_run = scan_trade_stats(np.asarray(log.holdings))
            assert np.array_equal(stats.trade_count, count)
            assert np.array_equal(stats.total_turnover, turn)
            assert np.array_equal(stats.max_shares_held, held)
            assert stats.stationarity_fraction == stationary
            assert stats.mean_holding_run == mean_run

    def test_env_log_respects_position_cap(self, rng):
        feats = make_features(["AA", "BB"], 100, seed=21)
        cfg = EnvConfig(hmax=10)
        log = run_episode(RandomPolicy(), cfg, feats, Window(feats.warmup, 100), seed=2)
        stats = trade_stats(log.holdings)
        assert np.all(stats.max_shares_held <= cfg.hmax * (log.n_timestamps - 1))
        assert np.all(np.abs(np.diff(np.asarray(log.holdings), axis=0)) <= cfg.hmax)


class TestDiversityStats:
    def test_single_ticker_concentration(self, rng):
        holdings = np.zeros((10, 4), dtype=np.int64)
        holdings[:, 2] = 3
        d = diversity_stats(holdings)
        assert d.active_tickers == 1
        assert d.hhi == 1.0
        assert d.top1_share == 1.0

    def test_uniform_over_thirty(self, rng):
        holdings = np.full((6, 30), 11, dtype=np.int64)
        d = diversity_stats(holdings)
        assert d.active_tickers == 30
        assert d.hhi == pytest.approx(1 / 30, abs=1e-12)
        assert d.top1_share == pytest.approx(1 / 30, abs=1e-12)

    def test_zero_exposure_reports_absent(self, rng):
        holdings = np.zeros((8, 5), dtype=np.int64)
        d = diversity_stats(holdings)
        assert d.active_tickers == 0
        assert d.hhi is None
        assert d.top1_share is None

    def test_formula_oracle_and_bounds(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 8))
            log = synthetic_log(rng, t=int(rng.integers(2, 50)), n=n)
            d = diversity_stats(log.holdings)
            held = integral_holding(log.holdings)
            total = held.sum()
            if total == 0:
                assert d.hhi is None
                continue
            expected = sum((int(h) / int(total)) ** 2 for h in held)
            assert d.hhi == pytest.approx(expected, abs=1e-12)
            assert 1 / n - 1e-12 <= d.hhi <= 1 + 1e-12
            assert d.top1_share == pytest.approx(max(int(h) for h in held) / int(total), abs=1e-12)


class TestBehaviorProfile:
    def test_hold_profile(self, rng):
        feats = make_features(["AA", "BB"], 60, seed=5)
        log = run_episode(HoldPolicy(), EnvConfig(), feats, Window(feats.warmup, 60), seed=0)
        report = behavior_profile(log)
        assert report.trader_score == 0.0
        assert report.diversity.active_tickers == 0
        assert not report.is_trader
        assert report.agent_label == "hold"

    def test_random_profile_trades(self):
        # cheap stocks and ample cash keep clipping rare: essentially every
        # step moves some position, so the score clears 0.5 for every seed
        for seed in range(20):
            feats = make_features(["AA", "BB", "CC"], 140, seed=100 + seed, vol=0.005)
            log = run_episode(
                RandomPolicy(), EnvConfig(), feats, Window(feats.warmup, 140), seed=seed
            )
            assert behavior_profile(log).trader_score > 0.5

    def test_buy_and_hold_hand_oracle(self, rng):
        # 5 rows, both tickers bought once: 2 changed pairs of 8 total
        holdings = np.zeros((5, 2), dtype=np.int64)
        holdings[1:] = [4, 6]
        report = behavior_profile(synthetic_log(rng, holdings=holdings))
        assert report.trader_score == pytest.approx(1 / 4)
        assert report.trade_stats.stationarity_fraction == pytest.approx(3 / 4)

    def test_score_monotone_in_changes(self, rng):
        holdings = np.full((20, 3), 5, dtype=np.int64)
        holdings[10:, 0] = 7
        base = behavior_profile(synthetic_log(rng, holdings=holdings)).trader_score
        holdings2 = holdings.copy()
        holdings2[15:, 1] = 2  # one extra change
        more = behavior_profile(synthetic_log(rng, holdings=holdings2)).trader_score
        assert more > base

    def test_definitional_identity(self, rng):
        for _ in range(10):
            report = behavior_profile(synthetic_log(rng))
            assert report.trader_score == 1.0 - report.trade_stats.stationarity_fraction
            assert 0.0 <= report.trader_score <= 1.0
            assert report.final_cumulative_reward == report.cumulative_reward[-1]


class TestCompareProfiles:
    def _pair(self, rng):
        feats = make_features(["AA", "BB"], 80, seed=13)
        window = Window(feats.warmup, 80)
        hold = behavior_profile(run_episode(HoldPolicy(), EnvConfig(), feats, window, seed=1))
        rand = behavior_profile(run_episode(RandomPolicy(), EnvConfig(), feats, window, seed=1))
        return hold, rand

    def test_random_outranks_hold_on_trading(self, rng):
        hold, rand = self._pair(rng)
        table = compare_profiles([hold, rand])
        assert table.labels == ("hold", "random")
        assert table.trader_score[1] > table.trader_score[0]

    def test_identical_logs_identical_rows(self, rng):
        log = synthetic_log(rng, label="twin")
        a, b = behavior_profile(log), behavior_profile(replace(log, agent_label="twin-2"))
        table = compare_profiles([a, b])
        assert table.trader_score[0] == table.trader_score[1]
        assert table.final_cumulative_reward[0] == table.final_cumulative_reward[1]
        assert table.hhi[0] == table.hhi[1] and table.max_shares_held[0] == table.max_shares_held[1]

    def test_constructed_ordering(self, rng):
        def with_changes(label, n_changes):
            holdings = np.zeros((20, 2), dtype=np.int64)
            for k in range(n_changes):
                holdings[k + 1 :, 0] += 1
            return behavior_profile(synthetic_log(rng, holdings=holdings, label=label))

        table = compare_profiles([with_changes("low", 2), with_changes("mid", 6), with_changes("high", 12)])
        assert table.labels == ("low", "mid", "high")
        assert table.trader_score[0] < table.trader_score[1] < table.trader_score[2]

    def test_window_mismatch(self, rng):
        a = behavior_profile(synthetic_log(rng, t=30))
        b = behavior_profile(synthetic_log(rng, t=31))
        with pytest.raises(TradeLabError, match="covers a different window than"):
            compare_profiles([a, b])

    def test_duplicate_labels_rejected(self, rng):
        # a repeated label would make row() return the first report's row for both
        a = behavior_profile(synthetic_log(rng, label="twin"))
        b = behavior_profile(synthetic_log(rng, label="solo"))
        c = behavior_profile(synthetic_log(rng, label="twin"))
        with pytest.raises(TradeLabError, match="reports share the agent label 'twin'"):
            compare_profiles([a, b, c])

    def test_needs_two(self, rng):
        with pytest.raises(ValueError):
            compare_profiles([behavior_profile(synthetic_log(rng))])

    def test_absent_hhi_is_none(self, rng):
        zero = behavior_profile(synthetic_log(rng, holdings=np.zeros((15, 2), dtype=np.int64), label="idle"))
        busy = behavior_profile(
            synthetic_log(rng, holdings=np.ones((15, 2), dtype=np.int64), label="busy")
        )
        table = compare_profiles([zero, busy])
        assert table.hhi[0] is None and table.hhi[1] is not None


class TestReportPersistence:
    def test_round_trip(self, tmp_path, rng):
        report = behavior_profile(synthetic_log(rng, label="keeper"))
        save_report(report, tmp_path / "out")
        loaded = load_report(tmp_path / "out")
        assert loaded.agent_label == report.agent_label
        assert np.array_equal(loaded.timestamps, report.timestamps)
        assert np.array_equal(loaded.cumulative_reward, report.cumulative_reward)
        assert np.array_equal(loaded.integral_holding, report.integral_holding)
        assert np.array_equal(loaded.holdings_matrix, report.holdings_matrix)
        assert loaded.trader_score == report.trader_score
        assert np.array_equal(loaded.trade_stats.trade_count, report.trade_stats.trade_count)
        assert loaded.trade_stats.mean_holding_run == report.trade_stats.mean_holding_run
        assert loaded.diversity == report.diversity

    def test_absent_hhi_round_trips(self, tmp_path, rng):
        report = behavior_profile(
            synthetic_log(rng, holdings=np.zeros((10, 3), dtype=np.int64), label="idle")
        )
        save_report(report, tmp_path / "idle")
        loaded = load_report(tmp_path / "idle")
        assert loaded.diversity.hhi is None
        assert loaded.diversity.top1_share is None

    def test_csv_side_outputs(self, tmp_path, rng):
        report = behavior_profile(synthetic_log(rng, t=25, n=3))
        save_report(report, tmp_path / "out")
        cumulative = (tmp_path / "out" / "cumulative_reward.csv").read_text().splitlines()
        assert cumulative[0] == "t,timestamp,cumulative_reward"
        assert len(cumulative) == 25  # header + T-1 rows
        parsed = [float(line.split(",")[-1]) for line in cumulative[1:]]
        assert np.array_equal(parsed, report.cumulative_reward)
        holding = (tmp_path / "out" / "integral_holding.csv").read_text().splitlines()
        assert holding[0] == "ticker,integral_holding"
        assert len(holding) == 4
        matrix = (tmp_path / "out" / "holdings_matrix.csv").read_text().splitlines()
        assert matrix[0] == "t,timestamp,hold_0,hold_1,hold_2"
        assert len(matrix) == 26

    def test_save_is_deterministic(self, tmp_path, rng):
        report = behavior_profile(synthetic_log(rng))
        save_report(report, tmp_path / "a")
        save_report(report, tmp_path / "b")
        for name in ("report.json", "cumulative_reward.csv", "integral_holding.csv", "holdings_matrix.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_malformed_report(self, tmp_path):
        target = tmp_path / "bad"
        target.mkdir()
        (target / "report.json").write_text("{not json")
        with pytest.raises(MalformedReport):
            load_report(target)
        (target / "report.json").write_text('{"format": "other"}')
        with pytest.raises(MalformedReport):
            load_report(target)
        (target / "report.json").write_text('{"format": "tradelab-report-v1"}')
        with pytest.raises(MalformedReport):
            load_report(target)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("timestamps", lambda doc: doc["timestamps"][:1]),
            ("timestamps", lambda doc: [doc["timestamps"]]),
            ("cumulative_reward", lambda doc: doc["cumulative_reward"][:-1]),
            ("holdings_matrix", lambda doc: doc["holdings_matrix"][:-1]),
            ("holdings_matrix", lambda doc: [row[:0] for row in doc["holdings_matrix"]]),
            ("holdings_matrix", lambda doc: doc["timestamps"]),
            ("integral_holding", lambda doc: doc["integral_holding"][:-1]),
            ("trade_stats.trade_count", lambda doc: doc["trade_stats"]["trade_count"] + [0]),
            ("trade_stats.max_shares_held", lambda doc: doc["trade_stats"]["max_shares_held"][:1]),
        ],
        ids=["one-stamp", "stamps-2d", "short-reward", "short-matrix", "no-tickers", "matrix-1d",
             "short-integral", "long-trade-count", "short-max-held"],
    )
    def test_report_with_wrong_shape_is_malformed(self, tmp_path, rng, field, edit):
        save_report(behavior_profile(synthetic_log(rng, t=12, n=3)), tmp_path / "out")
        path = tmp_path / "out" / "report.json"
        doc = json.loads(path.read_text())
        value = edit(doc)
        if field.startswith("trade_stats."):
            doc["trade_stats"][field.split(".")[1]] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedReport) as caught:
            load_report(tmp_path / "out")
        assert f"report field {field} " in str(caught.value) and str(path) in str(caught.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("holdings_matrix", [["-5", 2.9], ["-5", "2"]]),
            ("holdings_matrix", [[1.0, 2], [3, 4]]),
            ("holdings_matrix", [[1, 2], [3]]),
            ("timestamps", [True, 3600]),
            ("integral_holding", [2.5, 1, 0]),
            ("cumulative_reward", ["1.5"]),
            ("cumulative_reward", [False]),
            ("trade_stats.trade_count", ["1", 0, 0]),
            ("trade_stats.stationarity_fraction", "0.5"),
            ("trade_stats.mean_holding_run", [2.0]),
            ("diversity.active_tickers", 2.0),
            ("diversity.hhi", True),
            ("trader_score", "0.5"),
            ("agent_label", 7),
        ],
        ids=["strings-in-matrix", "float-in-matrix", "ragged-matrix", "bool-stamp", "float-holding",
             "string-reward", "bool-reward", "string-count", "string-fraction", "list-run", "float-active",
             "bool-hhi", "string-score", "number-label"],
    )
    def test_report_values_are_never_coerced(self, tmp_path, rng, field, value):
        save_report(behavior_profile(synthetic_log(rng, t=12, n=3)), tmp_path / "out")
        path = tmp_path / "out" / "report.json"
        doc = json.loads(path.read_text())
        *parents, key = field.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedReport) as caught:
            load_report(tmp_path / "out")
        assert f"report field {field} " in str(caught.value) and str(path) in str(caught.value)

    def test_report_floats_take_integers_and_nonfinite_numbers(self, tmp_path, rng):
        save_report(behavior_profile(synthetic_log(rng, t=5, n=2)), tmp_path / "out")
        path = tmp_path / "out" / "report.json"
        doc = json.loads(path.read_text())
        doc["cumulative_reward"] = [1, float("nan"), float("inf"), -float("inf")]
        path.write_text(json.dumps(doc))
        loaded = load_report(tmp_path / "out")
        assert loaded.cumulative_reward.dtype == np.float64
        assert loaded.cumulative_reward.tobytes() == np.array([1.0, np.nan, np.inf, -np.inf]).tobytes()

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("timestamps", lambda doc: doc["timestamps"].reverse()),
            ("holdings_matrix", lambda doc: doc["holdings_matrix"][0].__setitem__(0, -7)),
            ("trader_score", lambda doc: doc.__setitem__("trader_score", 0.99)),
            # well-typed statistics that the holdings contradict; the true values
            # are [37, 56, 7], [4, 4, 7], [7, 6, 8], [5, 8, 2], 6/11, 2.0, 3, 0.4554 and 0.56
            ("integral_holding", lambda doc: doc.__setitem__("integral_holding", [999, 0, 0])),
            ("trade_stats.trade_count", lambda doc: doc["trade_stats"].__setitem__("trade_count", [0, 0, 0])),
            ("trade_stats.total_turnover", lambda doc: doc["trade_stats"].__setitem__("total_turnover", [7, 6, 9])),
            ("trade_stats.max_shares_held", lambda doc: doc["trade_stats"].__setitem__("max_shares_held", [7, 7, 7])),
            ("trade_stats.stationarity_fraction",
             lambda doc: doc["trade_stats"].__setitem__("stationarity_fraction", 0.5)),
            ("trade_stats.mean_holding_run", lambda doc: doc["trade_stats"].__setitem__("mean_holding_run", 12.0)),
            ("diversity.active_tickers", lambda doc: doc["diversity"].__setitem__("active_tickers", 1)),
            ("diversity.hhi", lambda doc: doc["diversity"].__setitem__("hhi", 0.9)),
            ("diversity.top1_share", lambda doc: doc["diversity"].__setitem__("top1_share", None)),
        ],
        ids=["reversed-stamps", "negative-holding", "score-off-stationarity", "wrong-integral", "wrong-trade-count",
             "wrong-turnover", "wrong-max-held", "wrong-stationarity", "wrong-mean-run", "wrong-active", "wrong-hhi",
             "absent-top1-share"],
    )
    def test_report_that_contradicts_itself_is_malformed(self, tmp_path, rng, field, edit):
        save_report(behavior_profile(synthetic_log(rng, t=12, n=3)), tmp_path / "out")
        path = tmp_path / "out" / "report.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedReport) as caught:
            load_report(tmp_path / "out")
        assert f"report field {field} " in str(caught.value) and str(path) in str(caught.value)

    def test_report_holds_its_own_rule_for_the_given_fields(self, tmp_path):
        """Whole float holdings convert, so the saved report loads; a
        fractional holding, and every shape, order and sign fault that
        load_report used to check alone, are the report's own ValueError."""
        stamps, reward = [0, 3600, 7200], [1.0, 2.0]
        report = BehaviorReport("f", stamps, reward, np.array([[0, 1], [2, 3], [2, 5]], dtype=np.float64))
        assert report.holdings_matrix.dtype == np.int64 and report.integral_holding.tolist() == [4, 9]
        save_report(report, tmp_path / "out")
        assert load_report(tmp_path / "out").integral_holding.tolist() == [4, 9]
        for given, field in [
            ((stamps, reward, [[0, 1.5], [2, 3], [2, 5]]), "'holdings_matrix' holds values that int64"),
            (([0], [], [[0]]), "timestamps must be"),
            (([0, 7200, 3600], reward, [[0], [0], [0]]), "timestamps must be strictly increasing"),
            ((stamps, reward, [[0], [0]]), "holdings_matrix must be"),
            ((stamps, reward, np.zeros((3, 0))), "holdings_matrix must be"),
            ((stamps, reward, [[0], [-1], [0]]), "holdings_matrix must never be negative"),
            ((stamps, [1.0], [[0], [0], [0]]), "cumulative_reward must be"),
        ]:
            with pytest.raises(ValueError, match=f"field {field}"):
                BehaviorReport("f", *given)

    def test_missing_report(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_report(tmp_path / "nowhere")

    def test_comparison_csv(self, tmp_path, rng):
        a = behavior_profile(synthetic_log(rng, label="alpha"))
        b = behavior_profile(synthetic_log(rng, label="beta"))
        table = compare_profiles([a, b])
        path = tmp_path / "comparison.csv"
        write_comparison_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "agent,final_cumulative_reward,trader_score,hhi,max_shares_held"
        assert len(lines) == 3
        assert lines[1].startswith("alpha,")
