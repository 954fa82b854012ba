"""Seeded fuzz of the files a run reads back: the binary frames (``panel.bin``,
``a2c.ckpt``), the JSON config, a behavior report's ``report.json`` and the
text inputs and logs (bar CSVs, aux CSVs and episode logs).

Every mutated file either loads or raises a TradeLabError whose message names
the file; nothing leaks a bare traceback. A config never loads a NaN or an
infinity into a numeric field, and a config class built in Python refuses
exactly the values its JSON section refuses.
"""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest

from conftest import hourly_axis, make_features, make_panel, make_walk_series, write_bars_csv
from tradelab.agents.a2c import A2CConfig, MlpPolicy, ObsNormalizer, load_checkpoint, save_checkpoint
from tradelab.agents.mlp import init_mlp
from tradelab.agents.policies import RandomPolicy
from tradelab.analytics import MalformedReport, behavior_profile, load_report, save_report
from tradelab.cli import RunConfig
from tradelab.config import ConfigError, decode_config
from tradelab.env import EnvConfig, Window, load_episode_log, run_episode, save_episode_log
from tradelab.errors import TradeLabError
from tradelab.indicators import IndicatorConfig
from tradelab.marketdata import (
    format_timestamps,
    load_bars,
    load_panel,
    load_series,
    save_panel,
    write_csv_columns,
)

# the config sections: the fields of RunConfig typed as config classes
SECTIONS = {name: hint for name, hint in typing.get_type_hints(RunConfig).items() if dataclasses.is_dataclass(hint)}
WRONG_VALUES = [None, True, -1, 1.5, "x", []]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _fails_closed(load, path, data: bytes):
    """Write ``data`` to ``path`` and load it: the result, or None after a
    TradeLabError that names the file."""
    path.write_bytes(data)
    try:
        return load(path)
    except TradeLabError as exc:
        assert str(path) in str(exc), exc
        return None


def _frame(tmp_path, name):
    path = tmp_path / name
    if name == "panel.bin":
        save_panel(make_panel(["AA", "BB"], 12, seed=1), path)
        return path, load_panel
    rng = np.random.default_rng(2)
    normalizer = ObsNormalizer(21)
    normalizer.update(rng.standard_normal((3, 21)))
    save_checkpoint(MlpPolicy(init_mlp((21, 4, 4, 2), rng), normalizer, config=A2CConfig(), steps_trained=20), path)
    return path, load_checkpoint


def _header_swaps(raw: bytes):
    """The frame with one header value, or one value nested one level down,
    replaced by each of WRONG_VALUES and each non-finite number."""
    head, _, payload = raw.partition(b"\n")
    header = json.loads(head)
    for key, value in header.items():
        spots = [(key, None)] + [(key, inner) for inner in (value if isinstance(value, dict) else range(
            len(value) if isinstance(value, list) else 0))]
        for outer, inner in spots:
            for wrong in [*WRONG_VALUES, *NON_FINITE]:
                edited = json.loads(head)
                if inner is None:
                    edited[outer] = wrong
                else:
                    edited[outer][inner] = wrong
                yield json.dumps(edited, sort_keys=True).encode() + b"\n" + payload


@pytest.mark.parametrize("name", ["panel.bin", "a2c.ckpt"])
def test_mutated_frames_load_or_fail_closed(tmp_path, name):
    path, load = _frame(tmp_path, name)
    raw = path.read_bytes()
    head_len = raw.index(b"\n") + 1
    assert _fails_closed(load, path, raw) is not None  # the unmutated frame loads
    rng = np.random.default_rng(61)
    cuts = sorted({*range(0, head_len + 2), *rng.integers(0, len(raw), 150).tolist()})
    for data in [raw[:cut] for cut in cuts] + [raw + extra for extra in (b"\x00", b"\n", b"x" * 9)]:
        assert _fails_closed(load, path, data) is None  # a frame of the wrong length never loads
    mutants = list(_header_swaps(raw))
    for k in range(300):  # single bit flips, half of them in the header
        at = int(rng.integers(0, head_len)) if k % 2 else int(rng.integers(0, len(raw)))
        flipped = bytearray(raw)
        flipped[at] ^= 1 << int(rng.integers(0, 8))
        mutants.append(bytes(flipped))
    for data in mutants:
        _fails_closed(load, path, data)


def test_mutated_reports_load_or_fail_closed(tmp_path):
    """Truncations and single bit flips of a saved report.json: each one
    loads as a report or raises MalformedReport naming the file."""
    features = make_features(["AA", "BB", "CC"], 60, seed=4)
    log = run_episode(RandomPolicy(), EnvConfig(hmax=20), features, Window(features.warmup, 60), seed=1)
    save_report(behavior_profile(log), tmp_path)
    path = tmp_path / "report.json"
    raw = path.read_bytes()
    rng = np.random.default_rng(67)
    mutants = [raw[:cut] for cut in sorted({0, 1, len(raw) - 1, *rng.integers(0, len(raw), 150).tolist()})]
    for _ in range(300):
        flipped = bytearray(raw)
        flipped[int(rng.integers(0, len(raw)))] ^= 1 << int(rng.integers(0, 8))
        mutants.append(bytes(flipped))
    outcomes = []
    for data in [raw, *mutants]:
        path.write_bytes(data)
        try:
            outcomes.append(load_report(tmp_path) is not None)
        except MalformedReport as exc:
            assert str(path) in str(exc), exc
            outcomes.append(False)
    assert outcomes[0] and outcomes[1:].count(False) > 0.9 * len(mutants)  # most mutants are refused


def _text_file(tmp_path, kind):
    """A small file of ``kind`` as the package writes or reads it, and its loader."""
    if kind == "bars":
        path = tmp_path / "AA.csv"
        write_bars_csv(path, make_walk_series("AA", hourly_axis(1_646_380_800, 40), np.random.default_rng(3)))
        return path, load_bars
    if kind == "series":
        path = tmp_path / "vix.csv"
        rng = np.random.default_rng(4)
        write_csv_columns(path, ["timestamp", "value"],
                          [format_timestamps(hourly_axis(1_646_380_800, 40)), rng.uniform(10.0, 40.0, 40)])
        return path, lambda p: load_series(p, "vix")
    features = make_features(["AA", "BB", "CC"], 60, seed=4)
    path = tmp_path / "log_random.csv"  # its sidecar stays as written
    save_episode_log(run_episode(RandomPolicy(), EnvConfig(hmax=20), features, Window(features.warmup, 60), seed=1),
                     path)
    return path, load_episode_log


@pytest.mark.parametrize("kind", ["bars", "series", "episode log"])
def test_mutated_text_files_load_or_fail_closed(tmp_path, kind):
    """Truncations and single-byte changes of a bar CSV, an aux CSV and an
    episode log: each one loads or raises a TradeLabError naming the file.
    Many load: a cut at a row's end, or a changed digit, leaves a valid file."""
    path, load = _text_file(tmp_path, kind)
    raw = path.read_bytes()
    assert _fails_closed(load, path, raw) is not None
    rng = np.random.default_rng(73)
    mutants = [raw[:cut] for cut in sorted({0, 1, len(raw) - 1, *rng.integers(0, len(raw), 150).tolist()})]
    for _ in range(300):
        changed = bytearray(raw)
        changed[int(rng.integers(0, len(raw)))] ^= int(rng.integers(1, 256))  # any other byte, UTF-8 or not
        mutants.append(bytes(changed))
    loaded = [_fails_closed(load, path, data) is not None for data in mutants]
    assert 0 < loaded.count(True) < len(mutants)


def _config_cases():
    """(section or None, field, value): every field of every config section,
    and of the top level, given each wrong value and each non-finite number."""
    for section, cls in [(None, RunConfig), *SECTIONS.items()]:
        for f in dataclasses.fields(cls):
            if section is None and f.name in SECTIONS:
                continue
            for value in [*WRONG_VALUES, {}, *NON_FINITE]:
                yield section, f.name, value


def test_mutated_configs_load_or_fail_closed(tmp_path):
    path = tmp_path / "config.json"
    base = {"data": {"AA": "aa.csv"}, "indicators": {}, "env": {}, "a2c": {}}
    loaded = 0
    for section, name, value in _config_cases():
        config = json.loads(json.dumps(base))
        (config if section is None else config[section])[name] = value
        cfg = _fails_closed(lambda p: RunConfig.load(p, {}), path, json.dumps(config).encode())
        if cfg is None:
            continue
        loaded += 1
        for part in [cfg, *(getattr(cfg, s) for s in SECTIONS)]:
            for f in dataclasses.fields(part):
                got = getattr(part, f.name)
                assert not (isinstance(got, float) and not math.isfinite(got)), (section, name, value)
    assert loaded > 0  # some wrong values are right for their field (-1 for a seed, None for a gate)


def _refused(build):
    try:
        build()
    except (ValueError, ConfigError):  # the class raises ValueError, decode_config a ConfigError
        return True
    return False


def test_config_classes_refuse_from_python_what_json_refuses():
    refused = 0
    for section, name, value in _config_cases():
        cls = RunConfig if section is None else SECTIONS[section]
        from_json = _refused(lambda: decode_config(cls, {name: value}, section))
        assert _refused(lambda: cls(**{name: value})) == from_json, (section, name, value)
        refused += from_json
    assert refused > 0


@pytest.mark.parametrize("cls, name, value", [
    *[(EnvConfig, name, value) for name in ("initial_capital", "reward_scale", "turbulence_gate")
      for value in NON_FINITE],
    *[(A2CConfig, name, value) for name in ("lr", "max_grad_norm", "value_coef", "entropy_coef", "rms_eps")
      for value in NON_FINITE],
    (A2CConfig, "n_steps", 2.5),
    (A2CConfig, "hidden_sizes", (64.5, 64)),
    *[(IndicatorConfig, "boll_k", value) for value in NON_FINITE],
    (IndicatorConfig, "rsi_period", float("inf")),
    (A2CConfig, "hidden_sizes", (0, 64)),
    (A2CConfig, "hidden_sizes", (-1, 64)),
    (EnvConfig, "hmax", 2**53 + 1),
    (EnvConfig, "hmax", 2**63),
    (RunConfig, "split", 5),
    (RunConfig, "seed", "1"),
    (RunConfig, "data", {"AA": 5}),
])
def test_config_class_refuses_a_value_json_refuses(cls, name, value):
    with pytest.raises(ValueError, match=name):
        cls(**{name: value})
