"""The one write path: every artifact goes through ``binfile.write_file``,
which renames a finished part file onto the artifact's name, so a failed
write leaves the earlier file byte for byte and no part file beside it."""

import ast
import dataclasses
import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

import tradelab
from conftest import make_features, make_panel
from tradelab.agents.a2c import MlpPolicy, ObsNormalizer, save_checkpoint
from tradelab.agents.mlp import init_mlp
from tradelab.agents.policies import make_baseline
from tradelab.analytics import behavior_profile, save_report
from tradelab.binfile import write_file, write_frame
from tradelab.cli import RunConfig, cmd_report
from tradelab.env import EnvConfig, MalformedLog, Window, load_episode_log, run_episode, save_episode_log
from tradelab.indicators import write_features_csv
from tradelab.marketdata import _block_rows, save_panel, write_csv_columns

EARLIER = b"earlier\r\n\x00 bytes"
YEAR_1, YEAR_10000 = -62_135_596_800, 253_402_300_800  # 0001-01-01 and 10000-01-01, 00:00:00Z


def test_write_file_writes_text_and_bytes_with_a_plain_open_mode(tmp_path):
    """``str`` chunks are UTF-8 whatever the locale, bytes-like chunks go as
    they are, a missing directory is made, and the file's mode is the one a
    plain ``open`` gives, not ``mkstemp``'s 0600."""
    path = tmp_path / "a" / "b" / "x.txt"
    write_file(path, ["é,", b"\x00", np.arange(2, dtype="<i2"), memoryview(b"z")])
    assert path.read_bytes() == "é,".encode() + b"\x00" + b"\x00\x00\x01\x00" + b"z"
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    assert [entry.name for entry in path.parent.iterdir()] == ["x.txt"]


def _log():
    fp = make_features(("AA", "BB"), 60)
    policy = make_baseline("random")
    policy.label = "mine"
    return run_episode(policy, EnvConfig(), fp, Window(fp.warmup, fp.n_timestamps), seed=1)


def _save_checkpoint(path):
    normalizer = ObsNormalizer(21)
    normalizer.freeze()
    save_checkpoint(MlpPolicy(init_mlp((21, 4, 4, 2), np.random.default_rng(0)), normalizer, label="a2c"), path)


def _render_charts(path):
    save_report(behavior_profile(_log()), path.parent)
    cmd_report(RunConfig(), str(path.parent))


# each writer, by the name of the artifact it writes at ``path``
WRITERS = {
    "panel.bin": lambda path: save_panel(make_panel(("AA", "BB"), 40), path),
    "a2c.ckpt": _save_checkpoint,
    "x.csv": lambda path: write_csv_columns(path, ["k", "v"], [np.arange(9), np.linspace(0.0, 1.0, 9)]),
    "log_mine.csv.json": lambda path: save_episode_log(_log(), path.with_suffix("")),
    "report.json": lambda path: save_report(behavior_profile(_log()), path.parent),
    "holdings.svg": _render_charts,
}


def _refuse_rename(monkeypatch, path):
    """Make ``os.replace`` onto ``path``, and only onto it, fail."""
    replace = os.replace

    def refuse(src, dst):
        if Path(dst) == path:
            raise OSError(f"no room for {dst}")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", refuse)


@pytest.mark.parametrize("name", list(WRITERS))
def test_a_rename_that_fails_leaves_the_earlier_file(tmp_path, monkeypatch, name):
    """The last step of every write is the rename; when it fails (here it is
    refused for this one artifact), the file under the artifact's name is
    still the earlier one, byte for byte, and the part file is gone."""
    path = tmp_path / "out" / name
    path.parent.mkdir()
    path.write_bytes(EARLIER)
    _refuse_rename(monkeypatch, path)
    with pytest.raises(OSError, match="no room"):
        WRITERS[name](path)
    assert path.read_bytes() == EARLIER
    assert not [entry.name for entry in path.parent.iterdir() if entry.name.endswith(".part")]


def test_a_csv_cell_that_fails_past_two_blocks_leaves_the_earlier_file(tmp_path):
    """A cell of an object column that is not text fails the join after two
    blocks of rows have gone to the part file; the earlier file stays."""
    rows = 3 * _block_rows(2)
    labels = np.array([str(k) for k in range(rows)], dtype=object)
    labels[2 * _block_rows(2) + 1] = 7
    path = tmp_path / "x.csv"
    path.write_bytes(EARLIER)
    with pytest.raises(TypeError):
        write_csv_columns(path, ["k", "label"], [np.arange(rows), labels])
    assert path.read_bytes() == EARLIER
    assert [entry.name for entry in tmp_path.iterdir()] == ["x.csv"]


def test_a_frame_array_that_fails_leaves_the_earlier_file(tmp_path):
    """An array that cannot be written fails after the header and the first
    array have gone to the part file; the earlier file stays."""
    path = tmp_path / "panel.bin"
    path.write_bytes(EARLIER)
    with pytest.raises(AttributeError):
        write_frame(path, "tradelab-panel-v1", {}, [np.arange(4), "not an array"])
    assert path.read_bytes() == EARLIER
    assert [entry.name for entry in tmp_path.iterdir()] == ["panel.bin"]


def test_a_sidecar_json_cannot_hold_writes_neither_file(tmp_path, monkeypatch):
    """The sidecar is encoded before the CSV is written: a log whose meta holds
    a numpy float, or a feature panel whose sidecar JSON refuses, raises and
    leaves no CSV, which would load without its sidecar's label."""
    log = _log()
    with pytest.raises(TypeError, match="float32"):
        save_episode_log(dataclasses.replace(log, meta={"seed": np.float32(1.5)}), tmp_path / "log_mine.csv")
    dumps = json.dumps

    def refuse(doc, **kwargs):
        if isinstance(doc, dict) and "feature_names" in doc:
            raise TypeError("not JSON")
        return dumps(doc, **kwargs)

    monkeypatch.setattr(json, "dumps", refuse)
    with pytest.raises(TypeError, match="not JSON"):
        write_features_csv(make_features(("AA", "BB"), 60), tmp_path / "features.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("refused, left", [("log_mine.csv", ["log_mine.csv.json"]), ("log_mine.csv.json", [])],
                         ids=["csv", "sidecar"])
def test_a_first_save_whose_rename_fails_leaves_no_log_to_load(tmp_path, monkeypatch, refused, left):
    """The sidecar is renamed into place before the CSV: when either rename is
    refused on a first save, no CSV is left to load under its file stem's
    label (``log_mine``) in place of the sidecar's."""
    path = tmp_path / "log_mine.csv"
    _refuse_rename(monkeypatch, tmp_path / refused)
    with pytest.raises(OSError, match="no room"):
        save_episode_log(_log(), path)
    monkeypatch.undo()
    assert [entry.name for entry in tmp_path.iterdir()] == left
    with pytest.raises(OSError):
        load_episode_log(path)


def _files(directory):
    return {entry.name: entry.read_bytes() for entry in directory.iterdir()}


# a stamp that cannot be written, and the index of the stamp it replaces
UNWRITABLE = {"year-10000-last": (YEAR_10000, -1), "year-0-first": (YEAR_1 - 1, 0)}


@pytest.mark.parametrize("stamp, index", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_a_log_stamp_that_cannot_be_written_is_refused_before_the_save(tmp_path, stamp, index):
    """A log refuses a stamp outside UTC years 1-9999 where it checks its
    stamps, naming the column and the saved row, so a save over an earlier
    log never starts: the earlier pair stays and loads under its own label."""
    log, path = _log(), tmp_path / "log_x.csv"
    save_episode_log(log, path)
    earlier = _files(tmp_path)
    stamps = log.timestamps.copy()
    stamps[index] = stamp
    with pytest.raises(MalformedLog, match="outside UTC years 1-9999") as caught:
        save_episode_log(dataclasses.replace(log, timestamps=stamps, agent_label="second"), path)
    assert (caught.value.column, caught.value.row) == ("timestamp", range(2, log.n_timestamps + 2)[index])
    assert _files(tmp_path) == earlier
    assert load_episode_log(path).agent_label == "mine"


@pytest.mark.parametrize("stamp, index", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_a_report_stamp_that_cannot_be_written_is_refused_before_the_save(tmp_path, stamp, index):
    """A report refuses a stamp outside UTC years 1-9999 where it checks its
    stamps, naming the field, so a save over an earlier report never starts:
    report.json and its three CSVs stay the earlier ones."""
    report = behavior_profile(_log())
    save_report(report, tmp_path)
    earlier = _files(tmp_path)
    stamps = report.timestamps.copy()
    stamps[index] = stamp
    with pytest.raises(ValueError, match="report field timestamps must lie in UTC years 1-9999"):
        save_report(dataclasses.replace(report, timestamps=stamps), tmp_path)
    assert _files(tmp_path) == earlier


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` opens a file for writing: ``open`` or ``Path.open``
    with a mode other than reading (a mode that is not a constant counts),
    ``os.open``, ``write_text``, ``write_bytes`` or one of numpy's savers."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes", "tofile", "save", "savez", "savetxt", "fdopen", "mkstemp"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    return any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+") for mode in modes)


def _write_sites(node, where):
    """The innermost function or class around each writing call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _writes(child):
            yield where
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else where
        yield from _write_sites(child, inner)


def test_write_file_is_the_one_place_that_writes_a_file():
    """Every artifact is renamed into place whole because nothing else in the
    package opens a file for writing."""
    package = Path(tradelab.__file__).parent
    sites = {(path.relative_to(package).as_posix(), where)
             for path in package.rglob("*.py")
             for where in _write_sites(ast.parse(path.read_text(encoding="utf-8")), "<module>")}
    assert sites == {("binfile.py", "write_file")}
