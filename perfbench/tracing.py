"""Spans around tradelab's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced name where its caller looks it up
(``tradelab.cli.build_features``, ``tradelab.indicators.dx``,
``tradelab.agents.a2c.mlp_forward``, ``TradingEnv.step``, ...) with a wrapper
that records one span per call: name, start, end, parent span and run id.
Spans and counters stay in flat in-memory arrays until ``dump()``; nothing
is written while the program runs. ``Summary`` turns spans into the
per-layer metrics, including self time (a span's duration minus the part its
child spans cover) for every layer.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "marketdata", "indicators", "env", "agents", "analytics", "svgchart")
COMMANDS = ("ingest", "features", "simulate", "train", "analyze", "report")
INDICATORS = ("macd", "bollinger", "rsi", "cci", "dx", "sma", "turbulence")
POLICY_CLASSES = (
    ("tradelab.agents.policies", "HoldPolicy"),
    ("tradelab.agents.policies", "RandomPolicy"),
    ("tradelab.agents.policies", "BuyAndHoldPolicy"),
    ("tradelab.agents.policies", "MomentumPolicy"),
    ("tradelab.agents.a2c", "MlpPolicy"),
)

# (module path, attribute, span name): every place a traced function is looked
# up, by the CLI or by the benchmark's in-process workloads.
_MARKETDATA = ("load_bars", "load_series", "align_panel", "save_panel", "load_panel", "write_panel_csv")
_ENV = ("run_episode", "save_episode_log", "load_episode_log")
_CHECKPOINTS = ("a2c_train", "save_checkpoint", "load_checkpoint")
_ANALYTICS = ("behavior_profile", "compare_profiles", "save_report", "load_report", "write_comparison_csv")
_CHARTS = ("render_line_chart", "render_bar_chart")
TARGETS = (
    [("tradelab.cli", "main", "cli.main")]
    + [("tradelab.cli", f"cmd_{c}", f"cli.{c}") for c in COMMANDS]
    + [("tradelab.cli", f, f"marketdata.{f}") for f in _MARKETDATA]
    + [("tradelab.cli", f, f"indicators.{f}") for f in ("build_features", "write_features_csv")]
    + [("tradelab.cli", f, f"env.{f}") for f in _ENV]
    + [("tradelab.cli", f, f"agents.{f}") for f in _CHECKPOINTS]
    + [("tradelab.cli", f, f"analytics.{f}") for f in _ANALYTICS]
    + [("tradelab.cli", f, f"svgchart.{f}") for f in _CHARTS]
    + [("tradelab.marketdata", f, f"marketdata.{f}") for f in _MARKETDATA]
    + [("tradelab.indicators", f, f"indicators.{f}") for f in ("build_features", "write_features_csv", *INDICATORS)]
    + [("tradelab.env", f, f"env.{f}") for f in _ENV]
    + [("tradelab.env.TradingEnv", "step", "env.step"), ("tradelab.env.TradingEnv", "reset", "env.reset")]
    + [("tradelab.agents.a2c", f, f"agents.{f}") for f in (*_CHECKPOINTS, "a2c_update", "mlp_forward", "mlp_backward")]
    + [(f"{mod}.{cls}", "act", "agents.policy_act") for mod, cls in POLICY_CLASSES]
    + [("tradelab.analytics", f, f"analytics.{f}") for f in _ANALYTICS]
    + [("tradelab.svgchart", f, f"svgchart.{f}") for f in _CHARTS]
)


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.overhead = array("d")  # bookkeeping of child wrappers inside each span
        self.root_overhead = 0.0
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []
        self.missing: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, span: str, probe=None):
        """Return ``fn`` wrapped to record one span per call.

        ``probe(args)`` runs before the call and may return ``done(result)``,
        which runs after it; both sit outside the span, in the parent's
        bookkeeping time.
        """
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            entered = perf()
            done = probe(args) if probe is not None else None
            parent = stack[-1]
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.overhead.append(0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            began = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = perf()
                stack.pop()
                self.start[idx] = began
                self.end[idx] = ended
            if done is not None:
                done(result)
            spent = (began - entered) + (perf() - ended)
            if parent >= 0:
                self.overhead[parent] += spent
            else:
                self.root_overhead += spent
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        probes = {
            "env.step": self._step_probe,
            "marketdata.load_bars": self._rows_probe,
            "marketdata.load_series": self._rows_probe,
        }
        for owner_path, attr, span in TARGETS:
            try:
                owner = _resolve(owner_path)
            except (ImportError, AttributeError):
                owner = None
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:  # renamed or removed since: report it, trace the rest
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self.wrap(original, span, probes.get(span)))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rows_probe(self, args):
        def done(series):
            self.counts["marketdata.rows_parsed"] += len(series)
        return done

    def _step_probe(self, args):
        """Count steps whose buys were cut short by cash: some ticker asked to
        buy ``rint(clip(a) * hmax)`` shares and received fewer."""
        env, action = args[0], args[1]
        before = env.state.shares

        def done(outcome):
            desired = np.rint(np.clip(np.asarray(action, dtype=np.float64), -1.0, 1.0) * env.cfg.hmax)
            buys = desired > 0
            bought = env.state.shares - before
            self.counts["env.cash_clipped_steps"] += int(bool(np.any(bought[buys] < desired[buys])))
        return done

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "overhead": np.frombuffer(self.overhead, dtype=np.float64).copy(),
            "root_overhead": self.root_overhead,
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }

    def dump(self, path: Path, extra: dict | None = None) -> None:
        data = self.arrays()
        doc = {k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in data.items()}
        doc.update(extra or {})
        Path(path).write_text(json.dumps(doc))


def load_dump(path: Path) -> dict:
    doc = json.loads(Path(path).read_text())
    for key, dtype in (("name", np.int32), ("parent", np.int32), ("run", np.int32),
                       ("start", np.float64), ("end", np.float64), ("overhead", np.float64)):
        doc[key] = np.asarray(doc[key], dtype=dtype)
    return doc


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_names() -> list:
    """Every per-layer metric name with its unit and better direction."""
    rows = [("indicators.build_features_s", "s"), ("indicators.build_features_calls", "count")]
    rows += [(f"indicators.{f}_s", "s") for f in INDICATORS]
    rows += [("indicators.write_features_csv_s", "s")]
    rows += [(f"marketdata.{f}_s", "s") for f in _MARKETDATA]
    rows += [("marketdata.load_panel_calls", "count"), ("marketdata.rows_parsed", "count")]
    rows += [("env.step_us", "us"), ("env.step_us_p99", "us"), ("env.step_calls", "count"),
             ("env.reset_calls", "count"), ("env.cash_clipped_step_ratio", "ratio")]
    rows += [(f"env.{f}_s", "s") for f in _ENV]
    for f, unit in (("mlp_forward", "us"), ("mlp_backward", "us"), ("a2c_update", "ms"), ("policy_act", "us")):
        rows += [(f"agents.{f}_{unit}", unit), (f"agents.{f}_{unit}_p99", unit), (f"agents.{f}_calls", "count")]
    rows += [("agents.a2c_train_self_s", "s"), ("agents.save_checkpoint_s", "s"), ("agents.load_checkpoint_s", "s")]
    rows += [(f"analytics.{f}_s", "s") for f in _ANALYTICS]
    rows += [(f"svgchart.{f}_s", "s") for f in _CHARTS]
    rows += [(f"cli.{c}_self_s", "s") for c in COMMANDS] + [("cli.process_start_s", "s")]
    rows += [(f"{layer}.self_s", "s") for layer in LAYERS]
    rows += [("trace.wall_s", "s"), ("trace.untraced_s", "s"), ("trace.bookkeeping_s", "s"),
             ("trace.spans", "count"), ("trace.overhead_op_s", "s"), ("trace.overhead_env_steps_per_s", "1/s")]
    return rows


def self_times(doc: dict) -> np.ndarray:
    """Per-span self time: duration minus child durations minus the child
    wrappers' bookkeeping that ran inside the span."""
    dur = doc["end"] - doc["start"]
    child = np.zeros_like(dur)
    has_parent = doc["parent"] >= 0
    np.add.at(child, doc["parent"][has_parent], dur[has_parent])
    return dur - child - doc["overhead"]


class Summary:
    """Accumulates traced processes (or in-process phases) into per-layer metrics."""

    def __init__(self):
        self.total = Counter()  # span name -> inclusive seconds
        self.own = Counter()  # span name -> self seconds
        self.calls = Counter()
        self.self_s = Counter()  # layer -> seconds
        self.durations: dict = {}  # span name -> list of arrays (per-call seconds)
        self.counts = Counter()
        self.command_self = Counter()
        self.wall = 0.0
        self.covered = 0.0
        self.bookkeeping = 0.0
        self.root_bookkeeping = 0.0
        self.process_start = 0.0
        self.spans = 0
        self.missing: set = set()  # traced names the program no longer has

    def add(self, doc: dict, wall: float, command: str | None = None, process_start: float = 0.0) -> None:
        names = doc["names"]
        dur = doc["end"] - doc["start"]
        own = self_times(doc)
        for i, span in enumerate(names):
            sel = doc["name"] == i
            if not sel.any():
                continue
            self.total[span] += float(dur[sel].sum())
            self.calls[span] += int(sel.sum())
            self.own[span] += float(own[sel].sum())
            self.durations.setdefault(span, []).append(dur[sel])
            layer = span.split(".", 1)[0]
            self.self_s[layer] += float(own[sel].sum())
            if layer == "cli" and command is not None:
                self.command_self[command] += float(own[sel].sum())
        self.counts.update(doc["counts"])
        self.missing.update(doc["missing"])
        roots = doc["parent"] < 0
        self.covered += float(dur[roots].sum())
        self.bookkeeping += float(doc["overhead"].sum()) + float(doc["root_overhead"])
        self.root_bookkeeping += float(doc["root_overhead"])
        self.wall += wall
        self.process_start += process_start
        self.spans += int(dur.size)

    def _per_call(self, span: str, scale: float, q: float) -> float:
        parts = self.durations.get(span)
        if not parts:
            return 0.0
        return float(np.percentile(np.concatenate(parts), q)) * scale

    def metrics(self, overhead_op_s: float, overhead_steps: float) -> dict:
        out = {
            "indicators.build_features_s": self.total["indicators.build_features"],
            "indicators.build_features_calls": self.calls["indicators.build_features"],
        }
        for f in INDICATORS + ("write_features_csv",):
            out[f"indicators.{f}_s"] = self.total[f"indicators.{f}"]
        for f in _MARKETDATA:
            out[f"marketdata.{f}_s"] = self.total[f"marketdata.{f}"]
        out["marketdata.load_panel_calls"] = self.calls["marketdata.load_panel"]
        out["marketdata.rows_parsed"] = self.counts["marketdata.rows_parsed"]
        steps = self.calls["env.step"]
        out["env.step_us"] = self._per_call("env.step", 1e6, 50)
        out["env.step_us_p99"] = self._per_call("env.step", 1e6, 99)
        out["env.step_calls"] = steps
        out["env.reset_calls"] = self.calls["env.reset"]
        out["env.cash_clipped_step_ratio"] = self.counts["env.cash_clipped_steps"] / steps if steps else 0.0
        for f in _ENV:
            out[f"env.{f}_s"] = self.total[f"env.{f}"]
        for f, unit, scale in (("mlp_forward", "us", 1e6), ("mlp_backward", "us", 1e6),
                               ("a2c_update", "ms", 1e3), ("policy_act", "us", 1e6)):
            out[f"agents.{f}_{unit}"] = self._per_call(f"agents.{f}", scale, 50)
            out[f"agents.{f}_{unit}_p99"] = self._per_call(f"agents.{f}", scale, 99)
            out[f"agents.{f}_calls"] = self.calls[f"agents.{f}"]
        out["agents.a2c_train_self_s"] = self.own["agents.a2c_train"]
        out["agents.save_checkpoint_s"] = self.total["agents.save_checkpoint"]
        out["agents.load_checkpoint_s"] = self.total["agents.load_checkpoint"]
        for f in _ANALYTICS:
            out[f"analytics.{f}_s"] = self.total[f"analytics.{f}"]
        for f in _CHARTS:
            out[f"svgchart.{f}_s"] = self.total[f"svgchart.{f}"]
        for c in COMMANDS:
            out[f"cli.{c}_self_s"] = self.command_self[c]
        out["cli.process_start_s"] = self.process_start
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["trace.wall_s"] = self.wall
        # nested bookkeeping lies inside the root spans; only the roots' own is outside
        out["trace.untraced_s"] = self.wall - self.covered - self.root_bookkeeping - self.process_start
        out["trace.bookkeeping_s"] = self.bookkeeping
        out["trace.spans"] = self.spans
        out["trace.overhead_op_s"] = overhead_op_s
        out["trace.overhead_env_steps_per_s"] = overhead_steps
        return {k: float(v) if isinstance(v, float) else int(v) for k, v in out.items()}
