"""Output checks: episode-log accounting invariants and artifact digests.

Golden digests live in ``golden/<workload>.json`` next to this file, keyed by
scale and seed. Each scale stores the sorted artifact paths once and, per
seed, one space-separated string of the first 16 hex digits of each
artifact's sha256, in path order.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).with_name("golden")
DIGEST_CHARS = 16


def log_problems(log, hmax: int, where: str) -> list:
    """Accounting invariants of one episode log: cash >= 0, shares >= 0,
    at most ``hmax`` shares traded per ticker per step, and rewards that
    telescope to V_T - V_0."""
    problems = []
    if not (np.isfinite(log.cash).all() and np.isfinite(log.portfolio_value).all() and np.isfinite(log.rewards).all()):
        problems.append(f"{where}: non-finite cash, value or reward")
    if (log.cash < 0).any():
        problems.append(f"{where}: negative cash at step {int(np.argmax(log.cash < 0))}")
    if (log.holdings < 0).any():
        problems.append(f"{where}: negative shares")
    traded = np.abs(np.diff(log.holdings, axis=0))
    if traded.size and traded.max() > hmax:
        problems.append(f"{where}: {int(traded.max())} shares traded in one step, hmax {hmax}")
    change = float(log.portfolio_value[-1] - log.portfolio_value[0])
    total = math.fsum(log.rewards.tolist())
    if abs(total - change) > 1e-9 * max(1.0, abs(float(log.portfolio_value[0]))):
        problems.append(f"{where}: rewards sum to {total!r}, value changed by {change!r}")
    return problems


def cash_clipped_steps(log, hmax: int) -> int:
    """Steps where some ticker asked to buy rint(a * hmax) shares and got fewer."""
    desired = np.rint(log.actions[:-1] * hmax)
    bought = np.diff(log.holdings, axis=0)
    return int(np.any((desired > 0) & (bought < desired), axis=1).sum())


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_CHARS]


def digest_tree(root: Path) -> dict:
    """Relative path -> digest for every file under ``root``."""
    return {
        path.relative_to(root).as_posix(): sha256_hex(path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def golden_entry(workload: str, scale: str, seed: int):
    """The recorded {path: digest} map for this workload, scale and seed, or None."""
    entry = load_golden(workload).get(scale)
    if entry is None or str(seed) not in entry["seeds"]:
        return None
    return dict(zip(entry["files"], entry["seeds"][str(seed)].split()))


def compare_digests(actual: dict, expected: dict) -> list:
    """One problem per artifact that is missing, extra or different."""
    problems = []
    for path in sorted(set(expected) | set(actual)):
        if path not in actual:
            problems.append(f"artifact {path} missing")
        elif path not in expected:
            problems.append(f"artifact {path} not in the golden set")
        elif actual[path] != expected[path]:
            problems.append(f"artifact {path} digest {actual[path]} != golden {expected[path]}")
    return problems


def record_golden(workload: str, scale: str, seed: int, digests: dict) -> None:
    """Store this run's digests as the golden ones for (workload, scale, seed)."""
    golden = load_golden(workload)
    entry = golden.setdefault(scale, {"files": sorted(digests), "seeds": {}})
    if entry["files"] != sorted(digests):
        raise ValueError(f"{workload}/{scale}: artifact set differs from the recorded one")
    entry["seeds"][str(seed)] = " ".join(digests[path] for path in entry["files"])
    entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda item: int(item[0])))
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{workload}.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
