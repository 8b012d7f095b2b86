"""Result checks on program outputs: digests and funnel invariants.

Checks read the values a run produced (tier counts, predictions, matrix
cells), never artifact bytes, so a change to a report's layout does not
trip them. Floats enter a digest rounded to ten significant digits.
"""

from __future__ import annotations

import hashlib
import json
import math

TIER_NAMES = ["vocabulary", "scaffold", "rank", "properties", "cas"]


def _normalise(value):
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return float(f"{value:.10g}")
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _normalise(v) for k, v in sorted(value.items())}
    return value


def digest(value) -> str:
    """Short SHA-256 of a JSON-like value with floats rounded."""
    text = json.dumps(_normalise(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def screen_outcome(report: dict) -> dict:
    """The parts of a screening report the check covers."""
    return {
        "pool_size": report["pool_size"],
        "parse_failures": report["parse_failures"],
        "merged_duplicates": report["merged_duplicates"],
        "tiers": [
            [t["name"], t["input"], t["survivors"], dict(t["drops"])]
            for t in report["tiers"]
        ],
        "final": [
            [r["canonical_smiles"], r["predicted_pce"], r["cas"]]
            for r in report["final"]
        ],
    }


def funnel_problems(outcome: dict, rows: int, planted: dict, top_fraction: float) -> list[str]:
    """Violations of the funnel's nesting and accounting rules.

    ``rows`` is the number of pool rows written; ``planted`` maps a drop
    reason to the number of planted rows that must at least carry it
    (``parse_failures`` and ``merged_duplicates`` for the load step)."""
    problems = []
    tiers = outcome["tiers"]
    pool_size = outcome["pool_size"]
    if [t[0] for t in tiers] != TIER_NAMES:
        problems.append(f"tier order {[t[0] for t in tiers]}")
        return problems
    if pool_size + outcome["parse_failures"] + outcome["merged_duplicates"] != rows:
        problems.append("pool rows are not all accounted for at load")
    expected_input = pool_size
    for name, given, survivors, drops in tiers:
        if given != expected_input:
            problems.append(f"tier {name} input {given} != previous survivors {expected_input}")
        if given != survivors + sum(drops.values()):
            problems.append(f"tier {name} loses records")
        expected_input = survivors
    if len(outcome["final"]) != expected_input:
        problems.append("final list differs from the last tier's survivors")
    total_drops = sum(sum(t[3].values()) for t in tiers)
    if total_drops + len(outcome["final"]) != pool_size:
        problems.append("drops and survivors do not add up to the pool")
    rank = tiers[2]
    if rank[2] != (math.ceil(rank[1] * top_fraction) if rank[1] else 0):
        problems.append("rank tier kept the wrong count")
    reasons = {k: v for t in tiers for k, v in t[3].items()}
    reasons["parse_failures"] = outcome["parse_failures"]
    reasons["merged_duplicates"] = outcome["merged_duplicates"]
    for reason, count in planted.items():
        if reasons.get(reason, 0) < count:
            problems.append(f"planted {reason} rows missing ({reasons.get(reason, 0)} < {count})")
    return problems
