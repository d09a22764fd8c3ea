"""Noise-aware verdict between two records written by ``run.py --out``.

    python benchmarks/e2e/compare.py BASE.json CHANGE.json

For every workload and end-to-end metric it prints each side's median
and quartiles, the share of (base run, change run) pairs the change wins
(ties count for neither), and one verdict:

- *unresolved*: the run-to-run spread of either side — the distance
  between its quartiles over its median — exceeds the metric's bound, and
  not every change run beats every base run; or the change would count
  as improved but either side has fewer than :data:`MIN_RUNS` runs;
- *improved*: each side has at least :data:`MIN_RUNS` runs, the change
  wins at least nine tenths of the pairs and the medians differ by more
  than the base's quartile distance (or, under wide spread, every change
  run beats every base run);
- *worse beyond bound*: the change's median is worse than the base's by
  more than the bound ``BENCHMARK.json`` fixes;
- *unchanged*: everything else.

Records whose identity fields (host, interpreter, seed, run length) or
fed traces differ are refused: their numbers do not measure the same
thing.  Exit status: 0 when nothing is worse beyond its bound, 1 when
something is, 2 when the records are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from measure import quartiles

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"

#: Share of run pairs the change must win before a gain counts.
WIN_SHARE = 0.9
#: Runs each side needs before a gain counts: with fewer, two records of
#: the same code often win every pair by chance.
MIN_RUNS = 10


def incomparable(base: dict, change: dict) -> list[str]:
    """Why the two records may not be compared (empty: they may)."""
    reasons = [
        f"identity field {key!r}: {base['identity'].get(key)!r} vs "
        f"{change['identity'].get(key)!r}"
        for key in sorted(set(base["identity"]) | set(change["identity"]))
        if base["identity"].get(key) != change["identity"].get(key)
    ]
    for name in sorted(set(base["workloads"]) & set(change["workloads"])):
        if (
            base["workloads"][name]["trace_sha256"]
            != change["workloads"][name]["trace_sha256"]
        ):
            reasons.append(f"{name}: the two sides were fed different traces")
    return reasons


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare one metric's runs; see the module docstring for the rules."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_median, b_q3 = quartiles(base)
    c_q1, c_median, c_q3 = quartiles(change)
    pairs = len(base) * len(change)
    wins = sum(1 for a in base for c in change if sign * (c - a) > 0)
    every = all(sign * (c - a) > 0 for a in base for c in change)
    spread = max((b_q3 - b_q1) / abs(b_median), (c_q3 - c_q1) / abs(c_median))
    worsening = sign * (b_median - c_median) / abs(b_median)
    if spread > bound:
        outcome = "improved" if every else "unresolved"
    elif worsening > bound:
        outcome = "worse beyond bound"
    elif wins >= WIN_SHARE * pairs and abs(c_median - b_median) > b_q3 - b_q1:
        outcome = "improved"
    else:
        outcome = "unchanged"
    if outcome == "improved" and min(len(base), len(change)) < MIN_RUNS:
        outcome = "unresolved"
    return {
        "base": (b_q1, b_median, b_q3),
        "change": (c_q1, c_median, c_q3),
        "won": wins / pairs,
        "spread": spread,
        "verdict": outcome,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    change = json.loads(args.change.read_text(encoding="utf-8"))
    reasons = incomparable(base, change)
    if reasons:
        print("refusing to compare:")
        for reason in reasons:
            print(f"  {reason}")
        return 2
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    worse = 0
    for name in base["workloads"]:
        if name not in change["workloads"]:
            print(f"{name}: missing from {args.change}")
            continue
        print(f"== {name}")
        for metric in metrics:
            key = metric["name"]
            result = verdict(
                base["workloads"][name]["end_to_end"][key]["values"],
                change["workloads"][name]["end_to_end"][key]["values"],
                metric["better"],
                metric["bound"],
            )
            worse += result["verdict"] == "worse beyond bound"
            b_q1, b_median, b_q3 = result["base"]
            c_q1, c_median, c_q3 = result["change"]
            print(
                f"  {key:<16} base {b_median:.4f} [{b_q1:.4f}, {b_q3:.4f}]  "
                f"change {c_median:.4f} [{c_q1:.4f}, {c_q3:.4f}] {metric['unit']}  "
                f"won {result['won']:.0%}  spread {result['spread']:.1%} "
                f"(bound {metric['bound']:.0%})  -> {result['verdict']}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
