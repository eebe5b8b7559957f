#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values, the ratio B/A (A is
the base), the metric's own bound and a verdict --

* ``worse``   B is worse than A by more than the bound;
* ``better``  B is better than A by more than the bound;
* ``same``    the two agree within the bound;
* ``unresolved``  the run-to-run resolution of either file is wider than
  the bound, so the difference cannot be told from noise.

Exits non-zero on any ``worse``.  Failed iterations and ``sim_digest`` get
rows of their own; a digest can only be ``identical`` for equal seeds.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
sys.path.insert(0, str(ROOT))

from bench import END_TO_END  # noqa: E402


def resolution(detail: Optional[Mapping[str, Any]]) -> float:
    """How finely one file resolves a metric, as a share of its value.

    The gated value aggregates ``k`` iterations, so the quartile spread of
    the individual iterations shrinks by ``sqrt(k)``.  Metrics sampled once
    per run (set-up time, peak memory) carry no detail and read 0.
    """
    if not detail or not detail.get("k"):
        return 0.0
    return float(detail["quartile_spread"]) / math.sqrt(detail["k"])


def verdict(a: float, b: float, better: str, bound: float, spread: float = 0.0) -> str:
    """Judge ``b`` against the base ``a`` under ``bound`` (a share of ``a``)."""
    if spread > bound:
        return "unresolved"
    if a == 0:
        return "same" if b == 0 else "unresolved"
    worsening = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(a: Mapping[str, Any], b: Mapping[str, Any]) -> List[Tuple[str, ...]]:
    """Rows of (workload, metric, A, B, B/A, bound, verdict)."""
    rows: List[Tuple[str, ...]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            rows.append((workload, "-", "-", "-", "-", "-", "missing in B"))
            continue
        for name, unit, better, bound in END_TO_END:
            value_a = entry_a["end_to_end"][name]["value"]
            value_b = entry_b["end_to_end"][name]["value"]
            spread = max(
                resolution(entry_a.get("end_to_end_detail", {}).get(name)),
                resolution(entry_b.get("end_to_end_detail", {}).get(name)),
            )
            ratio = f"{value_b / value_a:.4f}" if value_a else "-"
            rows.append((
                workload, name, f"{value_a:.6g} {unit}", f"{value_b:.6g} {unit}",
                ratio, f"{bound:g}", verdict(value_a, value_b, better, bound, spread),
            ))
        failed_a, failed_b = entry_a["end_to_end_failed"], entry_b["end_to_end_failed"]
        rows.append((
            workload, "failed", f"{failed_a}/{entry_a['end_to_end_attempted']}",
            f"{failed_b}/{entry_b['end_to_end_attempted']}", "-", "0",
            "worse" if failed_b > failed_a else "same",
        ))
        if a.get("seed") == b.get("seed"):
            same = entry_a["sim_digest"] == entry_b["sim_digest"]
            rows.append((
                workload, "sim_digest", entry_a["sim_digest"][:12], entry_b["sim_digest"][:12],
                "-", "0", "identical" if same else "differs",
            ))
    return rows


def format_rows(rows: List[Tuple[str, ...]]) -> str:
    header = ("workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
    table = [header] + rows
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="result file judged against the base")
    args = parser.parse_args(argv)
    documents: List[Dict[str, Any]] = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    rows = compare(*documents)
    print(format_rows(rows))
    return 1 if any(row[-1] in ("worse", "missing in B") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
