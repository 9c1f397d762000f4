"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of runs of
the same code), ``B`` the candidate.  One row per (workload, metric):
both medians, both quartile ranges, how much worse ``B`` is as a share of
``A``'s median, and a verdict against the metric's bound in
``BENCHMARK.json``:

``regressed``   ``B`` is worse than ``A`` by more than the bound
``improved``    ``B`` is better than ``A`` by more than the bound
``unresolved``  a side's own quartiles lie further apart than the bound,
                so "no change" cannot be told from a change of that size
``unchanged``   otherwise

Counts are held to more than their bound: with the same seed on both
sides ``txn_per_req`` has to repeat exactly, and any failed operation in
``B`` is a regression.  Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import estimate

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def verdict(a: dict, b: dict, *, bound: float, better: str) -> tuple[str, float]:
    """Verdict and ``worse`` (B's loss as a share of A's median; < 0 is a gain)."""
    worse = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed", worse
    if max(estimate.spread(a), estimate.spread(b)) > bound:
        return "unresolved", worse
    return ("improved" if worse < -bound else "unchanged"), worse


def compare(a_doc: dict, b_doc: dict) -> list[dict]:
    rows = []
    same_seed = a_doc["seed"] == b_doc["seed"]
    for workload, a_entry in a_doc["workloads"].items():
        b_entry = b_doc["workloads"][workload]
        for metric in CONTRACT["end_to_end"]:
            name = metric["name"]
            if name not in a_entry["metrics"] or name not in b_entry["metrics"]:
                continue  # not applicable to this workload
            a, b = a_entry["metrics"][name], b_entry["metrics"][name]
            what, worse = verdict(a, b, bound=metric["bound"], better=metric["better"])
            if name == "txn_per_req" and same_seed and a["median"] != b["median"]:
                what = "regressed"  # a count: exact for a seed
            rows.append(
                {"workload": workload, "metric": name, "unit": metric["unit"],
                 "a": a, "b": b, "worse": worse, "bound": metric["bound"], "verdict": what}
            )
        if b_entry["failed"]:
            rows.append(
                {"workload": workload, "metric": "failed", "unit": "ops",
                 "a": _count(a_entry["failed"]), "b": _count(b_entry["failed"]),
                 "worse": float(b_entry["failed"]), "bound": 0.0, "verdict": "regressed"}
            )
    return rows


def _count(value: int) -> dict:
    return {"median": value, "q1": value, "q3": value, "n": 1}


def render(rows: list[dict]) -> str:
    lines = [
        f"{'workload':16s} {'metric':18s} {'A median [q1..q3]':>34s} "
        f"{'B median [q1..q3]':>34s} {'worse':>8s} {'bound':>6s}  verdict"
    ]
    for r in rows:
        sides = [
            f"{s['median']:.4g} [{s['q1']:.4g}..{s['q3']:.4g}] {r['unit']}"
            for s in (r["a"], r["b"])
        ]
        lines.append(
            f"{r['workload']:16s} {r['metric']:18s} {sides[0]:>34s} {sides[1]:>34s} "
            f"{r['worse']:+8.3f} {r['bound']:6.3f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a_doc, b_doc)
    print(render(rows))
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    print(f"{len(rows)} rows, {len(regressed)} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
