"""The RnB benchmark: live loopback fleet + simulator, end to end and by layer.

Two ways to run it, from the root of a checkout:

``python3 bench/run.py --workload W --seed N --seconds T --trace 0|1``
    One visit of one workload in this process: set-up (three times, the
    median is reported), one second of warm-up, then ``T`` seconds
    measured in one-second segments (simulator: one repetition a
    segment).  ``--trace 0`` reports the end-to-end metrics, ``--trace
    1`` the per-layer metrics of a traced fleet.  The last line of
    standard output is the result as one JSON object.  This is the
    command ``BENCHMARK.json`` names.  Times are in reference seconds
    (see ``reference.py``); the wall-clock rate is printed beside them.

``python3 bench/run.py [--seed N] [--rounds 3] [--seconds 8] [--traced]``
    Every workload, ``--rounds`` times round-robin, each visit in a fresh
    subprocess; prints every metric with its quartiles and writes
    ``bench/out/result.json`` (the input of ``bench/compare.py``).
    ``--traced`` adds one traced visit per workload (the ``layers``
    section).

Exit code 0 only if every answer checked out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median

import estimate
from reference import Yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
OUT_DIR = BENCH / "out"

#: an end-to-end metric that has no meaning on a workload (no writes)
#: repeats the workload's ``lat_p50_ms`` there, because every run has to
#: report every metric with a measured value.  ``result.json`` lists them
#: per workload under ``not_applicable``.
MIRRORED = ("write_lat_p50_ms",)
#: tail percentiles are measured and stored but carry no bound: on a
#: shared box they follow the host's jitter, not the code (bench/README.md)
UNGATED = ("lat_p95_ms", "lat_p99_ms")


def run_visit(workload: str, seed: int, seconds: float, trace: bool, setups: int) -> dict:
    """One visit in this process; returns its detail document.

    All times in it are reference seconds (``reference.py``): the stack
    under test is imported inside a timed call, between two slices of the
    reference kernel, like every other timed stretch.
    """
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        # never fall back to an installed copy: the numbers are about this tree
        raise SystemExit(f"{src}/repro not found: run from a checkout of the repository")
    yard = Yardstick()
    try:
        sys.path.insert(0, str(src))
        import_s = yard.time(lambda: importlib.import_module("visit"))
        detail = sys.modules["visit"].run_visit(
            workload, seed, seconds, trace, setups, yard, OUT_DIR
        )
    finally:
        yard.close()
    detail["workload"] = workload
    detail["seed"] = seed
    detail["import_s"] = import_s
    detail["machine_speed"] = estimate.summarize(yard.factors)
    detail["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return detail


def end_to_end(detail: dict) -> tuple[dict, list[str]]:
    """Reduce a visit to one value per end-to-end metric: the median over
    its segments.  Also returns which metrics were mirrored."""
    values = {
        name: median(series)
        for name, series in detail["segments"].items()
        if series
    }
    mirrored = [m for m in MIRRORED if m not in values]
    for name in mirrored:
        values[name] = values["lat_p50_ms"]
    values["setup_s"] = detail["import_s"] + median(detail["setup_s"])
    values["txn_per_req"] = detail["scalars"]["txn_per_req"]
    values["ok_frac"] = 1.0 - detail["failed"] / detail["attempted"]
    values["peak_rss_mb"] = detail["peak_rss_mb"]
    return values, mirrored


def contract_line(detail: dict, trace: bool) -> dict:
    """The result object the contract asks for on the last output line."""
    if trace:
        declared = CONTRACT["per_layer"]
        values = detail["layers"]
    else:
        declared = CONTRACT["end_to_end"]
        values, _ = end_to_end(detail)
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }


def single(args) -> int:
    detail = run_visit(args.workload, args.seed, args.seconds, bool(args.trace), args.setups)
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail))
    line = contract_line(detail, bool(args.trace))
    speed = detail["machine_speed"]
    print(f"workload {args.workload}  seed {args.seed}  token {detail['token']:#018x}")
    print(f"  machine speed {speed['median']:.3f} x nominal "
          f"[{speed['q1']:.3f} .. {speed['q3']:.3f}] over {speed['n']} reference slices")
    if not args.trace:
        wall = median(detail["wall_ops_per_s"])
        print(f"  wall-clock ops_per_s {wall:.1f} (not scaled by machine speed)")
    for name, metric in line["metrics"].items():
        print(f"  {name:48s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- the full protocol -----------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int, path: Path) -> dict:
    subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--setups", "1", "--detail", str(path),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return json.loads(path.read_text())


def full(args) -> int:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = OUT_DIR / "visit.json"
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    visits: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    # round-robin, so that a slow phase of the machine touches every
    # workload a little instead of one workload a lot
    for rnd in range(args.rounds):
        for workload in WORKLOADS:
            print(f"round {rnd + 1}/{args.rounds}: {workload}", file=sys.stderr)
            visits[workload].append(_child(workload, args.seed, args.seconds, 0, scratch))

    doc = {
        "schema": 1,
        "seed": args.seed,
        "config": {"rounds": args.rounds, "seconds_per_visit": args.seconds},
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    failed = 0
    for workload, details in visits.items():
        per_visit = [end_to_end(d) for d in details]
        mirrored = per_visit[0][1]
        metrics = {}
        for name in (*units, *UNGATED):
            if name in mirrored or not any(name in vals for vals, _ in per_visit):
                continue
            # timings pool every segment of every visit; the rest has one
            # value per visit
            pooled = [v for d in details for v in d["segments"].get(name, ())]
            summary = estimate.summarize(pooled or [vals[name] for vals, _ in per_visit])
            summary["unit"] = units.get(name, "ms")
            if name in details[0]["samples"]:
                summary["samples_per_segment"] = details[0]["samples"][name]
            metrics[name] = summary
        exact = {vals["txn_per_req"] for vals, _ in per_visit}
        tokens = {d["token"] for d in details}
        attempted = sum(d["attempted"] for d in details)
        bad = sum(d["failed"] for d in details) + (len(exact) > 1) + (len(tokens) > 1)
        failed += bad
        doc["workloads"][workload] = {
            "token": f"{details[0]['token']:#018x}",
            "attempted": attempted,
            "failed": bad,
            "not_applicable": mirrored,
            "metrics": metrics,
            # what the reference kernel saw, and the rate before scaling by it
            "machine_speed": estimate.summarize(
                [d["machine_speed"]["median"] for d in details]
            ),
            "wall_ops_per_s": estimate.summarize(
                [v for d in details for v in d["wall_ops_per_s"]]
            ),
        }

    if args.traced:
        doc["layers"] = {}
        for workload in WORKLOADS:
            print(f"traced: {workload}", file=sys.stderr)
            detail = _child(workload, args.seed, max(args.seconds, 12), 1, scratch)
            failed += detail["failed"]
            doc["layers"][workload] = detail["layers"]
    scratch.unlink()

    for workload, entry in doc["workloads"].items():
        print(f"{workload}  token {entry['token']}  "
              f"attempted {entry['attempted']}  failed {entry['failed']}")
        for name, s in entry["metrics"].items():
            print(f"  {name:20s} {s['median']:12.4f} {s['unit']:6s} "
                  f"[{s['q1']:.4f} .. {s['q3']:.4f}]  n={s['n']}")
        for name, value in doc.get("layers", {}).get(workload, {}).items():
            print(f"    {name:50s} {value:14.4f}")
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}" + ("" if not failed else f"; {failed} FAILED checks"))
    return 0 if not failed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=3, help="set-ups per visit")
    parser.add_argument("--detail", help="also write the visit's segments here")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"))
    args = parser.parse_args(argv)
    if args.workload:
        args.seconds = args.seconds or CONTRACT["run_seconds"]
        return single(args)
    args.seconds = args.seconds or 8
    return full(args)


if __name__ == "__main__":
    sys.exit(main())
