"""Benchmark harness glue.

Each ``bench_*`` module regenerates one figure of the paper via
pytest-benchmark: the *timing* measures the cost of the reproduction
pipeline, and the *output tables* — the actual figure data — are printed
and archived under ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md
can cite them.

Scale knobs:

* default — laptop-quick (~seconds per figure, scaled-down graphs);
* ``RNB_BENCH_FULL=1`` — paper-scale graphs and request counts (minutes);
* ``RNB_BENCH_WORKERS=N`` — worker count for sweep parallelism in the
  full profile (default: all cores but one); ``bench_profile`` below is
  its only reader.

Run with ``pytest benchmarks/ --benchmark-only``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("RNB_BENCH_FULL", "") not in ("", "0")


@pytest.fixture(scope="session")
def bench_profile() -> dict:
    """Size parameters for experiment drivers, quick vs full."""
    if FULL_SCALE:
        workers_env = os.environ.get("RNB_BENCH_WORKERS", "")
        if workers_env:
            max_workers = max(1, int(workers_env))
        else:
            max_workers = max(1, (os.cpu_count() or 1) - 1)
        return {
            "scale": 1.0,
            "n_requests": 4000,
            "warmup_requests": 20_000,
            "mc_trials": 1000,
            "max_workers": max_workers,
        }
    return {
        "scale": 0.1,
        "n_requests": 1200,
        "warmup_requests": 2500,
        "mc_trials": 300,
        "max_workers": 1,
    }


@pytest.fixture(scope="session")
def archive(request):
    """Print an experiment's tables and archive them under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def _archive(results) -> None:
        for res in results:
            text = res.table()
            # suspend pytest's fd capture so the figure data lands in the
            # terminal / tee'd bench log, not only in results/
            if capmanager is not None:
                with capmanager.global_and_fixture_disabled():
                    sys.stdout.write("\n" + text + "\n")
                    sys.stdout.flush()
            else:  # pragma: no cover - capture plugin always present
                print("\n" + text)
            (RESULTS_DIR / f"{res.name}.txt").write_text(text + "\n")

    return _archive


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    Simulation experiments are far too heavy for pytest-benchmark's
    auto-calibrated many-round timing; a single timed round is the same
    trade the paper's own harness makes.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, iterations=1, rounds=1)
