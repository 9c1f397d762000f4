"""The five soak experiments end to end through ``rnb run --format json --out``.

Each row is one soak configuration: experiment, scale, seed, a second
seed, extra flags.  A row runs the CLI three times, twice at ``seed`` and
once at the second seed.  The two same-seed files must be byte-identical
(series, meta and every token in it); the second seed must move the
``determinism_token``.  ``write_chaos`` and ``partition_chaos`` must
also pass their convergence and split-brain gates at both seeds, and the
``--nemesis`` row must actually black out links.  Every row takes well
under a second.
"""

from __future__ import annotations

import ast
import json

import pytest

from repro.cli import main

ROWS = [
    ("chaos", "0.25", 3, 4, ()),
    ("hotspot", "0.25", 2013, 7, ()),
    ("load_soak", "0.2", 2013, 2014, ()),
    # same-seed identity covers each arm's metrics_token: telemetry, not
    # only the headline series
    ("load_soak", "0.12", 7, 8, ()),
    ("load_soak", "0.12", 7, 8, ("--nemesis", "3")),
    ("write_chaos", "0.25", 2014, 7, ()),
    ("partition_chaos", "0.3", 2014, 7, ()),
]


def write_chaos_gates(meta: dict) -> None:
    # the kill schedule lands mid-burst and seeds real divergence, the
    # majority quorum loses no write, and the scrubber closes all of it
    assert meta["converged"] == "True"
    assert meta["divergent_after_scrub"] == "0"
    assert int(meta["divergent_before_repair"]) > 0
    assert int(meta["writes_failed"]) == 0


def partition_chaos_gates(meta: dict) -> None:
    # the split bites (blocked requests, refused minority writes and
    # epochs), the minority never commits an epoch, and after heal +
    # scrub the history is violation-free with zero divergent keys
    assert meta["minority_epoch_commits"] == "0"
    assert meta["violations"] == "0"
    assert meta["divergent_after_scrub"] == "0"
    assert int(meta["quorum_rejections"]) > 0
    assert int(meta["writes_rejected"]) > 0
    assert int(meta["blocked_requests"]) > 0


def nemesis_gates(meta: dict) -> None:
    assert len(ast.literal_eval(meta["nemesis_blackouts"])) == 2
    assert ast.literal_eval(meta["partition_blocked"])["flash"] > 0


GATES = {"write_chaos": write_chaos_gates, "partition_chaos": partition_chaos_gates}


def run_json(tmp_path, run: str, name: str, scale: str, seed: int, extra) -> str:
    out = tmp_path / run
    argv = ["run", name, "--scale", scale, "--seed", str(seed), *extra]
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    (path,) = out.glob("*.json")
    return path.read_text()


@pytest.mark.parametrize(
    "name, scale, seed, other, extra",
    ROWS,
    ids=[f"{r[0]}-{r[1]}-{r[2]}{'-nemesis' if r[4] else ''}" for r in ROWS],
)
def test_same_seed_files_match_and_another_seed_differs(
    tmp_path, name, scale, seed, other, extra
):
    a = run_json(tmp_path, "a", name, scale, seed, extra)
    b = run_json(tmp_path, "b", name, scale, seed, extra)
    c = run_json(tmp_path, "c", name, scale, other, extra)
    assert a == b
    metas = [json.loads(text)["meta"] for text in (a, c)]
    assert metas[0]["determinism_token"] != metas[1]["determinism_token"]
    for meta in metas:
        if name in GATES:
            GATES[name](meta)
        if extra:
            nemesis_gates(meta)
