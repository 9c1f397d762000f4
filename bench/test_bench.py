"""Tests of the benchmark's own machinery (``python -m pytest bench/``).

Outside the tier-1 ``testpaths``: these check the harness — the span
arithmetic, the estimator, the seeded inputs, the answer checks and that
tracing does not change answers — not ``src/``.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import estimate
import live
import reference
import spans
import spec as specs

SMALL = specs.LiveSpec("small", 4, 2, 200, 6, 48, callers=2, write_fraction=0.2)


# -- span arithmetic -------------------------------------------------------


def _span(name, parent, start, end, server=-1, kind=None):
    span = [name, parent, server, start, end]
    if kind:
        span.append(kind)
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("request", -1, 0, 100)
    children = [
        _span("txn", 0, 10, 50),
        _span("txn", 0, 30, 70),  # overlaps the first: 10..70 covered once
        _span("txn", 0, 90, 130),  # sticks out: clipped to 90..100
    ]
    assert spans.union_length([(c[3], c[4]) for c in children], 0, 100) == 70
    assert spans.self_time(parent, children) == 30
    assert spans.self_time(parent, []) == 100


def test_attribute_splits_a_request_into_shares_that_add_up():
    trace = [
        _span("request", -1, 0, 1000, kind="read"),
        _span("plan", 0, 50, 150),
        _span("txn", 0, 200, 800, server=0),
        _span("exchange", 2, 220, 780, server=0),
        _span("txn", 0, 210, 900, server=1),
        _span("exchange", 4, 240, 880, server=1),
        _span("execute", -1, 400, 440, server=0),
        _span("execute", -1, 500, 560, server=1),
    ]
    assert spans.link_executes(trace)
    assert trace[6][1] == 3 and trace[7][1] == 5
    read = spans.attribute(trace)["read"]
    assert read["ops"] == 1 and read["txns"] == 2
    assert read["share_ns"]["plan"] == 100
    # request 1000 - plan 100 - union of txns (200..900) 700
    assert read["share_ns"]["rnbclient"] == 200
    assert read["memclient_self_ns"] == (600 - 560) + (690 - 640)
    assert read["transport_self_ns"] == (560 - 40) + (640 - 60)
    assert read["execute_ns"] == 100
    assert abs(sum(read["share_ns"].values()) - 1000) < 1e-6
    # the slowest transaction against the mean one
    assert abs(read["straggler_sum"] - 690 / 645) < 1e-9


def test_link_executes_reports_a_count_mismatch():
    trace = [
        _span("request", -1, 0, 10, kind="read"),
        _span("exchange", 0, 1, 9, server=0),
        _span("execute", -1, 2, 3, server=0),
        _span("execute", -1, 4, 5, server=0),
    ]
    assert not spans.link_executes(trace)


# -- estimator -------------------------------------------------------------


def test_median_of_segments_ignores_a_slow_phase():
    segments = [100.0] * 9 + [40.0, 45.0, 50.0]  # a quarter of the run was slow
    summary = estimate.summarize(segments)
    assert summary["median"] == 100.0 and summary["n"] == 12
    assert summary["q1"] < 100.0 and summary["q3"] == 100.0
    assert estimate.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_percentile_interpolates_like_numpy():
    ordered = [1.0, 2.0, 3.0, 4.0]
    assert estimate.percentile(ordered, 50) == 2.5
    assert estimate.percentile(ordered, 0) == 1.0
    assert estimate.percentile(ordered, 100) == 4.0
    assert abs(estimate.percentile(ordered, 99) - 3.97) < 1e-9


# -- seeded inputs ---------------------------------------------------------


def test_same_seed_same_workload_token_other_seed_other_token():
    for spec in (SMALL, specs.LIVE["bundle_read"]):
        a, b = specs.build_ops(spec, 11), specs.build_ops(spec, 11)
        assert a == b and specs.ops_token(a) == specs.ops_token(b)
        assert specs.ops_token(specs.build_ops(spec, 12)) != specs.ops_token(a)
    ops = specs.build_ops(SMALL, 11)
    assert {op[0] for op in ops} == {"r", "w"}
    for kind, arg in ops:
        if kind == "r":
            assert len(arg) == len(set(arg)) == SMALL.request_size


# -- answer checks ---------------------------------------------------------


class _Tamper:
    """A connection that passes everything through but spoils ``get_multi``."""

    def __init__(self, inner, spoil) -> None:
        self._inner = inner
        self._spoil = spoil

    async def get_multi(self, keys, **kwargs):
        return self._spoil(await self._inner.get_multi(keys, **kwargs))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _corrupt(values: dict) -> dict:
    return {k: b"garbage".ljust(len(v), b"!") for k, v in values.items()}


def _drop_one(values: dict) -> dict:
    return dict(list(values.items())[1:])


async def _failed_ops(spoil, servers) -> tuple[int, int]:
    """Run the closed loop briefly with ``spoil`` on ``servers``' connections."""
    fleet = await live.Fleet(SMALL, 5).start()
    ops = specs.build_ops(SMALL, 5)
    try:
        conns = fleet.rnb.connections
        for sid in servers:
            conns[sid] = _Tamper(conns[sid], spoil)
        tally = live.Tally(len(ops))
        await live.run_slice(fleet, ops, tally, 0.3)
        await live.audit_writes(fleet, tally)
        return tally.attempted, tally.failed
    finally:
        await fleet.stop()


def test_a_healthy_fleet_fails_nothing():
    attempted, failed = asyncio.run(_failed_ops(None, ()))
    assert attempted > 0 and failed == 0


def test_a_corrupted_value_counts_as_a_failed_op():
    attempted, failed = asyncio.run(_failed_ops(_corrupt, (0,)))
    assert 0 < failed <= attempted


def test_a_dropped_key_counts_as_a_failed_op():
    # dropped by one server the client repairs it from another replica (the
    # answer is complete; the wasted round shows in the per-layer counts);
    # dropped by every server it is gone, and the op has failed
    attempted, failed = asyncio.run(_failed_ops(_drop_one, range(SMALL.n_servers)))
    assert 0 < failed <= attempted


# -- reference seconds -----------------------------------------------------


def test_a_slice_is_scaled_by_the_speed_of_the_machine_around_it():
    slice_ = live.Segment()
    slice_.read_lat = [0.002, 0.004]
    slice_.write_lat = [0.001]
    slice_.wall = 0.2
    segment = live.Segment()
    segment.add(slice_, 0.5)  # the machine ran at half the nominal speed
    segment.add(slice_, 1.0)
    assert segment.read_lat == [0.001, 0.002, 0.002, 0.004]
    assert segment.write_lat == [0.0005, 0.001]
    assert segment.ops == 6 and segment.wall == 0.4
    assert abs(segment.elapsed - 0.3) < 1e-12


def test_yardstick_brackets_a_slice_with_two_measurements():
    yard = reference.Yardstick()
    try:
        assert yard.reference.speed(0.01) > 0  # the real kernel runs
        speeds = iter([1.0, 0.5, 0.9])
        yard.reference.speed = lambda: next(speeds)
        yard.mark()
        assert yard.factor() == 0.75  # mean of before (1.0) and after (0.5)
        assert yard.factor() == 0.7  # the last "after" is the next "before"
        assert yard.factors == [0.75, 0.7]
    finally:
        yard.close()


# -- tracing changes no answer ---------------------------------------------


def test_traced_proxies_return_byte_identical_results():
    async def both():
        rec = spans.Recorder()
        rec.enabled = True
        rec.capturing = True
        traced = await live.Fleet(SMALL, 5, recorder=rec).start()
        plain = await live.Fleet(SMALL, 5).start()
        try:
            ops = specs.build_ops(SMALL, 5)
            answers = []
            for fleet in (traced, plain):
                got = []
                for kind, arg in ops[:40]:
                    if kind == "r":
                        with rec.request("read"):
                            out = await fleet.rnb.get_multi(arg)
                        got.append((out.values, out.transactions, out.missing))
                    else:
                        with rec.request("write"):
                            out = await fleet.rnb.set_versioned(arg, b"v" * 8)
                        got.append((out.outcome, out.acked, out.stamp))
                answers.append(got)
            return answers, rec
        finally:
            await traced.stop()
            await plain.stop()

    (with_trace, without), rec = asyncio.run(both())
    assert with_trace == without
    # the proxies saw exactly what crossed the wire, and the trace closes
    rows = rec.rows()
    assert spans.link_executes(rows)
    assert len(rec.commands) == len(rec.responses) == len(rec.requests) > 0
    for kind in spans.attribute(rows).values():
        assert abs(sum(kind["share_ns"].values()) - kind["request_ns"]) <= 1e-6 * kind["request_ns"]
    # a reset (after warm-up) forgets the spans and keeps the replay inputs
    captured = len(rec.commands)
    rec.reset()
    assert rec.rows() == [] and not rec.enabled and len(rec.commands) == captured
