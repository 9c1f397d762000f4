"""The kept exclusion sets against the fleet scans they replaced (``_oracle.py``).

``HealthTracker.exclusions()`` and ``BreakerBoard.tripped()`` return sets
kept in step with each state change, ``advance()`` visits only the OPEN
breakers and a success is not kept in a window that holds no failure.
Random sequences of every call that moves a state must leave both
structures where the scanning implementations leave them: the same sets,
the same health record and breaker state per server, the same probe
verdicts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.health import HealthTracker
from repro.overload.breaker import BreakerBoard

from tests.overload import _oracle

#: ``(call, arg)``: a call on server ``arg % n_servers``, ``advance`` by ``4 ** arg``
#: ticks or ``grow`` by one server; failures and probes are drawn most, and no
#: sequence is short, so that servers die, trip, probe and recover within one
ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["error", "error", "success", "recovery", "board_success", "board_failure",
             "board_failure_hard", "board_recovery", "probe", "probe", "advance", "advance",
             "grow"]
        ),
        st.integers(0, 3),
    ),
    min_size=20,
    max_size=60,
)
configs = st.fixed_dictionaries(
    {
        "n_servers": st.integers(1, 3),
        "trip_after": st.integers(1, 3),
        "extra_window": st.integers(0, 4),
        "open_ticks": st.integers(1, 8),
        "suspect_after": st.integers(1, 2),
        "extra_dead": st.integers(0, 2),
        "flap_threshold": st.sampled_from([None, 2, 3]),
        "seed": st.integers(0, 3),
        "forwarding": st.booleans(),
    }
)


def build(health_cls, board_cls, cfg):
    """A tracker and a board wired as the live client wires them (the board
    observes the tracker) or as the fault-tolerant client does (the board
    forwards to the tracker)."""
    health = health_cls(
        cfg["n_servers"],
        suspect_after=cfg["suspect_after"],
        dead_after=cfg["suspect_after"] + cfg["extra_dead"],
        flap_threshold=cfg["flap_threshold"],
    )
    board = board_cls(
        cfg["n_servers"],
        trip_after=cfg["trip_after"],
        window=cfg["trip_after"] + cfg["extra_window"],
        open_ticks=cfg["open_ticks"],
        health=health if cfg["forwarding"] else None,
        seed=cfg["seed"],
    )
    if not cfg["forwarding"]:
        health.add_observer(board)
    return health, board


def apply(health, board, op):
    """Run ``op``; what it returned (a probe verdict) or None."""
    kind, arg = op
    if kind == "advance":
        return board.advance(4**arg)
    if kind == "grow":
        return board.ensure_capacity(board.n_servers + 1)
    sid = arg % board.n_servers
    if kind == "probe":
        return board.allow_probe(sid)
    if kind.startswith("board_failure"):
        return board.record_failure(sid, hard=kind.endswith("hard"))
    if kind.startswith("board_"):
        return getattr(board, f"record_{kind[len('board_'):]}")(sid)
    if sid >= health.n_servers:  # the forwarding board grows its tracker; a lone one does not
        return None
    return getattr(health, f"record_{kind}")(sid)


def breaker_fields(board) -> list[tuple]:
    return [
        (b.state, b.retry_at, b.trip_streak, b.transitions, b.probe_inflight,
         b.failures_in_window)
        for b in board._breakers
    ]


def assert_same(health, board, old_health, old_board) -> None:
    for include in (False, True):
        kept = health.exclusions(include_suspected=include)
        assert kept == _oracle.scan_exclusions(health, include_suspected=include)
        assert kept == old_health.exclusions(include_suspected=include)
    assert board.tripped() == _oracle.scan_tripped(board) == old_board.tripped()
    assert board.exclusions() == old_board.exclusions()
    assert list(health.snapshot().values()) == old_health._health
    assert breaker_fields(board) == breaker_fields(old_board)
    assert board.tick == old_board.tick


@given(configs, ops)
@settings(max_examples=500)
def test_kept_sets_match_the_scans(cfg, sequence):
    new = build(HealthTracker, BreakerBoard, cfg)
    old = build(_oracle.HealthTracker, _oracle.BreakerBoard, cfg)
    assert_same(*new, *old)
    for op in sequence:
        assert apply(*new, op) == apply(*old, op), op
        assert_same(*new, *old)


def test_a_recovery_clears_both_sets_and_keeps_a_closed_breaker_closed():
    health = HealthTracker(2, suspect_after=1, dead_after=2)
    board = BreakerBoard(2, trip_after=1, window=1, open_ticks=1)
    health.add_observer(board)
    for _ in range(2):
        health.record_error(0)
    assert health.exclusions() == board.tripped() == {0}
    health.record_recovery(0)
    assert health.exclusions(include_suspected=True) == board.tripped() == frozenset()
    board.advance(50)  # past the old retry_at: nothing to ripen
    assert board.state(0) == "closed" and board.tripped() == frozenset()


def test_a_success_behind_a_failure_still_pushes_it_out_of_the_window():
    board = BreakerBoard(1, trip_after=2, window=2)
    board.record_failure(0)
    board.record_success(0)  # window [F, S]
    board.record_failure(0)  # window [S, F]: one failure, no trip
    assert board.state(0) == "closed"
    board.record_failure(0)  # window [F, F]
    assert board.state(0) == "open"


def test_a_trip_a_probe_and_a_close_move_the_kept_sets():
    health = HealthTracker(3, suspect_after=1, dead_after=2)
    board = BreakerBoard(3, trip_after=1, window=1, open_ticks=1)
    health.add_observer(board)
    health.record_error(1)
    assert health.exclusions() == frozenset()
    assert health.exclusions(include_suspected=True) == {1}
    assert board.tripped() == {1}
    health.record_error(1)
    assert health.exclusions() == {1}
    board.advance(5)  # half-open, probe slot free: routable again
    assert board.tripped() == frozenset()
    assert board.allow_probe(1) and board.tripped() == {1}
    health.record_success(1)
    assert health.exclusions(include_suspected=True) == board.tripped() == frozenset()
