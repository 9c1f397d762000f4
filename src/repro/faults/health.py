"""Per-server health accounting driven by observed errors.

The client side of fault tolerance: a :class:`HealthTracker` watches the
outcomes of transactions and classifies each server as *alive*,
*suspected* (recent consecutive errors) or *dead* (errors past the
``dead_after`` threshold).  The tracker is deliberately passive — it
never probes; it only folds in what the read path already observed —
which matches how memcached client rings mark hosts down in production.

The ``exclusions()`` set feeds straight into
:meth:`repro.core.bundling.Bundler.plan`: dead servers are never chosen
by the cover, and (optionally) suspected ones are avoided too.  A single
success fully rehabilitates a server — crash-stop servers never produce
one, while servers that merely timed out transiently rejoin immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "dead"


@dataclass(slots=True)
class ServerHealth:
    """Mutable health record for one server."""

    state: str = ALIVE
    consecutive_errors: int = 0
    total_errors: int = 0
    total_successes: int = 0
    consecutive_successes: int = 0
    #: times this server transitioned into DEAD (flap history)
    flaps: int = 0


class HealthTracker:
    """Error-driven alive / suspected / dead state machine per server.

    Parameters
    ----------
    n_servers:
        Fleet size (server ids ``0..n_servers-1``).
    suspect_after:
        Consecutive errors after which a server becomes *suspected*.
    dead_after:
        Consecutive errors after which it is declared *dead*.  Must be
        >= ``suspect_after``.
    flap_threshold:
        Opt-in flap damping.  ``None`` (the default) keeps the classic
        behaviour: one success fully rehabilitates.  When set, a server
        that has already died **at least twice** must produce this many
        *consecutive* successes before a DEAD verdict is lifted — so a
        host that oscillates between up and down stops being re-trusted
        on every blip.  The first death stays cheap to recover from
        (crashes happen; flapping is the pattern being damped).
    """

    def __init__(
        self,
        n_servers: int,
        *,
        suspect_after: int = 1,
        dead_after: int = 3,
        flap_threshold: int | None = None,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if suspect_after < 1 or dead_after < suspect_after:
            raise ConfigurationError(
                "need 1 <= suspect_after <= dead_after; got "
                f"suspect_after={suspect_after}, dead_after={dead_after}"
            )
        if flap_threshold is not None and flap_threshold < 1:
            raise ConfigurationError("flap_threshold must be >= 1 or None")
        self.n_servers = n_servers
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.flap_threshold = flap_threshold
        self._health = [ServerHealth() for _ in range(n_servers)]
        self._observers: list = []
        #: the DEAD and the SUSPECTED servers, kept in step with every state
        #: change (:meth:`_set_state`) so that :meth:`exclusions` scans nothing
        self._dead: frozenset[int] = frozenset()
        self._suspected: frozenset[int] = frozenset()

    # -- observers ----------------------------------------------------------

    def add_observer(self, observer) -> None:
        """Attach a passive listener to every health observation.

        ``observer.observe(server, outcome)`` is called with outcome
        ``"success"`` / ``"error"`` / ``"recovery"`` after the tracker
        folds it in.  This is how a
        :class:`repro.overload.breaker.BreakerBoard` piggybacks on a
        read path that already reports to the health tracker without
        that path growing a second reporting call-site.
        """
        self._observers.append(observer)

    # -- fleet size ---------------------------------------------------------

    def ensure_capacity(self, n_servers: int) -> None:
        """Grow the tracked id space (elastic join); never shrinks."""
        while len(self._health) < n_servers:
            self._health.append(ServerHealth())
        self.n_servers = len(self._health)

    # -- observations -----------------------------------------------------

    def _set_state(self, server: int, h: ServerHealth, state: str) -> None:
        """Move ``server`` (record ``h``) to ``state``; the one place a state changes."""
        old = h.state
        if old == state:
            return
        if old == DEAD:
            self._dead = self._dead - {server}
        elif old == SUSPECTED:
            self._suspected = self._suspected - {server}
        if state == DEAD:
            self._dead = self._dead | {server}
        elif state == SUSPECTED:
            self._suspected = self._suspected | {server}
        h.state = state

    def record_success(self, server: int) -> None:
        """A transaction completed: the server is (back) alive.

        Without flap damping a single success fully rehabilitates.  With
        ``flap_threshold`` set, a repeat offender (two or more deaths)
        must string together ``flap_threshold`` consecutive successes
        before its DEAD verdict is lifted.
        """
        h = self._health[server]
        h.consecutive_errors = 0
        h.total_successes += 1
        h.consecutive_successes += 1
        if h.state != ALIVE and not (
            h.state == DEAD
            and self.flap_threshold is not None
            and h.flaps >= 2
            and h.consecutive_successes < self.flap_threshold
        ):  # a damped repeat offender stays untrusted
            self._set_state(server, h, ALIVE)
        for observer in self._observers:
            observer.observe(server, "success")

    def record_error(self, server: int) -> None:
        """A transaction failed (timeout or connection error)."""
        h = self._health[server]
        h.consecutive_errors += 1
        h.total_errors += 1
        h.consecutive_successes = 0
        if h.consecutive_errors >= self.dead_after:
            if h.state != DEAD:
                h.flaps += 1
            self._set_state(server, h, DEAD)
        elif h.consecutive_errors >= self.suspect_after:
            self._set_state(server, h, SUSPECTED)
        for observer in self._observers:
            observer.observe(server, "error")

    def record_recovery(self, server: int) -> None:
        """Authoritative recovery signal (operator / membership service).

        Unlike :meth:`record_success` this is not an inference from one
        lucky transaction: the server is *known* restarted, so the
        health verdict resets unconditionally.  The *observer
        notification* is damped, though: with ``flap_threshold`` set, a
        repeat offender (two or more deaths — a flapping link restores
        "authoritatively" on every up-phase) notifies ``"success"``
        instead of ``"recovery"``, so a listening breaker board applies
        its normal half-open discipline instead of force-closing and
        forgetting its escalated backoff on every flap.  Counters
        persist; only the live state machine resets.
        """
        h = self._health[server]
        damped = self.flap_threshold is not None and h.flaps >= 2
        self._set_state(server, h, ALIVE)
        h.consecutive_errors = 0
        h.consecutive_successes = 0
        for observer in self._observers:
            observer.observe(server, "success" if damped else "recovery")

    # -- queries ------------------------------------------------------------

    def state(self, server: int) -> str:
        return self._health[server].state

    def is_available(self, server: int) -> bool:
        """Dead servers are unavailable; suspected ones still get traffic."""
        return self._health[server].state != DEAD

    def exclusions(self, *, include_suspected: bool = False) -> frozenset[int]:
        """Servers the cover should avoid."""
        return self._dead | self._suspected if include_suspected else self._dead

    def alive_servers(self) -> frozenset[int]:
        return frozenset(
            sid for sid, h in enumerate(self._health) if h.state != DEAD
        )

    def snapshot(self) -> dict[int, ServerHealth]:
        """Copy of the per-server records (for metrics/debugging)."""
        return {
            sid: ServerHealth(
                state=h.state,
                consecutive_errors=h.consecutive_errors,
                total_errors=h.total_errors,
                total_successes=h.total_successes,
                consecutive_successes=h.consecutive_successes,
                flaps=h.flaps,
            )
            for sid, h in enumerate(self._health)
        }

    def counts(self) -> dict[str, int]:
        """How many servers are in each state."""
        out = {ALIVE: 0, SUSPECTED: 0, DEAD: 0}
        for h in self._health:
            out[h.state] += 1
        return out
