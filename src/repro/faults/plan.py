"""Deterministic failure schedules.

A :class:`FaultPlan` decides, as a pure function of ``(seed, server,
tick, attempt)``, which servers are down or timing out at any point
of a run.  Determinism is load-bearing: the acceptance bar for the
fault-tolerance experiment is that the *same seed reproduces the same
failure schedule and the same results*, so the plan never consumes
shared RNG state at query time.  Crash times are drawn once at
construction from :func:`repro.utils.rng.derive_rng`; per-attempt
transient timeouts use the stateless
:func:`repro.hashing.hashfns.hash64_int` mixer so that retrying the same
transaction re-rolls the dice without perturbing any other draw.

Failure modes (docs/FAULTS.md):

* **crash-stop** — a server dies at a scheduled tick and never returns
  (the classic fail-stop model; Harmonia and the content-replication
  literature evaluate replicated reads under exactly this).
* **transient timeout** — an attempt against the server times out with
  probability ``timeout_rate``; independent across attempts, so a retry
  may succeed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hashing.hashfns import hash64_int
from repro.utils.rng import derive_rng

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, slots=True)
class FaultConfig:
    """Knobs of the failure model.

    ``crash_rate`` is the expected *fraction of servers* that crash-stop
    somewhere in ``[0, horizon)``; ``timeout_rate`` is the per-attempt
    probability of a transient timeout on a live server.
    """

    crash_rate: float = 0.0
    timeout_rate: float = 0.0
    horizon: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "timeout_rate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]; got {value}")
        if self.horizon < 1:
            raise ConfigurationError("horizon must be >= 1")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault: ``kind`` is ``"crash"``."""

    tick: int
    server: int
    kind: str


class FaultPlan:
    """The fully materialised failure schedule for one cluster run.

    The logical clock (*tick*) is advanced by the caller — the simulator
    uses one tick per request.  All queries are pure; two plans built
    from equal ``(n_servers, config)`` answer identically forever.
    """

    def __init__(self, n_servers: int, config: FaultConfig | None = None) -> None:
        if n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        self.n_servers = n_servers
        self.config = config or FaultConfig()
        cfg = self.config

        rng = derive_rng(cfg.seed, 0xFA)
        crash_draw = rng.random(n_servers)
        crash_ticks = rng.integers(0, cfg.horizon, size=n_servers)

        self._crash_tick: dict[int, int] = {
            sid: int(crash_ticks[sid])
            for sid in range(n_servers)
            if crash_draw[sid] < cfg.crash_rate
        }

    # -- crash-stop ------------------------------------------------------

    def is_crashed(self, server: int, tick: int) -> bool:
        """True once ``server``'s crash tick has passed (never heals)."""
        crash = self._crash_tick.get(server)
        return crash is not None and tick >= crash

    def crashed_at(self, tick: int) -> frozenset[int]:
        """The set of servers dead at ``tick``."""
        return frozenset(
            sid for sid, crash in self._crash_tick.items() if tick >= crash
        )

    def ever_crashed(self) -> frozenset[int]:
        """Servers that crash at some point within the horizon."""
        return frozenset(self._crash_tick)

    # -- transient timeouts ----------------------------------------------

    def is_timeout(self, server: int, tick: int, attempt: int = 0) -> bool:
        """Does this ``(server, tick, attempt)`` attempt time out?

        Stateless: retries of the same transaction pass increasing
        ``attempt`` numbers and get independent draws, so bounded retries
        ride out transient faults with probability
        ``1 - timeout_rate^(retries+1)``.
        """
        rate = self.config.timeout_rate
        if rate <= 0.0:
            return False
        key = (tick * self.n_servers + server) * 8191 + attempt
        draw = hash64_int(key, seed=self.config.seed ^ 0x7E0) / (_MASK64 + 1)
        return draw < rate

    # -- introspection -----------------------------------------------------

    def schedule(self) -> tuple[FaultEvent, ...]:
        """All scheduled (non-transient) events, in tick order.

        The deterministic fingerprint of the plan: two plans with the
        same seed and shape produce equal schedules.
        """
        events = [
            FaultEvent(tick=t, server=sid, kind="crash")
            for sid, t in self._crash_tick.items()
        ]
        return tuple(sorted(events, key=lambda e: (e.tick, e.server, e.kind)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(n_servers={self.n_servers}, crashes={len(self._crash_tick)}, "
            f"seed={self.config.seed})"
        )
