"""Declarative simulation configuration.

Configuration is split the way the system is: the *cluster* (how many
servers, how items are replicated and placed, how much memory) and the
*client* (which fetch strategy, which RnB enhancements are on).  All
validation happens in ``__post_init__`` so a bad experiment fails before
it burns simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

CLIENT_MODES = ("rnb", "noreplication", "fullreplication")
PLACEMENTS = ("rch", "multihash", "random")
TIE_BREAKS = ("lowest", "random", "least_loaded")


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Fleet shape: servers, replication, placement, memory.

    ``memory_factor`` follows paper Fig 8: total memory relative to one
    full copy of the data; ``None`` = unlimited (naive allocation).
    For ``fullreplication`` clients, ``replication`` is the number of
    complete system copies (banks) and must divide ``n_servers``.
    """

    n_servers: int
    replication: int = 1
    memory_factor: float | None = None
    placement: str = "rch"
    vnodes: int = 64
    placement_seed: int = 0
    lru_policy: str = "pinned"

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ConfigurationError("n_servers must be >= 1")
        if self.lru_policy not in ("pinned", "priority"):
            raise ConfigurationError(
                f"lru_policy must be 'pinned' or 'priority'; got {self.lru_policy!r}"
            )
        if not (1 <= self.replication <= self.n_servers):
            raise ConfigurationError(
                f"replication {self.replication} out of range for "
                f"{self.n_servers} servers"
            )
        if self.placement not in PLACEMENTS:
            raise ConfigurationError(
                f"placement must be one of {PLACEMENTS}; got {self.placement!r}"
            )
        if self.memory_factor is not None and self.memory_factor < 1.0:
            raise ConfigurationError("memory_factor must be >= 1.0 (or None)")
        if self.vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")


@dataclass(frozen=True, slots=True)
class ClientConfig:
    """Fetch strategy and RnB enhancement switches.

    ``tie_break="least_loaded"`` resolves equal-gain cover ties toward
    the server with the fewest transactions so far (the simulator's
    tick-domain load signal; see :mod:`repro.overload.tiebreak`) instead
    of the lowest id; ``"lowest"`` and ``"random"`` are the paper's
    policies.
    """

    mode: str = "rnb"
    hitchhiking: bool = False
    single_item_rule: bool = True
    tie_break: str = "lowest"
    write_back: bool = True
    merge_window: int = 1
    limit_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in CLIENT_MODES:
            raise ConfigurationError(
                f"mode must be one of {CLIENT_MODES}; got {self.mode!r}"
            )
        if self.tie_break not in TIE_BREAKS:
            raise ConfigurationError(
                f"tie_break must be one of {TIE_BREAKS}; got {self.tie_break!r}"
            )
        if self.merge_window < 1:
            raise ConfigurationError("merge_window must be >= 1")
        if self.limit_fraction is not None and not (0.0 < self.limit_fraction <= 1.0):
            raise ConfigurationError("limit_fraction must be in (0, 1]")
        if self.limit_fraction is not None and self.merge_window > 1:
            raise ConfigurationError("LIMIT requests cannot be merged")


@dataclass(frozen=True, slots=True)
class SimConfig:
    """One full simulation run.

    ``batch_size`` is the planning chunk length of an RnB run whose
    tie-break does not read live load: that many requests are drawn,
    flattened to one array entry per requested item and covered together
    (:func:`repro.perf.batchcover.batch_cover`), so it trades nothing but
    array sizes — requests of any width share a chunk.  The cover kernel
    makes a few NumPy calls per greedy round whatever the chunk holds, so
    a larger chunk pays them for more items; 2 048 is where both simulator
    workloads of ``bench/`` are fastest (docs/PERFORMANCE.md, "PR 30").
    Its price is array memory: one round's gain matrix is ``batch_size x
    n_servers`` int64, 16 MiB at 1 024 servers.  In the tally regime
    (``memory_factor=None``, no hitchhiking; a ``fullreplication`` run is
    always in it) a chunk becomes counter increments without a result per
    request (:meth:`repro.core.client.RnBClient.tally_chunk`).  On the
    plain ego stream a chunk is drawn as a :class:`repro.types.RequestBlock`
    of its rows' heads; a merge window or a LIMIT fraction draws the same
    requests as :class:`repro.types.Request` objects.
    ``tie_break="least_loaded"`` serves them one at a time.  Which of these
    happens follows from the fields below; nothing selects it, and the
    results are those of the request-at-a-time loop bit for bit (enforced
    by ``tests/sim``).
    """

    cluster: ClusterConfig
    client: ClientConfig = field(default_factory=ClientConfig)
    n_requests: int = 2000
    warmup_requests: int = 1000
    seed: int = 0
    batch_size: int = 2048

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.warmup_requests < 0:
            raise ConfigurationError("warmup_requests must be >= 0")
        if self.client.mode != "rnb" and self.cluster.placement != "rch":
            raise ConfigurationError(
                f"{self.client.mode} places by consistent hashing; placement must "
                f"be 'rch', got {self.cluster.placement!r}"
            )
        if self.client.mode == "noreplication" and self.cluster.replication != 1:
            raise ConfigurationError(
                "noreplication client requires cluster replication == 1"
            )
        if self.client.mode == "fullreplication":
            if self.cluster.n_servers % self.cluster.replication != 0:
                raise ConfigurationError(
                    "full replication needs replication (banks) dividing n_servers"
                )
            if self.cluster.memory_factor is not None:
                raise ConfigurationError(
                    "full replication banks hold complete copies; memory_factor "
                    "must be None"
                )
            if self.client.hitchhiking or self.client.tie_break != "lowest":
                raise ConfigurationError(
                    "full replication has one copy per bank: nothing to hitchhike "
                    "on or tie-break; use hitchhiking=False, tie_break='lowest'"
                )
