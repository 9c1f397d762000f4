"""Per-key version stamps: epoch-qualified Lamport counters.

The write path needs a total order over the writes of one key so that
divergent replicas can be reconciled deterministically ("newest version
wins").  A :class:`VersionStamp` is the triple

``(epoch, counter, writer)``

compared lexicographically:

* ``epoch`` — the membership epoch the write was issued under (the
  :class:`repro.membership.epoched.EpochedPlacer` epoch when one is in
  play, ``0`` for static placements).  A write issued after a topology
  change always supersedes writes from before it, which is what lets
  repair after a membership commit overwrite pre-failover stragglers.
* ``counter`` — a Lamport counter maintained by :class:`VersionClock`:
  incremented on every local write, advanced past any remotely observed
  stamp, so causally later writes compare greater.
* ``writer`` — a writer id used purely as a deterministic tiebreak
  between concurrent writes of distinct clients (no vector-clock
  semantics; RnB's paper-level guarantee is "no worse than memcached",
  i.e. last-writer-wins with a total order).

On the live memcached wire a stamp rides *inside the value bytes* as a
self-delimiting ASCII envelope (:func:`encode_versioned` /
:func:`decode_versioned`), so plain memcached servers store and return
versioned values unchanged and unversioned values written by legacy
paths decode as ``(None, payload)``.  On the simulated
:class:`repro.cluster.server.Server` path the same stamps live in a
side table (``Server.stamps``) next to the presence-only store.
"""

from __future__ import annotations

from dataclasses import dataclass

#: magic prefix of the wire envelope; values produced by the versioned
#: write path always start with it, so decoding is unambiguous for every
#: value this library writes (a legacy payload that happens to start
#: with the magic *and* parse as three integers would be misread — the
#: prefix is chosen to make that practically impossible)
MAGIC = b"RNBV1 "


@dataclass(frozen=True, slots=True, order=True)
class VersionStamp:
    """Totally ordered write version: ``(epoch, counter, writer)``."""

    epoch: int
    counter: int
    writer: int = 0

    def token(self) -> str:
        """Compact dot-separated rendering (scrub digests hash this)."""
        return f"{self.epoch}.{self.counter}.{self.writer}"


def newer(a: VersionStamp | None, b: VersionStamp | None) -> bool:
    """Is stamp ``a`` strictly newer than ``b``?  ``None`` (unversioned /
    missing) is older than every stamp and not newer than itself."""
    if a is None:
        return False
    if b is None:
        return True
    return a > b


class VersionClock:
    """A per-writer Lamport clock qualified by membership epochs.

    ``epoch_fn`` supplies the current topology epoch at stamping time —
    pass ``lambda: placer.epoch`` to ride an
    :class:`~repro.membership.epoched.EpochedPlacer`; the default pins
    epoch 0 (static placements).  :meth:`observe` folds a remotely read
    stamp in so this writer's next stamp supersedes it (the Lamport
    receive rule).
    """

    __slots__ = ("writer", "counter", "_epoch_fn")

    def __init__(self, writer: int = 0, *, epoch_fn=None) -> None:
        self.writer = writer
        self.counter = 0
        self._epoch_fn = epoch_fn

    @property
    def epoch(self) -> int:
        if self._epoch_fn is None:
            return 0
        return int(self._epoch_fn() or 0)

    def observe(self, stamp: VersionStamp | None) -> None:
        """Advance past a stamp read from elsewhere (Lamport receive)."""
        if stamp is not None and stamp.counter > self.counter:
            self.counter = stamp.counter

    def next_stamp(self) -> VersionStamp:
        """The stamp for one new local write (Lamport send)."""
        self.counter += 1
        return VersionStamp(self.epoch, self.counter, self.writer)


# ---------------------------------------------------------------------------
# wire envelope
# ---------------------------------------------------------------------------


def encode_versioned(payload: bytes, stamp: VersionStamp | None) -> bytes:
    """Prefix ``payload`` with the stamp envelope (live wire format); an
    unversioned value (``stamp`` None) goes out as it came in."""
    if stamp is None:
        return payload
    header = f"{stamp.epoch} {stamp.counter} {stamp.writer} ".encode("ascii")
    return MAGIC + header + payload


def decode_versioned(data: bytes | None) -> tuple[VersionStamp | None, bytes | None]:
    """Split a value into ``(stamp, payload)``.

    Unversioned values (no magic prefix, or an unparsable header) come
    back untouched as ``(None, data)``; ``None`` in, ``(None, None)``
    out — so every read path can decode unconditionally.
    """
    if data is None:
        return None, None
    if not data.startswith(MAGIC):
        return None, data
    rest = data[len(MAGIC):]
    fields = rest.split(b" ", 3)
    if len(fields) != 4:
        return None, data
    try:
        epoch, counter, writer = (int(f) for f in fields[:3])
    except ValueError:
        return None, data
    return VersionStamp(epoch, counter, writer), fields[3]
