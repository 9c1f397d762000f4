"""Memcached ASCII protocol subset: parsing and formatting.

Implements the commands RnB needs — ``get``/``gets`` (multi-key),
``set``, ``cas``, ``delete``, ``flush_all``, ``stats``, ``version`` —
with the wire format of the original memcached text protocol:

* commands are CRLF-terminated lines; storage commands are followed by a
  data block of the declared length plus CRLF;
* ``get`` responses are zero or more ``VALUE <key> <flags> <bytes>
  [<cas>]`` blocks terminated by ``END``.

The codec is shared by the server (parse requests, format responses) and
the client (format requests, parse responses), so a round-trip property
test pins the two against each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import ProtocolError

CRLF = b"\r\n"
MAX_KEY_LEN = 250
# controls, DEL and whatever ``str.isspace()`` holds for: servers tokenise command
# lines with ``str.split()``, which splits on every such character (U+00A0, U+2028 ...)
_BAD_KEY_CHAR = re.compile(r"[\x00-\x1f\x7f\s]").search
#: keys of printable ASCII, single spaces between them: what most requests carry
_ASCII_KEY = rf"[!-~]{{1,{MAX_KEY_LEN}}}"
_ASCII_KEY_LINE = re.compile(rf"{_ASCII_KEY}(?: {_ASCII_KEY})*").fullmatch
#: what ``_BAD_KEY_CHAR`` forbids and ``str.split()`` leaves in its tokens
_BAD_TOKEN_CHAR = re.compile(r"[\x00-\x08\x0e-\x1b\x7f]").search
#: a well-formed VALUE header; any other line but ``END`` takes ``parse_response_at``'s
#: general loop
_VALUE_HEADER = re.compile(rb"VALUE ([!-~]+) (\d+) (\d+)(?: (\d+))?\r\n").match
STORAGE_COMMANDS = frozenset({"set", "add", "replace", "append", "prepend", "cas"})
RETRIEVAL_COMMANDS = frozenset({"get", "gets"})
COUNTER_COMMANDS = frozenset({"incr", "decr"})
SIMPLE_COMMANDS = frozenset({"delete", "touch", "flush_all", "stats", "version"})


@dataclass(slots=True)
class Command:
    """One parsed client command."""

    name: str
    keys: tuple[str, ...] = ()
    flags: int = 0
    exptime: int = 0
    data: bytes = b""
    cas: int | None = None
    noreply: bool = False
    delta: int = 0  # incr/decr amount


@dataclass(slots=True)
class Response:
    """One parsed server response.

    ``status`` is the terminal line (``END``, ``STORED`` ...);
    ``values`` maps key -> (flags, data, cas-or-None) for retrievals,
    ``data`` a ``bytes`` sliced once out of the received buffer.
    """

    status: str
    values: dict[str, tuple[int, bytes, int | None]] = field(default_factory=dict)
    stats: dict[str, str] = field(default_factory=dict)


def _validate_key(key: str) -> None:
    if not key or len(key) > MAX_KEY_LEN:
        raise ProtocolError(f"invalid key length: {len(key)}")
    if _BAD_KEY_CHAR(key):
        raise ProtocolError(f"key contains control characters or spaces: {key!r}")


def validate_keys(keys) -> str:
    """``keys`` joined by single spaces, as a retrieval line carries them.

    Raises the first bad key's :class:`ProtocolError`.  The clients call it
    on a request's keys before planning, so that a caller's malformed key
    is the caller's error and never a server's.  One join and one match
    pass a sequence of printable-ASCII keys; only a line with anything else
    in it (a non-ASCII key, a bad one) is checked key by key.
    """
    line = " ".join(keys)
    # a space inside a key passes for a separator: count them
    if _ASCII_KEY_LINE(line) is None or line.count(" ") != len(keys) - 1:
        for key in keys:
            _validate_key(key)
    return line


# ---------------------------------------------------------------------------
# client side: encode commands / parse responses
# ---------------------------------------------------------------------------


def encode_retrieval(name: str, keys) -> bytes:
    """Wire bytes of ``get``/``gets`` (``name``) for ``keys``: what
    :func:`encode_command` does for a retrieval, without the :class:`Command`."""
    if not keys:
        raise ProtocolError(f"{name} needs at least one key")
    return f"{name} {validate_keys(keys)}\r\n".encode()


def encode_command(cmd: Command) -> bytes:
    """Serialise a command to wire bytes."""
    name = cmd.name
    if name in RETRIEVAL_COMMANDS:
        return encode_retrieval(name, cmd.keys)
    if name in STORAGE_COMMANDS:
        if len(cmd.keys) != 1:
            raise ProtocolError(f"{name} takes exactly one key")
        _validate_key(cmd.keys[0])
        parts = [name, cmd.keys[0], str(cmd.flags), str(cmd.exptime), str(len(cmd.data))]
        if name == "cas":
            if cmd.cas is None:
                raise ProtocolError("cas command requires a cas id")
            parts.append(str(cmd.cas))
        if cmd.noreply:
            parts.append("noreply")
        return " ".join(parts).encode() + CRLF + cmd.data + CRLF
    if name == "delete":
        if len(cmd.keys) != 1:
            raise ProtocolError("delete takes exactly one key")
        _validate_key(cmd.keys[0])
        suffix = " noreply" if cmd.noreply else ""
        return f"delete {cmd.keys[0]}{suffix}".encode() + CRLF
    if name == "touch":
        if len(cmd.keys) != 1:
            raise ProtocolError("touch takes exactly one key")
        _validate_key(cmd.keys[0])
        suffix = " noreply" if cmd.noreply else ""
        return f"touch {cmd.keys[0]} {cmd.exptime}{suffix}".encode() + CRLF
    if name in COUNTER_COMMANDS:
        if len(cmd.keys) != 1:
            raise ProtocolError(f"{name} takes exactly one key")
        _validate_key(cmd.keys[0])
        if cmd.delta < 0:
            raise ProtocolError(f"{name} delta must be non-negative")
        suffix = " noreply" if cmd.noreply else ""
        return f"{name} {cmd.keys[0]} {cmd.delta}{suffix}".encode() + CRLF
    if name == "stats":
        if len(cmd.keys) > 1:
            raise ProtocolError("stats takes at most one argument")
        arg = f" {cmd.keys[0]}" if cmd.keys else ""
        return f"stats{arg}".encode() + CRLF
    if name in ("flush_all", "version"):
        return name.encode() + CRLF
    raise ProtocolError(f"unknown command {name!r}")


_TERMINAL_TOKENS = frozenset(
    {
        "END",
        "STORED",
        "NOT_STORED",
        "EXISTS",
        "NOT_FOUND",
        "DELETED",
        "TOUCHED",
        "OK",
        "ERROR",
        "VERSION",
        "CLIENT_ERROR",
        "SERVER_ERROR",
    }
)


def parse_response_at(data: bytes, pos: int = 0) -> tuple[Response, int]:
    """Parse one complete response from ``data`` starting at offset ``pos``.

    Returns ``(response, end_offset)``.  This is the offset-based core
    both :func:`parse_response` and :class:`FrameBuffer` share: it never
    re-slices the unconsumed tail, so parsing a pipelined buffer is
    linear in its length instead of quadratic.  Each VALUE payload is
    one ``bytes`` slice of ``data``, the only copy the client makes of it.
    """
    values: dict[str, tuple[int, bytes, int | None]] = {}
    stats: dict[str, str] = {}
    n_data = len(data)
    while True:
        # fast path: one match takes a well-formed VALUE header apart; any other
        # line but END, malformed ones included, goes through the general parse below
        header = _VALUE_HEADER(data, pos)
        if header is not None:
            key, flags, nbytes, cas = header.groups()
            key, flags, nbytes = key.decode(), int(flags), int(nbytes)
            cas = None if cas is None else int(cas)
            line_end = header.end()
        elif data.startswith(b"END\r\n", pos):  # what every retrieval ends with
            return Response(status="END", values=values, stats=stats), pos + 5
        else:
            eol = data.find(CRLF, pos)
            if eol < 0:
                raise IncompleteResponse("response line incomplete")
            text = data[pos:eol].decode("utf-8", errors="replace")
            token = text.split(" ", 1)[0]
            line_end = eol + 2
            if token == "STAT":
                parts = text.split(" ", 2)
                if len(parts) != 3:
                    raise ProtocolError(f"malformed STAT line: {text!r}")
                stats[parts[1]] = parts[2]
                pos = line_end
                continue
            if token.isdigit():
                # incr/decr reply: the new counter value as a bare number
                return Response(status=text, values=values, stats=stats), line_end
            if token in _TERMINAL_TOKENS:
                status = text if token in ("CLIENT_ERROR", "SERVER_ERROR", "VERSION") else token
                return Response(status=status, values=values, stats=stats), line_end
            if token != "VALUE":
                raise ProtocolError(f"unexpected response line: {text!r}")
            parts = text.split()
            if len(parts) not in (4, 5):
                raise ProtocolError(f"malformed VALUE line: {text!r}")
            key, flags, nbytes = parts[1], int(parts[2]), int(parts[3])
            cas = int(parts[4]) if len(parts) == 5 else None
            if nbytes < 0:  # or the header's own CRLF passes for the data terminator
                raise ProtocolError(f"malformed VALUE line: {text!r}")
        body_end = line_end + nbytes
        if n_data < body_end + 2:
            raise IncompleteResponse("value data incomplete")
        if not data.startswith(CRLF, body_end):
            raise ProtocolError("value data not CRLF-terminated")
        values[key] = (flags, data[line_end:body_end], cas)
        pos = body_end + 2


def parse_response(data: bytes) -> tuple[Response, bytes]:
    """Parse one complete response from a byte buffer.

    Returns (response, remaining bytes).  Raises ``ProtocolError`` on
    malformed input and ``IncompleteResponse`` (a ``ProtocolError``
    subclass via ``need_more``) when more bytes are required.
    """
    resp, end = parse_response_at(bytes(data), 0)
    return resp, data[end:]


class IncompleteResponse(ProtocolError):
    """More bytes are needed to complete parsing."""


class FrameBuffer:
    """Incremental response framing.

    Transports feed raw socket chunks in; :meth:`next_response` parses
    out one complete response at a time, returning ``None`` when more
    bytes are needed.  Internally the unconsumed bytes are tracked as an
    (immutable snapshot, offset) pair plus a list of not-yet-joined
    chunks, so pipelined response streams parse with one join per read
    instead of one whole-buffer copy per value block.  VALUE payloads
    are ``bytes`` sliced out of the snapshot, so none of them keeps it alive.
    """

    __slots__ = ("_data", "_pos", "_chunks")

    def __init__(self) -> None:
        self._data = b""
        self._pos = 0
        self._chunks: list[bytes] = []

    def feed(self, chunk: bytes) -> None:
        """Append raw received bytes (joined lazily on next parse)."""
        if chunk:
            self._chunks.append(bytes(chunk))

    def __len__(self) -> int:
        return (len(self._data) - self._pos) + sum(len(c) for c in self._chunks)

    def peek(self, n: int) -> bytes:
        """Up to ``n`` unconsumed bytes (for error messages)."""
        self._consolidate()
        return self._data[self._pos : self._pos + n]

    def clear(self) -> None:
        self._data = b""
        self._pos = 0
        self._chunks.clear()

    def _consolidate(self) -> None:
        if not self._chunks:
            return
        tail = self._data[self._pos :]
        if tail:
            self._data = tail + b"".join(self._chunks)
        elif len(self._chunks) == 1:
            self._data = self._chunks[0]
        else:
            self._data = b"".join(self._chunks)
        self._pos = 0
        self._chunks.clear()

    def next_response(self) -> Response | None:
        """Parse one response if complete, else ``None``."""
        self._consolidate()
        try:
            resp, end = parse_response_at(self._data, self._pos)
        except IncompleteResponse:
            return None
        self._pos = end
        return resp


# ---------------------------------------------------------------------------
# server side: parse commands / format responses
# ---------------------------------------------------------------------------


def parse_command_stream(data: bytes) -> tuple[list[Command], bytes]:
    """Parse as many complete (possibly pipelined) commands as available.

    Returns (commands, unconsumed tail).
    """
    commands: list[Command] = []
    pos = 0
    n_data = len(data)
    while True:
        eol = data.find(CRLF, pos)
        if eol < 0:
            return commands, data[pos:]
        text = data[pos:eol].decode("utf-8", errors="replace")
        line_end = eol + 2
        if not text.strip():
            pos = line_end
            continue
        parts = text.split()
        name = parts[0]
        if name in RETRIEVAL_COMMANDS:
            keys = tuple(parts[1:])
            if not keys:
                raise ProtocolError(f"{name} without keys")
            # split() left no whitespace in the keys: one search of the line for
            # the rest, one length check (no key is longer than its line); a call
            # per key only to raise its error
            if _BAD_TOKEN_CHAR(text) or (
                len(text) > MAX_KEY_LEN and len(max(keys, key=len)) > MAX_KEY_LEN
            ):
                for k in keys:
                    _validate_key(k)
            commands.append(Command(name=name, keys=keys))
            pos = line_end
            continue
        if name in STORAGE_COMMANDS:
            want = 6 if name == "cas" else 5
            noreply = parts[-1] == "noreply"
            body = parts[: want + (1 if noreply else 0)]
            if len(parts) != len(body) or len(parts) < want:
                raise ProtocolError(f"malformed {name} command: {text!r}")
            key = parts[1]
            _validate_key(key)
            flags, exptime, nbytes = int(parts[2]), int(parts[3]), int(parts[4])
            cas = int(parts[5]) if name == "cas" else None
            if nbytes < 0:
                raise ProtocolError("negative data length")
            body_end = line_end + nbytes
            if n_data < body_end + 2:
                return commands, data[pos:]  # wait for the data block
            if data[body_end : body_end + 2] != CRLF:
                raise ProtocolError("storage data not CRLF-terminated")
            # data blocks stay bytes copies: the server stores them past
            # the lifetime of this receive buffer
            commands.append(
                Command(
                    name=name,
                    keys=(key,),
                    flags=flags,
                    exptime=exptime,
                    data=data[line_end:body_end],
                    cas=cas,
                    noreply=noreply,
                )
            )
            pos = body_end + 2
            continue
        if name == "delete":
            if len(parts) < 2:
                raise ProtocolError("delete without key")
            _validate_key(parts[1])
            commands.append(
                Command(name="delete", keys=(parts[1],), noreply=parts[-1] == "noreply")
            )
            pos = line_end
            continue
        if name == "touch":
            if len(parts) < 3:
                raise ProtocolError("touch needs a key and an exptime")
            _validate_key(parts[1])
            commands.append(
                Command(
                    name="touch",
                    keys=(parts[1],),
                    exptime=int(parts[2]),
                    noreply=parts[-1] == "noreply",
                )
            )
            pos = line_end
            continue
        if name in COUNTER_COMMANDS:
            if len(parts) < 3:
                raise ProtocolError(f"{name} needs a key and a delta")
            _validate_key(parts[1])
            delta = int(parts[2])
            if delta < 0:
                raise ProtocolError(f"{name} delta must be non-negative")
            commands.append(
                Command(
                    name=name,
                    keys=(parts[1],),
                    delta=delta,
                    noreply=parts[-1] == "noreply",
                )
            )
            pos = line_end
            continue
        if name == "stats":
            # `stats [<arg>]` — real memcached takes an optional argument
            # selecting a sub-report; `stats metrics` is the RnB
            # Prometheus-text surface (docs/OBSERVABILITY.md)
            if len(parts) > 2:
                raise ProtocolError(f"stats takes at most one argument: {text!r}")
            commands.append(Command(name="stats", keys=tuple(parts[1:])))
            pos = line_end
            continue
        if name in ("flush_all", "version"):
            commands.append(Command(name=name))
            pos = line_end
            continue
        raise ProtocolError(f"unknown command: {text!r}")


class CommandBuffer:
    """Incremental command framing for the server fronts (:class:`FrameBuffer`'s twin).

    ``feed`` takes socket chunks as they arrive, ``commands`` returns the commands
    they complete.  A storage command whose data block is still arriving is not
    parsed again before the block is there: *k* chunks, one join, one parse.
    """

    __slots__ = ("_chunks", "_missing")

    def __init__(self) -> None:
        self._chunks: list[bytes] = []
        self._missing = 0  # bytes the next command still needs before a parse can complete it

    def feed(self, data: bytes) -> None:
        self._chunks.append(data)
        self._missing -= len(data)

    def commands(self) -> list[Command]:
        if self._missing > 0:
            return []
        commands, tail = parse_command_stream(b"".join(self._chunks))
        self._chunks = [tail] if tail else []  # a lone chunk is parsed as it is, uncopied
        eol = tail.find(CRLF)
        if eol < 0:
            self._missing = 1  # the rest of a line: the next byte may end it
        else:  # a whole line left over: a storage command waiting for its data block
            nbytes = int(tail[:eol].decode("utf-8", errors="replace").split()[4])
            self._missing = eol + 2 + nbytes + 2 - len(tail)
        return commands


def format_status(status: str) -> bytes:
    return status.encode() + CRLF


def format_stats(stats: dict[str, object]) -> bytes:
    out = bytearray()
    for k, v in stats.items():
        out += f"STAT {k} {v}".encode() + CRLF
    out += b"END" + CRLF
    return bytes(out)
