"""Reference implementations: the read path as it was before it became one
pass per transaction (docs/PERFORMANCE.md, "PR 19").

Copied from the parent commit, kept only under ``tests/``: the VALUE
formatter, the response parser, the retrieval branch of the command
parser and the server's ``get`` loop, each one Python-level call (or
several) per key.  ``test_oracles.py`` holds the rewrites to them —
same result or same exception class, byte-identical replies.
"""

from __future__ import annotations

import re

from repro.errors import ProtocolError
from repro.protocol.codec import (
    CRLF,
    MAX_KEY_LEN,
    RETRIEVAL_COMMANDS,
    Command,
    IncompleteResponse,
    Response,
    _TERMINAL_TOKENS,
)
from repro.protocol.memserver import MemcachedServer

_BAD_KEY_CHAR = re.compile(r"[\x00-\x20\x7f]").search


class NotRetrieval(Exception):
    """The line is another command's: those branches were not rewritten."""


class NegativeLength(Exception):
    """A VALUE header declared a negative ``<bytes>``.  The parent parsed on from
    ``line_end + nbytes`` (backwards: ``VALUE k 0 -2`` took its own CRLF for the data
    terminator, and a length reaching back to the previous response's CRLF never
    returned); the one place the rewrite differs on purpose: it raises ProtocolError."""


def validate_key(key: str) -> None:
    if not key or len(key) > MAX_KEY_LEN:
        raise ProtocolError(f"invalid key length: {len(key)}")
    if _BAD_KEY_CHAR(key):
        raise ProtocolError(f"key contains control characters or spaces: {key!r}")


def format_values(items: list[tuple[str, int, bytes, int | None]], with_cas: bool) -> bytes:
    """Format a retrieval response (VALUE blocks + END)."""
    out = bytearray()
    for key, flags, payload, cas in items:
        header = f"VALUE {key} {flags} {len(payload)}"
        if with_cas:
            header += f" {cas}"
        out += header.encode() + CRLF + payload + CRLF
    out += b"END" + CRLF
    return bytes(out)


def parse_response_at(data: bytes, pos: int = 0) -> tuple[Response, int]:
    values: dict[str, tuple[int, bytes, int | None]] = {}
    stats: dict[str, str] = {}
    n_data = len(data)
    while True:
        eol = data.find(CRLF, pos)
        if eol < 0:
            raise IncompleteResponse("response line incomplete")
        text = data[pos:eol].decode("utf-8", errors="replace")
        token = text.split(" ", 1)[0]
        line_end = eol + 2
        if token == "VALUE":
            parts = text.split()
            if len(parts) not in (4, 5):
                raise ProtocolError(f"malformed VALUE line: {text!r}")
            key, flags, nbytes = parts[1], int(parts[2]), int(parts[3])
            cas = int(parts[4]) if len(parts) == 5 else None
            if nbytes < 0:
                raise NegativeLength(text)
            body_end = line_end + nbytes
            if n_data < body_end + 2:
                raise IncompleteResponse("value data incomplete")
            if data[body_end : body_end + 2] != CRLF:
                raise ProtocolError("value data not CRLF-terminated")
            values[key] = (flags, data[line_end:body_end], cas)
            pos = body_end + 2
            continue
        if token == "STAT":
            parts = text.split(" ", 2)
            if len(parts) != 3:
                raise ProtocolError(f"malformed STAT line: {text!r}")
            stats[parts[1]] = parts[2]
            pos = line_end
            continue
        if token.isdigit():
            return Response(status=text, values=values, stats=stats), line_end
        if token in _TERMINAL_TOKENS:
            status = text if token in ("CLIENT_ERROR", "SERVER_ERROR", "VERSION") else token
            return Response(status=status, values=values, stats=stats), line_end
        raise ProtocolError(f"unexpected response line: {text!r}")


def parse_retrieval_stream(data: bytes) -> tuple[list[Command], bytes]:
    """``parse_command_stream`` for a stream of ``get``/``gets`` lines."""
    commands: list[Command] = []
    pos = 0
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
        if name not in RETRIEVAL_COMMANDS:
            raise NotRetrieval(name)
        keys = tuple(parts[1:])
        if not keys:
            raise ProtocolError(f"{name} without keys")
        for k in keys:
            validate_key(k)
        commands.append(Command(name=name, keys=keys))
        pos = line_end


def execute_get(server: MemcachedServer, cmd: Command) -> bytes:
    """What ``server.execute(cmd)`` did for ``get``/``gets`` (no admission gate)."""
    with server._lock:
        server.stats["total_transactions"] += 1
        server.stats["cmd_get"] += 1
        found: list[tuple[str, int, bytes, int | None]] = []
        for key in cmd.keys:
            entry = server._get_live(key)
            if entry is None:
                server.stats["get_misses"] += 1
                continue
            server._items.move_to_end(key)
            server.stats["get_hits"] += 1
            found.append((key, entry.flags, entry.data, entry.cas))
        return format_values(found, with_cas=(cmd.name == "gets"))
