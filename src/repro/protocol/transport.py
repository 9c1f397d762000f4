"""The in-process byte transport.

A transport exchanges one request for its complete responses: the
caller passes the number of responses expected, because completeness is
protocol-dependent.  :class:`LoopbackTransport` is a direct in-process
call into a :class:`repro.protocol.memserver.MemcachedServer`, used by
the calibration micro-benchmarks, the examples and the test suite.  The
socket transport with the same ``exchange`` / ``close`` face is
:class:`repro.aio.transport.BlockingConnection`, the blocking side of
the one socket client.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import Response
from repro.protocol.memserver import MemcachedServer


class LoopbackTransport:
    """In-process transport: requests are served synchronously."""

    def __init__(self, server: MemcachedServer):
        self.server = server

    def exchange(self, request: bytes, n_responses: int = 1) -> list[Response]:
        data = self.server.handle(request)
        responses: list[Response] = []
        pos = 0
        for _ in range(n_responses):
            resp, pos = codec.parse_response_at(data, pos)
            responses.append(resp)
        if pos != len(data):
            raise ProtocolError(
                f"unexpected trailing response bytes: {data[pos : pos + 40]!r}"
            )
        return responses

    def close(self) -> None:  # same face as BlockingConnection
        pass
