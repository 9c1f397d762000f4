"""Split connect/read timeouts on TCPTransport and their precedence."""

from __future__ import annotations

import pytest

from repro.aio.server import serve_aio
from repro.protocol.memserver import MemcachedServer
from repro.protocol.retry import RetryPolicy
from repro.protocol.transport import TCPTransport


@pytest.fixture()
def live_server():
    backend = MemcachedServer()
    handle, (host, port) = serve_aio(backend)
    yield host, port
    handle.stop()


class TestTimeoutPrecedence:
    def test_policy_is_the_default_source(self, live_server):
        host, port = live_server
        policy = RetryPolicy(connect_timeout=3.5, request_timeout=7.5)
        t = TCPTransport(host, port, policy=policy)
        try:
            assert t.connect_timeout == 3.5
            assert t.read_timeout == 7.5
        finally:
            t.close()

    def test_legacy_timeout_overrides_both(self, live_server):
        host, port = live_server
        policy = RetryPolicy(connect_timeout=3.5, request_timeout=7.5)
        t = TCPTransport(host, port, policy=policy, timeout=1.25)
        try:
            assert t.connect_timeout == 1.25
            assert t.read_timeout == 1.25
        finally:
            t.close()

    def test_per_phase_kwargs_beat_legacy(self, live_server):
        host, port = live_server
        t = TCPTransport(
            host, port, timeout=9.0, connect_timeout=0.5, read_timeout=2.0
        )
        try:
            assert t.connect_timeout == 0.5
            assert t.read_timeout == 2.0
        finally:
            t.close()

    def test_one_phase_overridden_other_from_legacy(self, live_server):
        host, port = live_server
        t = TCPTransport(host, port, timeout=9.0, connect_timeout=0.5)
        try:
            assert t.connect_timeout == 0.5
            assert t.read_timeout == 9.0
        finally:
            t.close()

    def test_socket_read_timeout_applied(self, live_server):
        host, port = live_server
        t = TCPTransport(host, port, read_timeout=2.5)
        try:
            assert t._sock.gettimeout() == 2.5
        finally:
            t.close()
