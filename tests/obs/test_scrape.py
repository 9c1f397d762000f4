"""Fleet scraping over real loopback TCP: the `rnb stats` client side."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.cli import main
from repro.errors import ProtocolError
from repro.obs.export import CORE_REQUEST_FAMILIES, family_of
from repro.obs.scrape import (
    boot_demo_fleet,
    merged_fleet_samples,
    missing_families,
    parse_address,
    scrape_fleet,
)


class TestParseAddress:
    def test_forms(self):
        assert parse_address("10.0.0.1:1121") == ("10.0.0.1", 1121)
        assert parse_address("11211") == ("127.0.0.1", 11211)
        assert parse_address(":11211") == ("127.0.0.1", 11211)

    def test_invalid(self):
        with pytest.raises(ProtocolError):
            parse_address("host:port:extra:words")
        with pytest.raises(ProtocolError):
            parse_address("no-port-at-all")


class TestFleetScrape:
    @pytest.fixture(scope="class")
    def fleet(self):
        addresses, handles, registry = boot_demo_fleet(
            n_servers=2, n_items=40, seed=3
        )
        yield addresses, registry
        for handle in handles:
            handle.stop()

    def test_scrape_covers_core_families(self, fleet):
        addresses, _registry = fleet
        per_server = scrape_fleet(addresses)
        assert set(per_server) == set(addresses)
        merged = merged_fleet_samples(per_server)
        assert missing_families(merged) == []
        assert missing_families(merged, required=CORE_REQUEST_FAMILIES) == []

    def test_cache_stats_join_the_catalog(self, fleet):
        addresses, _registry = fleet
        merged = merged_fleet_samples(scrape_fleet(addresses))
        cache = [s for s in merged if s.startswith("rnb_cache_cmd_get_total")]
        assert cache, "per-server cache counters missing from scrape"

    def test_missing_families_reports_gaps(self, fleet):
        addresses, _registry = fleet
        one = scrape_fleet(addresses[:1])[addresses[0]]
        only_cache = {k: v for k, v in one.items() if k.startswith("rnb_cache_")}
        gaps = missing_families(only_cache)
        assert "rnb_requests_total" in gaps

    def test_registry_agrees_with_the_wire(self, fleet):
        # what the shared registry says locally must be what every
        # server ships over TCP (they serve the same samples)
        from repro.obs.export import samples

        addresses, registry = fleet
        local = {k: v for k, v in samples(registry) if k.endswith("_total")}
        wire = scrape_fleet(addresses[:1])[addresses[0]]
        for name, value in local.items():
            assert wire[name] == value

    def test_demo_client_closes_its_sockets(self):
        # the fleet stays up; only the demo's own client connections must go
        addresses, handles, _registry = boot_demo_fleet(n_servers=2, n_items=20, seed=1)
        try:
            fronts = [handle.server for handle in handles]
            deadline = time.monotonic() + 2.0
            while any(front._transports for front in fronts) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not any(front._transports for front in fronts)
        finally:
            for handle in handles:
                handle.stop()


@pytest.fixture()
def dead_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestStatsCommand:
    """``rnb stats`` through :func:`repro.cli.main`."""

    def test_boot_demo_names_every_core_family(self, capsys):
        assert main(["stats", "--boot-demo", "--require", "--format", "json"]) == 0
        merged = json.loads(capsys.readouterr().out)
        assert set(CORE_REQUEST_FAMILIES) <= {family_of(name) for name in merged}

    def test_dead_port_fails_cleanly(self, capsys, dead_port):
        assert main(["stats", f"127.0.0.1:{dead_port}"]) == 1
        err = capsys.readouterr().err
        assert "scrape failed" in err
        assert "Traceback" not in err

    def test_mute_server_times_out(self, capsys):
        with socket.socket() as listener:  # accepts (in the kernel), never answers
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            host, port = listener.getsockname()
            start = time.monotonic()
            assert main(["stats", f"{host}:{port}", "--timeout", "0.3"]) == 1
            assert time.monotonic() - start < 5.0
        err = capsys.readouterr().err
        assert "scrape failed" in err
        assert "Traceback" not in err
