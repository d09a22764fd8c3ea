"""FleetQueryServer: queries answered while ingest continues."""

import asyncio
import json

import pytest

from repro.fleet import FleetPipeline, FleetQueryServer, api
from repro.ttkv.store import TTKV
from repro.workload.machines import profile_by_name
from repro.workload.tracegen import generate_trace

_PREFIXES = ("mail/", "edit/")


async def _get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)


async def _request(host, port, raw_request):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw_request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw


def _small_fleet():
    fleet = FleetPipeline()
    events = {}
    for index in range(2):
        machine_id = f"m{index}"
        trace = generate_trace(
            profile_by_name("Linux-1"), days=1, seed=31 + index
        )
        events[machine_id] = trace.ttkv.write_events()
        fleet.add_machine(
            machine_id,
            TTKV(),
            tuple(app.key_prefix for app in trace.apps.values()),
        )
    return fleet, events


def test_clusters_answered_during_live_ingest():
    """The acceptance integration: GET /clusters succeeds mid-drive.

    The driver streams many small chunks; between rounds the event loop
    serves queries.  Every response observed while ingest is running
    must be a 200 with a coherent payload, and the cluster count must be
    non-decreasing as evidence accumulates on a grow-only trace replay.
    """
    fleet, events = _small_fleet()
    feeds = {
        machine_id: [
            machine_events[start : start + 20]
            for start in range(0, len(machine_events), 20)
        ]
        for machine_id, machine_events in events.items()
    }
    responses = []

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            host, port = server.address
            stop = asyncio.Event()

            async def poll():
                while not stop.is_set():
                    responses.append(await _get(host, port, "/clusters"))
                    await asyncio.sleep(0)

            poller = asyncio.create_task(poll())
            await fleet.drive(feeds)
            stop.set()
            await poller
            return await _get(host, port, "/clusters")

    status, final = asyncio.run(scenario())
    assert status == 200
    assert len(responses) > 2, "no queries landed during ingest"
    assert all(s == 200 for s, _ in responses)
    counts = [payload["count"] for _, payload in responses]
    assert counts == sorted(counts)
    # the final payload is the driver's final merged model
    assert final["count"] == len(fleet.clusters())
    assert final["clusters"] == [
        cluster.sorted_keys() for cluster in fleet.clusters()
    ]
    assert final["machines"] == 2
    fleet.close()


def test_machine_status_and_health_routes():
    fleet, events = _small_fleet()

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            host, port = server.address
            await fleet.drive(
                {m: [machine_events] for m, machine_events in events.items()}
            )
            return {
                "status_m0": await _get(host, port, "/machines/m0/status"),
                "status_ghost": await _get(
                    host, port, "/machines/ghost/status"
                ),
                "health": await _get(host, port, "/health"),
                "missing": await _get(host, port, "/nope"),
            }

    results = asyncio.run(scenario())
    status, payload = results["status_m0"]
    assert status == 200
    assert payload["machine"] == "m0"
    assert payload["pending_events"] == 0
    assert payload["needs_update"] is False
    assert payload["clusters"] > 0
    assert results["status_ghost"][0] == 404
    status, health = results["health"]
    assert status == 200
    assert health["status"] == "ok"
    assert health["machines"] == 2
    assert health["rounds"] == fleet.rounds
    assert health["clusters"] == len(fleet.clusters())
    assert results["missing"][0] == 404
    fleet.close()


def test_non_get_methods_and_garbage_rejected():
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            host, port = server.address
            post = await _request(
                host,
                port,
                b"POST /clusters HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 0\r\n\r\n",
            )
            garbage = await _request(host, port, b"\r\n")
            return post, garbage

    post, garbage = asyncio.run(scenario())
    assert post.startswith(b"HTTP/1.1 405 ")
    assert garbage.startswith(b"HTTP/1.1 400 ")
    fleet.close()


def _serve_one(raw_request):
    """Send ``raw_request`` to a fresh server; the raw response bytes."""
    fleet = FleetPipeline()

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            return await asyncio.wait_for(_request(*server.address, raw_request), 5)

    try:
        return asyncio.run(scenario())
    finally:
        fleet.close()


def test_oversized_request_line_answered_400():
    raw = _serve_one(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
    assert raw.startswith(b"HTTP/1.1 400 ")
    assert b"longer than" in raw


def test_too_many_headers_answered_400():
    headers = b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(500))
    raw = _serve_one(b"GET /health HTTP/1.1\r\n" + headers + b"\r\n")
    assert raw.startswith(b"HTTP/1.1 400 ")
    assert b"header lines" in raw


def test_silent_and_trickling_clients_answered_408(monkeypatch):
    monkeypatch.setattr(api, "READ_TIMEOUT", 0.3, raising=False)
    fleet = FleetPipeline()

    async def trickle(host, port):
        # one header every 50 ms, never the blank line that ends them
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"GET /health HTTP/1.1\r\n")
        response = asyncio.ensure_future(reader.read())
        count = 0
        while not response.done():
            writer.write(b"X-Trickle-%d: 1\r\n" % count)
            count += 1
            await asyncio.sleep(0.05)
        writer.close()
        return await response

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            host, port = server.address
            return await asyncio.wait_for(
                asyncio.gather(_request(host, port, b""), trickle(host, port)), 5
            )

    silent, trickled = asyncio.run(scenario())
    fleet.close()
    assert silent.startswith(b"HTTP/1.1 408 ")
    assert trickled.startswith(b"HTTP/1.1 408 ")


def test_connections_over_the_cap_answered_503(monkeypatch):
    monkeypatch.setattr(api, "MAX_CONNECTIONS", 2, raising=False)
    fleet = FleetPipeline()

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            host, port = server.address
            # two idle clients hold every slot, each in its read timeout
            idle = [await asyncio.open_connection(host, port) for _ in range(2)]
            await asyncio.sleep(0.1)  # let the server start both handlers
            # the third sends nothing: only the cap can answer it in time
            reader, writer = await asyncio.open_connection(host, port)
            over = await asyncio.wait_for(reader.read(), 2)
            writer.close()
            for idle_reader, idle_writer in idle:
                idle_writer.write_eof()
                await asyncio.wait_for(idle_reader.read(), 2)  # their 400
                idle_writer.close()
            return over, await asyncio.wait_for(_get(host, port, "/health"), 2)

    over, (status, payload) = asyncio.run(scenario())
    fleet.close()
    assert over.startswith(b"HTTP/1.1 503 Service Unavailable")
    assert b"connections in flight" in over
    assert status == 200
    assert payload["status"] == "ok"


def test_query_string_is_ignored_and_address_requires_start():
    fleet = FleetPipeline()
    fleet.add_machine("m0", TTKV(), _PREFIXES)
    server = FleetQueryServer(fleet)
    with pytest.raises(RuntimeError, match="not started"):
        server.address

    async def scenario():
        async with FleetQueryServer(fleet) as live:
            host, port = live.address
            return await _get(host, port, "/health?verbose=1")

    status, payload = asyncio.run(scenario())
    assert status == 200
    assert payload["status"] == "ok"
    fleet.close()


def test_machines_listing_and_supervised_health_routes():
    """GET /machines lists the fleet; /health carries supervision state."""
    from repro.fleet.resilience import (
        POINT_UPDATE_CRASH,
        FaultInjector,
        FaultSpec,
        FleetResilience,
        ResilienceConfig,
        ScheduledFault,
    )

    fleet, events = _small_fleet()
    resilience = FleetResilience(
        injector=FaultInjector(
            FaultSpec(
                seed=3,
                scheduled=(
                    ScheduledFault(
                        round_index=1,
                        machine_id="m0",
                        point=POINT_UPDATE_CRASH,
                    ),
                ),
            )
        ),
        config=ResilienceConfig(failure_threshold=1),
    )

    async def scenario():
        async with FleetQueryServer(fleet) as server:
            host, port = server.address
            await fleet.drive(
                {m: [machine_events] for m, machine_events in events.items()},
                resilience=resilience,
            )
            return {
                "machines": await _get(host, port, "/machines"),
                "status_m0": await _get(host, port, "/machines/m0/status"),
                "health": await _get(host, port, "/health"),
            }

    results = asyncio.run(scenario())
    status, listing = results["machines"]
    assert status == 200
    assert listing["count"] == 2
    assert [entry["machine"] for entry in listing["machines"]] == ["m0", "m1"]
    assert all("health" in entry for entry in listing["machines"])
    status, payload = results["status_m0"]
    assert status == 200
    assert payload["supervision"]["restarts"] >= 1
    status, health = results["health"]
    assert status == 200
    assert health["resilience"]["restarts"] >= 1
    assert health["resilience"]["faults_injected"] == 1
    fleet.close()
