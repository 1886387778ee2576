"""Shared programs and helpers for the service-layer tests.

No pytest-asyncio in the toolchain: every async test drives its own
event loop via ``asyncio.run`` inside a plain synchronous test.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.netcache import NetworkCache
from repro.serve.protocol import MAX_LINE_BYTES, decode_line, encode

#: A bounded counter: ticks until n reaches limit, then halts.
COUNTER = """
(literalize counter n limit)
(p tick
  (counter ^n <n> ^limit > <n>)
  -->
  (modify 1 ^n (compute <n> + 1))
  (write tick <n>))
(p done
  (counter ^n <n> ^limit <n>)
  -->
  (write done <n>)
  (halt))
"""

#: An endless spinner (never halts, never quiesces) for budget and
#: deadline tests.
SPINNER = """
(literalize spin n)
(p spin
  (spin ^n <n>)
  -->
  (modify 1 ^n (compute <n> + 1)))
"""


@pytest.fixture
def cache():
    return NetworkCache()


@pytest.fixture
def counter_entry(cache):
    entry, _cached = cache.get(COUNTER)
    return entry


@pytest.fixture
def spinner_entry(cache):
    entry, _cached = cache.get(SPINNER)
    return entry


async def request(reader, writer, msg):
    """One request/response round-trip on a raw stream pair."""
    writer.write(encode(msg))
    await writer.drain()
    line = await reader.readline()
    assert line, "server closed the connection"
    return decode_line(line)


def with_server(coro_fn, limits=None):
    """Run ``coro_fn(server, reader, writer)`` against a fresh server
    on an ephemeral port, with guaranteed shutdown."""
    from repro.serve.server import ReproServer

    async def runner():
        server = ReproServer(limits=limits)
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port, limit=MAX_LINE_BYTES)
        try:
            return await coro_fn(server, reader, writer)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            await server.shutdown()

    return asyncio.run(runner())
