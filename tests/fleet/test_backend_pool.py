"""A fleet backend's pooled keep-alive connections, over real sockets."""

from __future__ import annotations

import json

import pytest

from repro.api.httpd import AsyncHttpServer, HttpResponse
from repro.fleet.balancer import Backend


class Handler:
    """Echoes method, path and headers; ``/close`` closes the
    connection after its reply."""

    def handle(self, request):
        return HttpResponse.json(200, {
            "method": request.method, "path": request.path,
            "headers": request.headers,
        }, close=request.path == "/close")


@pytest.fixture()
def backend():
    server = AsyncHttpServer(Handler(), workers=2)
    server.start()
    node = Backend("r1", f"http://{server.host}:{server.port}",
                   "replica", timeout=7.0)
    yield node
    node.close()
    server.stop()


class TestBackendPool:
    def test_reuses_its_pooled_connection(self, backend):
        status, _ = backend.exchange("GET", "/v1/describe", None)
        assert status == 200
        [pooled] = backend._pool
        backend.exchange("POST", "/v1/query", b"{}")
        assert backend._pool == [pooled]

    def test_per_call_timeout_is_restored(self, backend):
        backend.exchange("GET", "/v1/describe", None, timeout=0.5)
        [pooled] = backend._pool
        assert pooled.sock.gettimeout() == 7.0
        backend.exchange("GET", "/v1/describe", None, timeout=0.25)
        assert backend._pool == [pooled]
        assert pooled.sock.gettimeout() == 7.0

    def test_connection_close_reply_is_not_pooled(self, backend):
        backend.exchange("GET", "/v1/describe", None)
        [pooled] = backend._pool
        status, _ = backend.exchange("GET", "/close", None)
        assert status == 200
        assert backend._pool == [] and pooled.sock is None

    def test_forwarded_headers_override_the_defaults_once(self, backend):
        _, payload = backend.exchange(
            "POST", "/v1/query", b"{}",
            {"accept": "text/plain", "x-repro-session": "s-1"})
        headers = json.loads(payload)["headers"]
        assert headers["accept"] == "text/plain"
        assert headers["content-type"] == "application/json"
        assert headers["content-length"] == "2"
        assert headers["x-repro-session"] == "s-1"
