"""A stdlib JSON/HTTP gateway speaking the v1 protocol.

:class:`HttpGateway` exposes one
:class:`~repro.api.endpoint.ProtocolEndpoint` over an
:class:`~repro.api.httpd.AsyncHttpServer` — a selectors-based
event-loop front end that holds hundreds of concurrent connections on
one thread while a bounded worker pool executes the handlers (the
stdlib ``ThreadingHTTPServer`` it replaced spent one thread per
connection and had no admission control):

* ``POST /v1/query`` — a :class:`~repro.api.protocol.QueryRequest`
  (fresh query or cursor continuation); batches ride the same route as
  ``{"batch": [request, ...]}`` → ``{"responses": [...]}``;
* ``POST /v1/releases`` — a declarative
  :class:`~repro.api.protocol.ReleaseRequest`;
* ``GET /v1/describe`` — ontology statistics + serving-layer state;
* ``GET /v1/journal`` — the change feed replicas tail;
* ``GET /healthz`` — liveness: ``{"status": "ok", "epoch": N}``.

The gateway owns no logic: requests are decoded with the protocol
codecs, handed to the same endpoint object the in-process transport
uses — same epoch lock, same scan cache, same cursor store — and the
response dict is the exact ``to_dict()`` the in-process path would
produce (the parity property). HTTP statuses derive from the error
taxonomy (:func:`~repro.api.protocol.http_status_of`); every reply is a
JSON object. When the admission queue overflows, requests are shed with
``429 overloaded`` instead of queueing without bound.

Run a demo gateway over the SUPERSEDE scenario::

    PYTHONPATH=src python -m repro.api --port 8799
"""

from __future__ import annotations

import json
import urllib.parse
from typing import Any

from repro.errors import MalformedRequestError
from repro.api.endpoint import ProtocolEndpoint
from repro.api.httpd import (
    AsyncHttpServer, EncodedJSON, HttpRequest, HttpResponse,
    error_payload,
)
from repro.api.protocol import (
    ErrorInfo, QueryRequest, QueryResponse, ReleaseRequest,
    http_status_of,
)

__all__ = ["HttpGateway"]

#: request bodies above this are rejected (a malformed-client guard,
#: not a security boundary — the gateway is an internal service door)
MAX_BODY_BYTES = 8 * 1024 * 1024


def _status_of(response: Any) -> int:
    if response.error is None:
        return 200
    return http_status_of(response.error.code)


def query_reply(response: QueryResponse) -> HttpResponse:
    """The HTTP reply of one query response.

    A full answer left on its relation (``handle_query(...,
    materialize=False)``) takes its ``rows`` from
    :meth:`Relation.rows_json <repro.relational.rows.Relation.rows_json>`,
    which encodes a plan answer from its columns and a reused answer's
    stored bytes as they are. The encoding runs inside
    :meth:`HttpResponse.json`, and the body is the same bytes as
    encoding ``to_dict()`` with the relation's rows in place.
    """
    envelope = response.to_dict()
    relation = response.relation
    if response.rows is None and relation is not None:
        envelope["rows"] = EncodedJSON(relation.rows_json)
    return HttpResponse.json(_status_of(response), envelope)


class _GatewayRoutes:
    """Route table + JSON plumbing; all semantics live in the endpoint."""

    def __init__(self, endpoint: ProtocolEndpoint,
                 verbose: bool = False) -> None:
        self.endpoint = endpoint
        self.verbose = verbose

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        if self.verbose:  # pragma: no cover - debugging aid
            print(f"{request.method} {request.path}", flush=True)
        if request.method == "GET":
            return self._handle_get(request)
        if request.method == "POST":
            return self._handle_post(request)
        return self._error(
            405, "method_not_allowed",
            f"{request.method} is not part of the v1 protocol")

    def _handle_get(self, request: HttpRequest) -> HttpResponse:
        endpoint = self.endpoint
        if request.path == "/healthz":
            return self._reply(200, {
                "status": "ok",
                "epoch": endpoint.service.lock.epoch})
        if request.path == "/v1/describe":
            try:
                timeout = self._timeout_param(request.query)
            except MalformedRequestError as exc:
                return self._error(400, "malformed_request", str(exc))
            response = endpoint.handle_describe(timeout)
            return self._reply(_status_of(response), response.to_dict())
        if request.path == "/v1/journal":
            return self._serve_journal(request.query)
        if request.path == "/v1/query":
            return self._serve_query_get(request.query)
        return self._error(404, "not_found",
                           f"no route for {request.path}")

    def _serve_query_get(self, query_string: str) -> HttpResponse:
        """``GET /v1/query?query=…`` — the curl-friendly read form.

        Accepts the same fields as the POST envelope (``query`` or
        ``cursor``, plus ``epoch``/``page_size``/``timeout``) as URL
        parameters; the fleet router fans both forms out identically.
        """
        params = urllib.parse.parse_qs(query_string)

        def _one(name: str) -> str | None:
            values = params.get(name)
            return values[0] if values else None

        payload: dict[str, Any] = {}
        for name in ("query", "cursor", "request_id"):
            if _one(name) is not None:
                payload[name] = _one(name)
        try:
            for name, cast in (("epoch", int), ("page_size", int),
                               ("timeout", float)):
                if _one(name) is not None:
                    payload[name] = cast(_one(name))
        except ValueError:
            return self._error(400, "malformed_request",
                               "epoch/page_size must be integers and "
                               "timeout a number of seconds")
        return self._serve_query(payload)

    def _serve_query(self, payload: Any) -> HttpResponse:
        """One query envelope, from a POST body or GET parameters.

        A full answer (no cursor) is never turned into row dicts: see
        :func:`query_reply`.
        """
        try:
            return query_reply(self.endpoint.handle_query(
                QueryRequest.from_dict(payload), materialize=False))
        except Exception as exc:
            info = ErrorInfo.of(exc)
            return self._error(http_status_of(info.code), info.code,
                               info.message, kind=info.kind,
                               retryable=info.retryable)

    def _handle_post(self, request: HttpRequest) -> HttpResponse:
        endpoint = self.endpoint
        try:
            payload = self._read_json(request)
        except MalformedRequestError as exc:
            return self._error(400, "malformed_request", str(exc))
        try:
            if request.path == "/v1/query":
                if isinstance(payload, dict) and "batch" in payload:
                    batch = payload["batch"]
                    if not isinstance(batch, list):
                        raise MalformedRequestError(
                            "batch must be a list of query requests")
                    responses = endpoint.handle_query_batch(
                        [QueryRequest.from_dict(item) for item in batch])
                    return self._reply(200, {"responses": [
                        r.to_dict() for r in responses]})
                return self._serve_query(payload)
            if request.path == "/v1/releases":
                response = endpoint.handle_release(
                    ReleaseRequest.from_dict(payload))
                return self._reply(_status_of(response),
                                   response.to_dict())
            return self._error(404, "not_found",
                               f"no route for {request.path}")
        except Exception as exc:
            # from_dict validation failures and anything the endpoint's
            # own error envelope could not absorb
            info = ErrorInfo.of(exc)
            return self._error(http_status_of(info.code), info.code,
                               info.message, kind=info.kind,
                               retryable=info.retryable)

    def _serve_journal(self, query: str) -> HttpResponse:
        """``GET /v1/journal?after=<seq>[&limit=<n>]`` — the tail feed.

        Serves the leader's change records past *after*, the exact
        stream a :class:`~repro.storage.replica.HttpTailer` replays.
        Nodes without a journal (in-memory demos, replicas) answer 404.
        """
        endpoint = self.endpoint
        journal = endpoint.service.mdm.journal
        if journal is None:
            return self._error(
                404, "not_found",
                "this node has no governance journal (start the "
                "gateway with --state-dir)")
        params = urllib.parse.parse_qs(query)
        try:
            after = int(params.get("after", ["0"])[0])
            limit = int(params["limit"][0]) if "limit" in params else None
        except ValueError:
            return self._error(400, "malformed_request",
                               "after/limit must be integers")
        records = journal.records(after=after, limit=limit)
        info = endpoint.service.journal_info() or {}
        return self._reply(200, {
            "ok": True,
            "boot_id": journal.boot_id,
            "seq": journal.last_seq,
            "snapshot_seq": info.get("snapshot_seq", 0),
            "records": [record.to_dict() for record in records],
        })

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    def _timeout_param(query: str) -> float | None:
        values = urllib.parse.parse_qs(query).get("timeout")
        if not values:
            return None
        try:
            return float(values[0])
        except ValueError:
            raise MalformedRequestError(
                "timeout must be a number of seconds") from None

    @staticmethod
    def _read_json(request: HttpRequest) -> Any:
        if request.content_length is None:
            raise MalformedRequestError("Content-Length is required")
        try:
            return json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise MalformedRequestError(
                "request body is not valid JSON") from None

    @staticmethod
    def _reply(status: int, payload: dict[str, Any]) -> HttpResponse:
        return HttpResponse.json(status, payload)

    @staticmethod
    def _error(status: int, code: str, message: str,
               kind: str = "ProtocolError", *,
               retryable: bool = False) -> HttpResponse:
        return HttpResponse.json(
            status, error_payload(code, message, kind,
                                  retryable=retryable))


class HttpGateway:
    """Lifecycle wrapper: bind, serve on daemon threads, stop cleanly.

    *target* is a :class:`~repro.service.serving.GovernedService`, an
    :class:`~repro.mdm.system.MDM` or a ready
    :class:`~repro.api.endpoint.ProtocolEndpoint` — the gateway shares
    whatever epoch lock and scan cache that endpoint already serves
    in-process. ``port=0`` binds an ephemeral port (tests). *workers*
    bounds concurrently executing handlers; *queue_capacity* is the
    admission limit beyond which requests are shed with 429.
    """

    def __init__(self, target: Any, *, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False,
                 workers: int = 16,
                 queue_capacity: int = 1024) -> None:
        self.endpoint = _as_endpoint(target)
        self.routes = _GatewayRoutes(self.endpoint, verbose=verbose)
        self._server = AsyncHttpServer(
            self.routes, host=host, port=port, workers=workers,
            queue_capacity=queue_capacity,
            max_body_bytes=MAX_BODY_BYTES, name="repro-gateway")
        self._running = False

    # -- addresses -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._server.host

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def shed_requests(self) -> int:
        """Requests rejected by admission control since start."""
        return self._server.shed_requests

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        """Serve on daemon threads; returns the base URL."""
        if not self._running:
            self._server.start()
            self._running = True
        return self.url

    def stop(self) -> None:
        if not self._running:
            return
        self._server.stop()
        self._running = False

    def serve_forever(self) -> None:
        """Serve until interrupted (the CLI entry point's mode)."""
        self._running = True
        self._server.serve_forever()

    def __enter__(self) -> "HttpGateway":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HttpGateway {self.url} {self.endpoint!r}>"


def _as_endpoint(target: Any) -> ProtocolEndpoint:
    if isinstance(target, ProtocolEndpoint):
        return target
    from repro.mdm.system import MDM
    from repro.service.serving import GovernedService
    if isinstance(target, MDM):
        # Reuse a live memoized service rather than minting one with
        # default parameters (which would close and replace it).
        target = target._serving if target._serving is not None \
            else target.serving()
    if isinstance(target, GovernedService):
        return target.endpoint
    raise TypeError(
        f"cannot serve {type(target).__name__} over the gateway; pass "
        "a GovernedService, an MDM or a ProtocolEndpoint")


def announce_ready(role: str, url: str, **extra: Any) -> None:
    """Print the machine-readable boot line process supervisors parse.

    The :class:`~repro.fleet.supervisor.FleetSupervisor` reads child
    stdout until it sees ``FLEET_READY {json}`` — that is how a child
    bound to an ephemeral port (``--port 0``) reports where it actually
    listens.
    """
    import os

    payload = {"role": role, "url": url, "pid": os.getpid(), **extra}
    print("FLEET_READY " + json.dumps(payload, sort_keys=True),
          flush=True)


def main(argv: list[str] | None = None) -> None:  # pragma: no cover
    """Gateway CLI: demo scenario, durable leader, or read replica.

    * no flags — the in-memory SUPERSEDE demo (as before);
    * ``--state-dir DIR`` — a durable leader: recovers the governed
      state from DIR's snapshot + journal on start, journals every
      release, and serves ``GET /v1/journal`` for followers;
    * ``--follow URL`` — a read replica tailing the leader at URL;
    * ``--announce-ready`` — print ``FLEET_READY {json}`` once serving
      (used by the fleet supervisor with ``--port 0``).
    """
    import argparse

    from repro.mdm import MDM

    parser = argparse.ArgumentParser(
        description="serve the v1 protocol over HTTP")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8799)
    parser.add_argument("--state-dir", default=None,
                        help="durable mode: recover from and journal "
                             "to this directory")
    parser.add_argument("--follow", metavar="URL", default=None,
                        help="replica mode: tail the journal of the "
                             "leader gateway at URL")
    parser.add_argument("--poll-interval", type=float, default=0.5,
                        help="replica journal poll cadence in seconds")
    parser.add_argument("--announce-ready", action="store_true",
                        help="print FLEET_READY {json} once serving")
    parser.add_argument("--evolved", action="store_true",
                        help="demo mode: include the §2.1 evolution "
                             "(wrapper w4)")
    parser.add_argument("--verbose", action="store_true",
                        help="log each HTTP request")
    args = parser.parse_args(argv)
    if args.state_dir and args.follow:
        parser.error("--state-dir (leader) and --follow (replica) are "
                     "mutually exclusive")

    replica = None
    if args.follow:
        from repro.storage.replica import Replica

        replica = Replica.follow_url(args.follow)
        replica.catch_up()
        replica.start(poll_interval=args.poll_interval)
        gateway = HttpGateway(replica.service, host=args.host,
                              port=args.port, verbose=args.verbose)
        print(f"read replica of {args.follow} at {gateway.url} "
              f"(applied seq {replica.applied_seq}, lag {replica.lag})")
        if args.announce_ready:
            announce_ready("replica", gateway.url, leader=args.follow)
    elif args.state_dir:
        mdm = MDM.open(args.state_dir)
        gateway = HttpGateway(mdm.serving(), host=args.host,
                              port=args.port, verbose=args.verbose)
        print(f"durable governed gateway at {gateway.url} "
              f"(state dir {args.state_dir}, epoch "
              f"{mdm.ontology.epoch}, journal seq "
              f"{mdm.journal.last_seq})")
        if args.announce_ready:
            announce_ready("leader", gateway.url,
                           state_dir=args.state_dir)
    else:
        from repro.datasets import EXEMPLARY_QUERY, build_supersede

        scenario = build_supersede(with_evolution=args.evolved)
        mdm = MDM(scenario.ontology)
        gateway = HttpGateway(mdm, host=args.host, port=args.port,
                              verbose=args.verbose)
        print(f"serving the SUPERSEDE scenario at {gateway.url}")
        print("try:")
        print(f"  curl {gateway.url}/healthz")
        print(f"  curl {gateway.url}/v1/describe")
        query = json.dumps({"query": EXEMPLARY_QUERY})
        print(f"  curl -X POST {gateway.url}/v1/query -d {query!r}")
        if args.announce_ready:
            announce_ready("demo", gateway.url)
    try:
        gateway.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if replica is not None:
            replica.stop()


if __name__ == "__main__":  # pragma: no cover
    main()
