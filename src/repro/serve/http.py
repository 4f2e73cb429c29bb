"""Stdlib HTTP front end for the serving gateway.

No web framework: a :class:`ThreadingHTTPServer` whose handler threads
bridge into the gateway's asyncio loop with
``asyncio.run_coroutine_threadsafe``.  Endpoints:

* ``POST /v1/completions`` — submit a simulated request.  JSON body:
  ``{"prompt_tokens": int, "max_tokens": int, "tier": "Q1",
  "important": bool, "stream": bool, "app_id": str,
  "token_ids": [int, ...], "session_id": str,
  "parent_request_id": int}`` (the last three optional: concrete
  prompt identity for ``kv_reuse="radix"`` stacks, each id a signed
  64-bit integer, and multi-turn session linkage).  With
  ``stream`` true the response is Server-Sent Events, one
  ``data: {...}`` line per output token and a final ``data: [DONE]``;
  otherwise a single JSON object once the request finishes.  Admission
  refusals return 429 with the shed reason.
* ``GET /metrics`` — Prometheus text exposition (gateway counters
  plus whatever the attached observer's registry holds), including the
  scrape-time ``queue_depth`` and token-bucket fill gauges.
* ``GET /v1/stats`` — the gateway's plain JSON counters plus one live
  telemetry frame (virtual time, queue depth, sketch quantiles,
  per-tier goodput; see :mod:`repro.obs.live`).
* ``GET /v1/live`` — Server-Sent Events stream of live frames, one
  ``data: {...}`` per frame.  Query params: ``frames=N`` stops after N
  frames (0 = until the client disconnects), ``interval=S`` wall
  seconds between frames (default 1.0, at most
  :data:`MAX_LIVE_INTERVAL`).
* ``GET /healthz`` — liveness plus the current virtual time.  On a
  fault-tolerant deployment whose alive fraction has crossed a
  graceful-degradation threshold the status is ``degraded`` (still
  HTTP 200 — the gateway *is* serving, just shedding tiers) with the
  ``alive_fraction`` and ``degradation_level`` that triggered it.

Live frames are built on the gateway's asyncio loop, never from the
handler thread, so a scrape observes a consistent simulator state and
cannot race the drive loop.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.request import token_array
from repro.obs.live import build_live_snapshot
from repro.serve.gateway import AdmissionRefused, ServeGateway

#: Longest ``/v1/live`` frame interval, in wall seconds.  Anything
#: longer is a client error; ``time.sleep`` overflows on huge values.
MAX_LIVE_INTERVAL = 3600.0


class GatewayRuntime:
    """Runs a gateway's asyncio loop on a dedicated daemon thread.

    The stdlib HTTP server blocks per connection; this runtime gives
    its handler threads (and the CLI main thread) a loop to submit
    coroutines into.
    """

    def __init__(self, gateway: ServeGateway) -> None:
        self.gateway = gateway
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    def start(self, timeout: float = 10.0) -> None:
        self._thread.start()
        self.call(self.gateway.start(), timeout=timeout)

    def call(self, coro, timeout: float | None = None):
        """Run ``coro`` on the gateway loop; return its result."""
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        return future.result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        if not self._thread.is_alive():
            return
        self.call(self.gateway.stop(), timeout=timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=timeout)


def _health_payload(gateway: ServeGateway) -> dict:
    """Health status honouring graceful degradation (satellite of the
    fault layer: a half-dead pool is *degraded*, not plain ``ok``).

    Always HTTP 200 — the gateway is up and serving; the body tells
    load balancers and dashboards that tiers are being shed.
    """
    payload = {
        "status": "ok" if gateway.running else "stopping",
        "virtual_now": gateway.session.now,
        "speed": gateway.config.speed
        if gateway.clock.is_realtime else "inf",
    }
    deployment = gateway.session.deployment
    resilience = deployment.resilience
    if resilience is None:
        return payload
    alive = deployment.alive_fraction
    level = resilience.degradation_level(alive)
    payload["alive_fraction"] = alive
    payload["degradation_level"] = level
    if gateway.running and level >= 1:
        payload["status"] = "degraded"
    return payload


class GatewayHTTPServer(ThreadingHTTPServer):
    """The gateway's HTTP listener; one handler thread per connection."""

    daemon_threads = True

    #: Seconds between the serve loop's shutdown checks; :meth:`stop`
    #: waits up to one interval (the stdlib default is 0.5 s).
    POLL_INTERVAL = 0.05

    def __init__(
        self,
        address: tuple[str, int],
        runtime: GatewayRuntime,
        *,
        call_timeout: float = 600.0,
    ) -> None:
        super().__init__(address, _GatewayHandler)
        self.runtime = runtime
        self.call_timeout = call_timeout
        self._serve_thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        """Serve on a daemon thread (the CLI owns the main thread)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            args=(self.POLL_INTERVAL,),
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)


class _GatewayHandler(BaseHTTPRequestHandler):
    server: GatewayHTTPServer  # narrowed for attribute access

    # Handler threads talk to the CLI via the response stream only;
    # access logs would interleave with the CLI's own output.
    def log_message(self, format: str, *args) -> None:
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _live_snapshot(self) -> dict:
        """Build one telemetry frame on the gateway loop (thread-safe)."""
        runtime = self.server.runtime

        async def snap() -> dict:
            return build_live_snapshot(runtime.gateway)

        return runtime.call(snap(), timeout=self.server.call_timeout)

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        gateway = self.server.runtime.gateway
        parsed = urlparse(self.path)
        if parsed.path == "/v1/live":
            self._stream_live(parse_qs(parsed.query))
            return
        if self.path == "/healthz":
            self._send_json(200, _health_payload(gateway))
        elif self.path == "/metrics":
            body = gateway.prometheus_text().encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/v1/stats":
            snapshot = self._live_snapshot()
            payload = dict(snapshot.pop("gateway"))
            payload.update(snapshot)
            self._send_json(200, payload)
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def _stream_live(self, query: dict[str, list[str]]) -> None:
        """SSE stream of live telemetry frames (``GET /v1/live``)."""
        try:
            frames = int(query.get("frames", ["0"])[0])
            interval = float(query.get("interval", ["1.0"])[0])
            if frames < 0 or not 0 < interval <= MAX_LIVE_INTERVAL:
                raise ValueError
        except ValueError:
            self._send_json(400, {
                "error": "bad_request",
                "detail": "frames must be >= 0 and interval in "
                f"(0, {MAX_LIVE_INTERVAL:g}] seconds",
            })
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        sent = 0
        try:
            while frames == 0 or sent < frames:
                snapshot = self._live_snapshot()
                self.wfile.write(
                    b"data: " + json.dumps(snapshot).encode() + b"\n\n"
                )
                self.wfile.flush()
                sent += 1
                if frames and sent >= frames:
                    break
                if not self.server.runtime.gateway.running:
                    break
                time.sleep(interval)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        if self.path != "/v1/completions":
            self._send_json(404, {"error": "not_found", "path": self.path})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            payload = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(payload, dict):
                raise ValueError("body must be a JSON object")
            prompt_tokens = _json_int(
                payload["prompt_tokens"], "prompt_tokens"
            )
            decode_tokens = _json_int(
                payload.get("max_tokens", 16), "max_tokens"
            )
            tier = _json_str(payload.get("tier", "Q1"), "tier")
            important = _json_bool(payload, "important", True)
            stream = _json_bool(payload, "stream", False)
            app_id = _json_str(payload.get("app_id", "api"), "app_id")
            raw_ids = payload.get("token_ids")
            if raw_ids is not None and not isinstance(raw_ids, list):
                raise ValueError(
                    f"token_ids must be a JSON array, got {raw_ids!r}"
                )
            token_ids = (
                token_array(_json_int(t, "token_ids entry") for t in raw_ids)
                if raw_ids is not None else None
            )
            raw_session = payload.get("session_id")
            session_id = (
                _json_str(raw_session, "session_id")
                if raw_session is not None else None
            )
            raw_parent = payload.get("parent_request_id")
            parent_request_id = (
                _json_int(raw_parent, "parent_request_id")
                if raw_parent is not None else None
            )
        except (KeyError, ValueError, TypeError, OverflowError,
                json.JSONDecodeError) as error:
            # OverflowError: a token id outside the signed 64-bit range.
            self._send_json(400, {"error": "bad_request",
                                  "detail": str(error)})
            return

        runtime = self.server.runtime
        gateway = runtime.gateway
        try:
            request = runtime.call(
                gateway.submit(
                    prompt_tokens=prompt_tokens,
                    decode_tokens=decode_tokens,
                    tier=tier,
                    important=important,
                    app_id=app_id,
                    token_ids=token_ids,
                    session_id=session_id,
                    parent_request_id=parent_request_id,
                ),
                timeout=self.server.call_timeout,
            )
        except AdmissionRefused as refused:
            self._send_json(429, {
                "error": "admission_refused",
                "reason": refused.reason,
                "request_id": refused.request.request_id,
                "tier": refused.request.qos.name,
            })
            return
        except (KeyError, ValueError) as error:
            self._send_json(400, {"error": "bad_request",
                                  "detail": str(error)})
            return

        if stream:
            self._stream_tokens(request.request_id)
        else:
            finished = runtime.call(
                gateway.result(request.request_id),
                timeout=self.server.call_timeout,
            )
            self._send_json(200, _completion_payload(finished))

    def _stream_tokens(self, request_id: int) -> None:
        runtime = self.server.runtime
        gateway = runtime.gateway
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        try:
            while True:
                event = runtime.call(
                    gateway.next_token(request_id),
                    timeout=self.server.call_timeout,
                )
                if event is None:
                    break
                self.wfile.write(
                    b"data: " + json.dumps({
                        "request_id": event.request_id,
                        "token_index": event.index,
                        "virtual_time": event.virtual_time,
                    }).encode() + b"\n\n"
                )
                self.wfile.flush()
            request = gateway.request_state(request_id)
            if request is not None:
                self.wfile.write(
                    b"data: " + json.dumps(
                        _completion_payload(request)
                    ).encode() + b"\n\n"
                )
            self.wfile.write(b"data: [DONE]\n\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up


def _json_int(value: object, what: str) -> int:
    """A JSON integer; a boolean, a float (``1.5``, ``1e400``, ``NaN``)
    or a string (``"8"``) is a ``ValueError`` rather than a coercion."""
    if type(value) is not int:  # bool is an int subclass
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _json_str(value: object, what: str) -> str:
    """A JSON string; any other JSON type is a ``ValueError``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a JSON string, got {value!r}")
    return value


def _json_bool(payload: dict, key: str, default: bool) -> bool:
    """A body flag: a JSON ``true``/``false`` or absent (``default``).

    Anything else — ``"false"``, ``0``, ``null`` — is a ``ValueError``
    rather than a truthiness guess.
    """
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be a JSON boolean, got {value!r}")
    return value


def _completion_payload(request) -> dict:
    return {
        "request_id": request.request_id,
        "tier": request.qos.name,
        "prompt_tokens": request.prompt_tokens,
        "tokens": request.decoded,
        "finished": request.is_finished,
        "cancelled": request.cancelled,
        "cancel_reason": request.cancel_reason,
        "ttft_s": request.ttft,
        "ttlt_s": request.ttlt,
        "violated": (
            request.violated_deadline if request.is_finished
            or request.cancelled else None
        ),
    }
