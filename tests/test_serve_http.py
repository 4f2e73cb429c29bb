"""In-process tests for the gateway's stdlib HTTP front end."""

import http.client
import json
import random

import pytest

from repro.api import ServeConfig, Session
from repro.serve import (
    AdmissionConfig,
    GatewayConfig,
    GatewayHTTPServer,
    GatewayRuntime,
    ServeGateway,
)


@pytest.fixture
def served():
    """A gateway + HTTP server on an OS-assigned port; torn down clean."""
    session = Session(ServeConfig(scheduler="fcfs"))
    gateway = ServeGateway(
        session, config=GatewayConfig(speed=10_000.0)
    )
    runtime = GatewayRuntime(gateway)
    runtime.start()
    server = GatewayHTTPServer(("127.0.0.1", 0), runtime)
    server.start_background()
    try:
        yield gateway, server
    finally:
        server.stop()
        runtime.stop()
        assert not gateway.running


def _request(server, method, path, body=None, timeout=60):
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.port, timeout=timeout
    )
    if isinstance(body, dict):
        body = json.dumps(body)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _assert_still_serving(server):
    status, body = _request(
        server, "POST", "/v1/completions",
        {"prompt_tokens": 16, "max_tokens": 2}, timeout=10,
    )
    assert status == 200
    assert json.loads(body)["finished"] is True


class TestEndpoints:
    def test_healthz(self, served):
        _, server = served
        status, body = _request(server, "GET", "/healthz")
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["speed"] == 10_000.0

    def test_completion_roundtrip(self, served):
        _, server = served
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 128, "max_tokens": 7, "tier": "Q1"},
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["finished"] is True
        assert payload["tokens"] == 7
        assert payload["tier"] == "Q1"
        assert payload["ttft_s"] > 0

    def test_streaming_token_counts(self, served):
        _, server = served
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 64, "max_tokens": 9, "tier": "Q2",
             "stream": True},
        )
        assert status == 200
        lines = [
            line[len(b"data: "):]
            for line in body.split(b"\n\n")
            if line.startswith(b"data: ")
        ]
        assert lines[-1] == b"[DONE]"
        tokens = [
            json.loads(line) for line in lines[:-1]
            if b"token_index" in line
        ]
        assert len(tokens) == 9
        assert [t["token_index"] for t in tokens] == list(range(1, 10))
        completion = json.loads(lines[-2])
        assert completion["finished"] is True

    def test_metrics_scrape(self, served):
        _, server = served
        _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 32, "max_tokens": 3},
        )
        status, body = _request(server, "GET", "/metrics")
        assert status == 200
        text = body.decode()
        assert "repro_gateway_tokens_streamed_total" in text
        streamed = [
            line for line in text.splitlines()
            if line.startswith("repro_gateway_tokens_streamed_total{")
        ]
        assert streamed and any(
            float(line.rsplit(" ", 1)[1]) > 0 for line in streamed
        )

    def test_stats_counters(self, served):
        gateway, server = served
        _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 16, "max_tokens": 2},
        )
        status, body = _request(server, "GET", "/v1/stats")
        payload = json.loads(body)
        assert status == 200
        assert payload["admitted_total"] == gateway.stats.admitted_total
        assert payload["admitted_total"] >= 1

    def test_stats_carries_live_telemetry(self, served):
        gateway, server = served
        _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 16, "max_tokens": 2},
        )
        _, body = _request(server, "GET", "/v1/stats")
        payload = json.loads(body)
        # Old counter keys stay top-level; the live frame rides along.
        assert payload["admitted_total"] >= 1
        assert payload["speed"] == 10_000.0
        assert payload["queue_depth"] >= 0
        assert "Q1" in payload["goodput"]
        assert payload["goodput"]["Q1"]["offered"] >= 1

    def test_live_single_frame(self, served):
        gateway, server = served
        _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 16, "max_tokens": 2},
        )
        status, body = _request(server, "GET", "/v1/live?frames=1")
        assert status == 200
        frames = [
            json.loads(line[len(b"data: "):])
            for line in body.split(b"\n\n")
            if line.startswith(b"data: ")
        ]
        assert len(frames) == 1
        frame = frames[0]
        assert frame["virtual_now"] >= 0
        assert frame["gateway"]["admitted_total"] >= 1
        assert "goodput" in frame
        assert "token_bucket_fill" in frame

    def test_live_multiple_frames(self, served):
        _, server = served
        status, body = _request(
            server, "GET", "/v1/live?frames=3&interval=0.01"
        )
        assert status == 200
        frames = [
            json.loads(line[len(b"data: "):])
            for line in body.split(b"\n\n")
            if line.startswith(b"data: ")
        ]
        assert len(frames) == 3
        times = [f["virtual_now"] for f in frames]
        assert times == sorted(times)

    def test_live_rejects_bad_params(self, served):
        _, server = served
        for query in ("frames=-1", "interval=0", "frames=x",
                      "frames=2&interval=inf", "frames=2&interval=nan",
                      "frames=2&interval=1e300"):
            status, body = _request(
                server, "GET", f"/v1/live?{query}", timeout=10
            )
            assert status == 400
            assert b"bad_request" in body
        status, _ = _request(server, "GET", "/v1/live?frames=1")
        assert status == 200

    def test_unknown_path_404(self, served):
        _, server = served
        status, _ = _request(server, "GET", "/nope")
        assert status == 404
        status, _ = _request(server, "POST", "/nope")
        assert status == 404

    def test_bad_request_400(self, served):
        _, server = served
        status, _ = _request(server, "POST", "/v1/completions", {})
        assert status == 400
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 8, "tier": "Q9"},
        )
        assert status == 400
        assert b"unknown tier" in body
        for field, value in (
            ("important", "false"), ("important", 0), ("important", None),
            ("stream", "false"), ("stream", 1),
        ):
            status, body = _request(
                server, "POST", "/v1/completions",
                {"prompt_tokens": 8, "max_tokens": 2, field: value},
            )
            assert status == 400
            assert json.loads(body)["error"] == "bad_request"
            assert field.encode() in body
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 8, "max_tokens": 2, "important": False},
        )
        assert status == 200
        assert json.loads(body)["finished"] is True


class TestSessionFieldsOverHTTP:
    def test_chained_turns_hit_prefix_cache(self):
        session = Session(
            ServeConfig(scheduler="fcfs", kv_reuse="radix")
        )
        gateway = ServeGateway(
            session, config=GatewayConfig(speed=10_000.0)
        )
        runtime = GatewayRuntime(gateway)
        runtime.start()
        server = GatewayHTTPServer(("127.0.0.1", 0), runtime)
        server.start_background()
        try:
            first_ids = list(range(512))
            status, body = _request(
                server, "POST", "/v1/completions",
                {"prompt_tokens": 512, "max_tokens": 4, "tier": "Q2",
                 "token_ids": first_ids, "session_id": "conv-http"},
            )
            assert status == 200
            first = json.loads(body)
            assert first["finished"] is True
            # The follow-up turn extends the first prompt verbatim.
            status, body = _request(
                server, "POST", "/v1/completions",
                {"prompt_tokens": 640, "max_tokens": 4, "tier": "Q2",
                 "token_ids": first_ids + list(range(10_000, 10_128)),
                 "session_id": "conv-http",
                 "parent_request_id": first["request_id"]},
            )
            assert status == 200
            second = json.loads(body)
            assert second["finished"] is True
            state = gateway.request_state(second["request_id"])
            assert state.session_id == "conv-http"
            assert state.parent_request_id == first["request_id"]
            cache = session.engines[0].prefix_cache
            assert cache.hits == 1
            assert cache.hit_tokens >= 496  # whole blocks of 512 shared
            assert cache.total_refs() == 0
        finally:
            server.stop()
            runtime.stop()

    def test_malformed_session_fields_400(self, served):
        _, server = served
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 16, "max_tokens": 2,
             "token_ids": ["not-an-int"]},
        )
        assert status == 400
        assert b"bad_request" in body
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 16, "max_tokens": 2,
             "parent_request_id": "zero"},
        )
        assert status == 400


class TestBoundaryRejections:
    """Input the gateway cannot serve gets a prompt 400, and the next
    well-formed request is still served."""

    @pytest.mark.parametrize(
        "field", ["prompt_tokens", "max_tokens", "parent_request_id",
                  "token_ids"],
    )
    @pytest.mark.parametrize("number", ["1e400", "-Infinity"])
    def test_non_finite_body_number(self, served, field, number):
        _, server = served
        payload = {"prompt_tokens": 16, "max_tokens": 2}
        payload[field] = ["@"] if field == "token_ids" else "@"
        body = json.dumps(payload).replace('"@"', number)
        status, reply = _request(
            server, "POST", "/v1/completions", body, timeout=10
        )
        assert status == 400
        assert json.loads(reply)["error"] == "bad_request"
        _assert_still_serving(server)

    def test_request_no_replica_can_hold(self, served):
        gateway, server = served
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 1_000_000_000, "max_tokens": 16},
            timeout=10,
        )
        assert status == 400
        assert b"KV capacity" in body
        assert gateway.offered == []
        _assert_still_serving(server)

    #: Each body field with values of another JSON type than its own.
    WRONG_TYPES = (
        [
            (field, value)
            for field in ("prompt_tokens", "max_tokens", "parent_request_id")
            for value in (1.5, "8", True, 8.0)
        ]
        + [("token_ids", [0, value]) for value in (1.5, "8", True)]
        + [("token_ids", "01"), ("token_ids", {"0": 1})]
        + [
            (field, value)
            for field in ("tier", "app_id", "session_id")
            for value in (float("nan"), 1, True, ["Q1"])
        ]
    )

    def test_body_fields_of_wrong_json_type(self, served):
        """Numbers and names are taken as the JSON types they are:
        no ``int()`` or ``str()`` coercion of another type."""
        gateway, server = served
        for field, value in self.WRONG_TYPES:
            payload = {"prompt_tokens": 2, "max_tokens": 2, field: value}
            # json.dumps writes NaN as the token Python's decoder reads.
            status, body = _request(
                server, "POST", "/v1/completions", json.dumps(payload),
                timeout=10,
            )
            assert status == 400, (field, value, body)
            reply = json.loads(body)
            assert reply["error"] == "bad_request"
            assert field in reply["detail"]
        assert gateway.offered == []
        _assert_still_serving(server)

    @pytest.mark.parametrize("token", [2**63, -(2**63) - 1])
    def test_token_id_outside_int64(self, served, token):
        gateway, server = served
        status, body = _request(
            server, "POST", "/v1/completions",
            {"prompt_tokens": 2, "max_tokens": 2, "token_ids": [0, token]},
            timeout=10,
        )
        assert status == 400
        assert json.loads(body)["error"] == "bad_request"
        assert gateway.offered == []
        _assert_still_serving(server)


class TestCompletionBodyFuzz:
    """Seeded mutations of a valid ``POST /v1/completions`` body: each
    is served (200) or refused as a 4xx ``bad_request``, never a 5xx or
    a dropped connection, and the server keeps serving."""

    VALID = {
        "prompt_tokens": 8, "max_tokens": 2, "tier": "Q2",
        "token_ids": list(range(8)), "session_id": "fuzz",
        "parent_request_id": 0, "important": True, "stream": False,
        "app_id": "fuzz",
    }
    #: Replacement values: negative, zero, huge and non-finite numbers
    #: and every JSON type.  JSON has no NaN or infinity; Python's
    #: decoder accepts the ``NaN``/``Infinity`` tokens ``json.dumps``
    #: writes for them, and ``1e400`` overflows to infinity.
    VALUES = (
        -1, 0, 1, -(10**6), 10**30, 2**63, 1.5, -0.0, 1e300,
        float("nan"), float("inf"), float("-inf"), "1e400",
        "", "8", "abc", None, True, False, [], [1], {}, {"a": 1},
    )
    TIERS = ("Q9", "", "q1", "Q1 ", 5, None, ["Q1"])

    @classmethod
    def _mutations(cls, rng, count):
        fields = list(cls.VALID)
        for _ in range(count):
            body = json.loads(json.dumps(cls.VALID))
            kind = rng.randrange(6)
            if kind == 0:
                for field in rng.sample(fields, rng.randint(1, 3)):
                    del body[field]
            elif kind == 1:
                body[rng.choice(fields)] = rng.choice(cls.VALUES)
            elif kind == 2:
                # token_ids whose length disagrees with prompt_tokens.
                size = rng.choice((0, 1, 7, 9, 64))
                body["token_ids"] = list(range(size))
                if rng.random() < 0.5:
                    body["prompt_tokens"] = rng.choice((1, 7, 9, 64))
            elif kind == 3:
                body["token_ids"][rng.randrange(8)] = rng.choice(cls.VALUES)
            elif kind == 4:
                body["tier"] = rng.choice(cls.TIERS)
            else:
                body = rng.choice((
                    [], "text", 7, None, [body], {"body": body},
                ))
            text = json.dumps(body).replace('"1e400"', "1e400")
            if kind == 5 and rng.random() < 0.3:
                text = text[: rng.randrange(len(text))]  # truncated
            yield text

    def test_mutated_bodies(self, served):
        _, server = served
        served_ok = refused = 0
        for body in self._mutations(random.Random(27), 200):
            status, reply = _request(
                server, "POST", "/v1/completions", body, timeout=10
            )
            if status == 200:
                served_ok += 1
                continue
            assert 400 <= status < 500, (status, body, reply)
            assert json.loads(reply)["error"] == "bad_request", body
            refused += 1
        assert served_ok and refused
        _assert_still_serving(server)


class TestAdmissionOverHTTP:
    def test_rate_limited_429(self):
        session = Session(ServeConfig(scheduler="fcfs"))
        gateway = ServeGateway(
            session,
            config=GatewayConfig(
                speed=10_000.0,
                admission=AdmissionConfig(rate=1e-9, burst=1.0),
            ),
        )
        runtime = GatewayRuntime(gateway)
        runtime.start()
        server = GatewayHTTPServer(("127.0.0.1", 0), runtime)
        server.start_background()
        try:
            first, _ = _request(
                server, "POST", "/v1/completions",
                {"prompt_tokens": 16, "max_tokens": 2},
            )
            second, body = _request(
                server, "POST", "/v1/completions",
                {"prompt_tokens": 16, "max_tokens": 2},
            )
            assert first == 200
            assert second == 429
            payload = json.loads(body)
            assert payload["reason"] == "rate_limit"
            assert gateway.stats.shed_total == 1
        finally:
            server.stop()
            runtime.stop()
