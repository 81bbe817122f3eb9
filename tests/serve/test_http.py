"""HTTP layer: routes, validation, fallback, explain, real sockets."""

import json
import re
import socket
import threading
import tracemalloc
import urllib.request

import pytest

from repro.serve import ServeServer


class TestDegradedMode:
    def test_healthz_degraded(self, make_app):
        _, client = make_app()
        status, body = client.get("/healthz")
        assert status == 200
        assert body["status"] == "degraded"
        assert body["checkpoint"] is None

    def test_popularity_fallback_ranks_observed_events(self, make_app):
        _, client = make_app()
        for _ in range(3):
            client.post("/v1/events", {"user_id": 1, "basket": [7]})
        client.post("/v1/events", {"user_id": 1, "basket": [4]})
        status, body = client.post("/v1/recommend", {"user_id": 99, "z": 2})
        assert status == 200
        assert body["source"] == "popularity"
        assert body["items"][0] == 7  # most frequent first
        assert 0 not in body["items"]  # padding never recommended

    def test_empty_session_falls_back_even_with_model(self, served_causer,
                                                      make_app):
        _, client = make_app(served_causer)
        status, body = client.post("/v1/recommend", {"user_id": 5})
        assert status == 200
        assert body["source"] == "popularity"

    def test_popularity_counts_only_observed_ids(self, make_app):
        app, client = make_app()
        tracemalloc.start()
        try:
            for item in (5_000_000, 10**18, 5_000_000):
                status, _ = client.post("/v1/events",
                                        {"user_id": 1, "basket": [item]})
                assert status == 200
            status, body = client.post("/v1/recommend",
                                       {"user_id": 99, "z": 5})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 200
        # Most frequent first; ids nobody sent are never recommended.
        assert body["items"] == [5_000_000, 10**18]
        # Memory follows the two observed ids, not the largest one.
        assert peak < 1 << 20
        status, body = client.post("/v1/events",
                                   {"user_id": 1, "basket": [2**63]})
        assert status == 400
        assert "int64" in body["error"]

    def test_degraded_events_outside_the_catalog_are_dropped(
            self, served_causer, make_app):
        app, client = make_app()
        too_big = served_causer.num_items + 1
        for basket in ([too_big], [3, too_big]):
            status, _ = client.post("/v1/events",
                                    {"user_id": 1, "basket": basket})
            assert status == 200
        app.install_model(served_causer)
        status, body = client.post("/v1/recommend", {"user_id": 1})
        assert status == 200 and body["source"] == "model"
        status, body = client.post("/v1/events",
                                   {"user_id": 1, "basket": [4]})
        assert status == 200
        # The emptied basket went with its item; [3] survived.
        assert body["session_length"] == 2
        status, body = client.post("/v1/explain",
                                   {"user_id": 1, "target_item": 5})
        assert status == 200
        assert {edge["item"] for edge in body["edges"]} == {3, 4}
        assert app.metrics.counter_value(
            "serve_session_items_dropped_total") == 2


class TestValidation:
    def test_missing_user_id(self, make_app):
        _, client = make_app()
        status, body = client.post("/v1/recommend", {})
        assert status == 400
        assert "user_id" in body["error"]

    def test_bad_basket(self, make_app):
        _, client = make_app()
        for basket in ([], [0], ["x"], None):
            status, body = client.post("/v1/events",
                                       {"user_id": 1, "basket": basket})
            assert status == 400

    def test_out_of_catalog_item(self, served_causer, make_app):
        _, client = make_app(served_causer)
        too_big = served_causer.num_items + 1
        status, body = client.post("/v1/events",
                                   {"user_id": 1, "basket": [too_big]})
        assert status == 400
        assert "catalog" in body["error"]

    def test_unknown_path_and_wrong_method(self, make_app):
        app, client = make_app()
        assert client.get("/v1/nope")[0] == 404
        assert client.get("/v1/recommend")[0] == 405
        assert client.request("POST", "/healthz")[0] == 405

        def series():
            return {line.rsplit(" ", 1)[0]
                    for line in app.metrics.render().splitlines()
                    if not line.startswith("#")}

        before = series()
        for index in range(100):
            assert client.get(f"/junk/{index}")[0] == 404
        assert series() == before

        assert client.get('/x"} 1\nforged_total 9\n{')[0] == 404
        status, text = client.get("/metrics")
        assert status == 200
        well_formed = re.compile(
            r'(# TYPE [a-z_][a-z0-9_]* (counter|gauge|summary)'
            r'|[a-z_][a-z0-9_]*(\{[a-z_]+="[^"\\\n]*"(,[a-z_]+="[^"\\\n]*")*\})?'
            r' \S+)')
        lines = text.splitlines()
        assert lines and all(well_formed.fullmatch(line) for line in lines)
        assert not any(line.startswith("forged_total") for line in lines)

    def test_bad_z(self, make_app):
        _, client = make_app()
        status, _ = client.post("/v1/recommend", {"user_id": 1, "z": 0})
        assert status == 400


class TestEventsAndHealth:
    def test_session_length_grows(self, served_causer, make_app):
        app, client = make_app(served_causer)
        for step in range(3):
            status, body = client.post("/v1/events",
                                       {"user_id": 2, "basket": [step + 1]})
            assert status == 200
            assert body["session_length"] == step + 1
        status, body = client.get("/healthz")
        assert body["status"] == "ok"
        assert body["sessions"] == 1
        assert body["checkpoint"]["model_class"] == "Causer"


class TestExplain:
    def test_explain_requires_causer(self, served_gru4rec, make_app):
        _, client = make_app(served_gru4rec)
        status, body = client.post(
            "/v1/explain", {"user_id": 1, "target_item": 2})
        assert status == 409
        assert "Causer" in body["error"]

    def test_explain_without_checkpoint(self, make_app):
        _, client = make_app()
        status, _ = client.post("/v1/explain",
                                {"user_id": 1, "target_item": 2})
        assert status == 409

    def test_explain_top_edges(self, served_causer, make_app):
        _, client = make_app(served_causer)
        history = [[3], [7], [9], [11]]
        status, body = client.post(
            "/v1/explain", {"user_id": 1, "target_item": 5,
                            "history": history, "top": 3})
        assert status == 200
        edges = body["edges"]
        assert len(edges) == 3
        # Ranked by combined score, descending.
        combined = [edge["combined"] for edge in edges]
        assert combined == sorted(combined, reverse=True)
        assert {edge["item"] for edge in edges} <= {3, 7, 9, 11}
        for edge in edges:
            assert set(edge) == {"item", "position", "causal_effect",
                                 "attention", "combined"}

    def test_explain_uses_session_events(self, served_causer, make_app):
        _, client = make_app(served_causer)
        for item in (3, 7):
            client.post("/v1/events", {"user_id": 4, "basket": [item]})
        status, body = client.post(
            "/v1/explain", {"user_id": 4, "target_item": 5})
        assert status == 200
        assert {edge["item"] for edge in body["edges"]} == {3, 7}

    def test_explain_no_session(self, served_causer, make_app):
        _, client = make_app(served_causer)
        status, _ = client.post("/v1/explain",
                                {"user_id": 123, "target_item": 5})
        assert status == 404


class TestMetricsEndpoint:
    def test_prometheus_text(self, served_causer, make_app):
        _, client = make_app(served_causer)
        client.post("/v1/events", {"user_id": 1, "basket": [3]})
        client.post("/v1/recommend", {"user_id": 1})
        client.post("/v1/recommend", {})  # a 400, counted as an error
        status, text = client.get("/metrics")
        assert status == 200
        assert isinstance(text, str)
        assert "# TYPE serve_requests_total counter" in text
        assert 'endpoint="/v1/recommend"' in text
        assert "serve_errors_total" in text
        assert 'serve_request_latency_seconds{quantile="0.99"' in text


class TestHotSwap:
    def test_generation_visible_and_sessions_survive(self, served_causer,
                                                     served_gru4rec,
                                                     make_app):
        app, client = make_app(served_causer)
        client.post("/v1/events", {"user_id": 1, "basket": [3]})
        _, first = client.post("/v1/recommend", {"user_id": 1})
        assert first["model"] == "Causer" and first["generation"] == 1
        app.install_model(served_gru4rec)
        _, second = client.post("/v1/recommend", {"user_id": 1})
        assert second["model"] == "GRU4Rec" and second["generation"] == 2
        # The session's events survived the swap and still score.
        assert second["source"] == "model"


def _serving(app):
    """A server on an ephemeral port, run the way the CLI runs it
    (``serve_forever``), here on a daemon thread."""
    server = ServeServer(app, host="127.0.0.1", port=0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


class TestRealHTTP:
    def test_end_to_end_over_sockets(self, served_causer, make_app):
        app, _ = make_app(served_causer)
        server = _serving(app)
        host, port = server.address
        base = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(base + "/healthz") as resp:
                assert resp.status == 200
                assert json.loads(resp.read())["status"] == "ok"
            payload = json.dumps({"user_id": 1, "basket": [3]}).encode()
            req = urllib.request.Request(
                base + "/v1/events", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req) as resp:
                assert json.loads(resp.read())["session_length"] == 1
            payload = json.dumps({"user_id": 1}).encode()
            req = urllib.request.Request(
                base + "/v1/recommend", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req) as resp:
                body = json.loads(resp.read())
                assert body["source"] == "model"
                assert len(body["items"]) == 5
            bad = urllib.request.Request(base + "/v1/recommend",
                                         data=b"not json{")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(bad)
            assert excinfo.value.code == 400
        finally:
            server.shutdown()

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length(self, make_app, length):
        app, _ = make_app()
        server = _serving(app)
        try:
            with socket.create_connection(server.address, timeout=5) as conn:
                conn.sendall(f"POST /v1/events HTTP/1.1\r\n"
                             f"Host: localhost\r\n"
                             f"Content-Length: {length}\r\n\r\n".encode())
                reply = b""
                while b"\r\n" not in reply:
                    chunk = conn.recv(4096)
                    assert chunk, "connection closed without a response"
                    reply += chunk
        finally:
            server.shutdown()
        assert reply.split(b"\r\n")[0].split()[1] == b"400"
        assert app.metrics.counter_value(
            "serve_requests_total",
            {"endpoint": "/v1/events", "status": "400"}) == 1
