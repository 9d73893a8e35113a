"""HTTP API + client round-trips on an ephemeral port."""

import json
import socket
import threading
import urllib.request

import numpy as np
import pytest

import repro
from repro.gan.dataset import make_input_stack
from repro.serve import (
    BatchingEngine,
    ClientError,
    ForecastCache,
    ForecastClient,
    ForecastServer,
    ModelRegistry,
)
from repro.serve.http import float32_to_json


@pytest.fixture()
def server(tiny_model):
    registry = ModelRegistry()
    registry.register("tiny", tiny_model)
    engine = BatchingEngine(registry, max_batch=4, max_wait_ms=2.0,
                            cache=ForecastCache(16))
    with ForecastServer(engine, port=0) as running:
        yield running
    assert not engine.running


@pytest.fixture()
def client(server):
    return ForecastClient(port=server.port)


class TestEndpoints:
    def test_healthz_reports_version_and_models(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["models"] == ["tiny"]
        assert health["uptime_seconds"] >= 0

    def test_models_metadata(self, client):
        models = client.models()
        assert len(models) == 1
        assert models[0]["model_id"] == "tiny"
        assert models[0]["image_size"] == 16
        assert models[0]["num_parameters"] > 0

    def test_forecast_roundtrip_matches_direct(self, client, tiny_model):
        x = np.random.default_rng(3).normal(
            size=(4, 16, 16)).astype(np.float32)
        reply = client.forecast("tiny", x=x)
        assert reply.model == "tiny"
        assert reply.forecast.shape == (16, 16, 3)
        assert reply.cached is False
        assert reply.latency_ms > 0
        # The 9-digit literals are exact after a float32 cast, so even
        # over HTTP the forecast is bitwise.
        np.testing.assert_array_equal(reply.forecast,
                                      tiny_model.forecast(x))

    def test_repeat_request_is_cached(self, client):
        x = np.random.default_rng(4).normal(
            size=(4, 16, 16)).astype(np.float32)
        assert client.forecast("tiny", x=x).cached is False
        assert client.forecast("tiny", x=x).cached is True

    def test_forecast_from_rendered_images(self, client, tiny_model):
        rng = np.random.default_rng(5)
        place = rng.random((16, 16, 3)).astype(np.float32)
        connect = rng.random((16, 16)).astype(np.float32)
        reply = client.forecast("tiny", place_image=place,
                                connect_image=connect, connect_weight=0.1)
        expected = tiny_model.forecast(make_input_stack(place, connect, 0.1))
        np.testing.assert_array_equal(reply.forecast, expected)

    def test_metrics_exposes_engine_cache_and_http(self, client):
        x = np.random.default_rng(6).normal(
            size=(4, 16, 16)).astype(np.float32)
        client.forecast("tiny", x=x)
        metrics = client.metrics()
        assert metrics["engine"]["requests"] >= 1
        assert metrics["engine"]["cache"]["capacity"] == 16
        assert metrics["http"]["requests_by_route"]["/v1/forecast"] >= 1
        # Observability satellites: batch-size histogram + cache counters
        # are served over /metrics like every other counter.
        histogram = metrics["engine"]["batch_occupancy_histogram"]
        assert sum(histogram.values()) == metrics["engine"]["batches"]
        assert (metrics["engine"]["cache_hits"]
                + metrics["engine"]["cache_misses"]) >= 1

    def test_concurrent_http_clients_share_batches(self, server,
                                                   tiny_model):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(8, 4, 16, 16)).astype(np.float32)
        replies: list = [None] * len(xs)

        def query(index: int) -> None:
            replies[index] = ForecastClient(port=server.port).forecast(
                "tiny", x=xs[index])

        threads = [threading.Thread(target=query, args=(i,))
                   for i in range(len(xs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, reply in enumerate(replies):
            np.testing.assert_array_equal(
                reply.forecast, tiny_model.forecast(xs[index]))


def _strict_constant(name):
    raise AssertionError(f"non-standard JSON constant {name!r}")


def _decode(data: bytes) -> np.ndarray:
    return np.asarray(json.loads(data), dtype=np.float32)


def _assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint32),
                                  expected.view(np.uint32))


class TestFloat32Json:
    def test_fixed_width_nine_digit_cells(self):
        assert float32_to_json(np.float32(128 / 255)) == b" 5.01960814e-01"
        assert float32_to_json(np.array([-2.5, 0.0], np.float32)) == (
            b"[-2.50000000e+00, 0.00000000e+00]")
        # "[" + 4 rows of "[" + 5 cells of 15 + 5 separators, each row
        # followed by its own separator (the last one being "]").
        assert len(float32_to_json(np.ones((4, 5), np.float32))) == (
            1 + 4 * (1 + 5 * 16 + 1))

    def test_unit_interval_sweep_roundtrips_bitwise(self):
        """A strided sweep over every finite bit pattern in [0, 1]."""
        bits = np.arange(0, 0x3F800001, 2039, dtype=np.uint32)
        bits = np.append(bits, np.uint32(0x3F800000))   # 1.0 itself
        values = bits.view(np.float32)
        _assert_bitwise(_decode(float32_to_json(values)), values)

    def test_random_bit_patterns_roundtrip_bitwise(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 1 << 32, size=200_000,
                            dtype=np.uint64).astype(np.uint32)
        values = bits.view(np.float32)
        max32 = np.finfo(np.float32).max
        special = np.array([0.0, -0.0, max32, -max32, 1e-45, -1e-45,
                            np.finfo(np.float32).tiny,
                            np.finfo(np.float32).smallest_subnormal * 3],
                           np.float32)
        values = np.concatenate([special, values[np.isfinite(values)]])
        _assert_bitwise(_decode(float32_to_json(values)), values)

    def test_non_finite_cells_match_json_dumps_tokens(self):
        values = np.array([[np.nan, np.inf], [-np.inf, 0.25]], np.float32)
        ours = json.loads(float32_to_json(values))
        reference = json.loads(json.dumps(values.tolist()))
        assert np.isnan(ours[0][0]) and np.isnan(reference[0][0])
        assert ours[0][1:] == reference[0][1:] == [float("inf")]
        assert ours[1] == reference[1] == [float("-inf"), 0.25]

    @pytest.mark.parametrize("shape", [(), (0,), (2, 0, 3), (0, 3), (5,),
                                       (3, 4), (2, 3, 4)])
    def test_shapes_decode_like_json_dumps(self, shape):
        values = np.random.default_rng(13).normal(
            size=shape).astype(np.float32)
        ours = json.loads(float32_to_json(values))
        reference = json.loads(json.dumps(values.tolist()))
        _assert_bitwise(np.asarray(ours, np.float32),
                        np.asarray(reference, np.float32))
        if values.size == 0:
            assert ours == reference


class TestWireFormat:
    def test_finite_forecast_response_is_strict_json(self, server):
        x = np.random.default_rng(8).normal(
            size=(4, 16, 16)).astype(np.float32)
        body = json.dumps({"model": "tiny", "input": x.tolist()}).encode()
        request = urllib.request.Request(
            server.url + "/v1/forecast", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.headers["Content-Type"] == "application/json"
            reply = json.loads(response.read(),
                               parse_constant=_strict_constant)
        assert reply["model"] == "tiny"
        assert reply["shape"] == [16, 16, 3]
        assert reply["cached"] is False
        assert np.asarray(reply["forecast"]).shape == (16, 16, 3)

    def test_client_forecast_bitwise_fresh_and_cached(self, client,
                                                     tiny_model):
        x = np.random.default_rng(9).normal(
            size=(4, 16, 16)).astype(np.float32)
        expected = tiny_model.forecast(x)
        fresh = client.forecast("tiny", x=x)
        cached = client.forecast("tiny", x=x)
        assert (fresh.cached, cached.cached) == (False, True)
        _assert_bitwise(fresh.forecast, expected)
        _assert_bitwise(cached.forecast, expected)


class TestErrors:
    def test_unknown_model_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.forecast("nope", x=np.zeros((4, 16, 16), np.float32))
        assert excinfo.value.status == 404

    def test_wrong_shape_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client.forecast("tiny", x=np.zeros((4, 8, 8), np.float32))
        assert excinfo.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._request("/v2/nothing")
        assert excinfo.value.status == 404

    def test_bad_json_400(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/v1/forecast", data=b"not json{",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @staticmethod
    def _raw_post(port: int, head: bytes, body: bytes) -> tuple[int, dict]:
        """POST over a raw socket; the error reply closes the connection."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/forecast HTTP/1.1\r\n"
                         b"Host: localhost\r\n" + head + b"\r\n" + body)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        response = b"".join(chunks)
        assert response, "connection dropped with no HTTP response"
        status_line, _, rest = response.partition(b"\r\n")
        return (int(status_line.split()[1]),
                json.loads(rest.partition(b"\r\n\r\n")[2]))

    def test_non_integer_content_length_400(self, server, capsys):
        status, reply = self._raw_post(
            server.port, b"Content-Length: twelve\r\n", b"{}")
        assert status == 400
        assert "Content-Length" in reply["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_body_400(self, server, capsys):
        body = b'{"model": "\xff\xfe"}'
        status, reply = self._raw_post(
            server.port, b"Content-Length: %d\r\n" % len(body), body)
        assert status == 400
        assert "invalid JSON" in reply["error"]
        assert "utf-8" in reply["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_deeply_nested_json_400(self, server, client, capsys):
        body = b"[" * 100_000
        status, reply = self._raw_post(
            server.port, b"Content-Length: %d\r\n" % len(body), body)
        assert status == 400
        assert "nested too deeply" in reply["error"]
        assert "Traceback" not in capsys.readouterr().err
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize("token", [b"NaN", b"Infinity", b"-Infinity",
                                       b"null"])
    def test_non_finite_input_cell_400(self, server, token):
        """One bad cell must be refused, not forecast as all-NaN."""
        body = json.dumps({"model": "tiny", "input": np.zeros(
            (4, 16, 16)).tolist()}).encode().replace(b"0.0", token, 1)
        status, reply = self._raw_post(
            server.port, b"Content-Length: %d\r\n" % len(body), body)
        assert status == 400
        assert "'input'" in reply["error"]
        assert "non-finite" in reply["error"]

    def test_non_finite_image_fields_400(self, client):
        place = np.zeros((16, 16, 3), np.float32).tolist()
        connect = np.zeros((16, 16), np.float32).tolist()
        payloads = {
            "place_image": {"place_image": [[[float("nan")] * 3] * 16] * 16,
                            "connect_image": connect},
            "connect_image": {"place_image": place,
                              "connect_image": [[float("inf")] * 16] * 16},
            "connect_weight": {"place_image": place, "connect_image": connect,
                               "connect_weight": float("nan")},
        }
        for field, payload in payloads.items():
            with pytest.raises(ClientError) as excinfo:
                client._request("/v1/forecast", dict(payload, model="tiny"))
            assert excinfo.value.status == 400, field
            assert f"'{field}'" in str(excinfo.value), field

    def test_non_finite_forecast_500(self, make_model):
        model = make_model(seed=5)
        model.generator.parameters()[0].data[...] = np.nan
        registry = ModelRegistry()
        registry.register("broken", model)
        engine = BatchingEngine(registry, max_batch=1)
        with ForecastServer(engine, port=0) as running:
            with pytest.raises(ClientError) as excinfo:
                ForecastClient(port=running.port).forecast(
                    "broken", x=np.zeros((4, 16, 16), np.float32))
        assert excinfo.value.status == 500
        assert "non-finite" in str(excinfo.value)

    def test_missing_input_400(self, client):
        with pytest.raises(ClientError) as excinfo:
            client._request("/v1/forecast", {"model": "tiny"})
        assert excinfo.value.status == 400

    def test_client_side_argument_check(self, client):
        with pytest.raises(ValueError, match="exactly one"):
            client.forecast("tiny")

    def test_forecast_timeout_returns_504(self, tiny_model):
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        # A long batching window plus a zero timeout guarantees the future
        # is still pending when the handler gives up.
        engine = BatchingEngine(registry, max_batch=8, max_wait_ms=500.0)
        with ForecastServer(engine, port=0, forecast_timeout=0.0) as running:
            with pytest.raises(ClientError) as excinfo:
                ForecastClient(port=running.port).forecast(
                    "tiny", x=np.zeros((4, 16, 16), np.float32))
        assert excinfo.value.status == 504


class TestShutdown:
    def test_wedged_serving_thread_raises_on_stop(self, tiny_model):
        """Regression: stop() used to join the serving thread and move
        on even when the join timed out, silently leaking a zombie
        thread that still held the port."""
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        engine = BatchingEngine(registry)
        server = ForecastServer(engine, port=0)
        server.start()
        try:
            # Swap in a stand-in thread that outlives the join window —
            # exactly what a handler wedged in a slow write looks like.
            wedged = threading.Thread(target=lambda: threading.Event()
                                      .wait(5.0), daemon=True)
            wedged.start()
            real_thread, server._thread = server._thread, wedged
            with pytest.raises(RuntimeError, match="did not stop"):
                server.stop(timeout=0.1)
        finally:
            real_thread.join(10.0)
            if engine.running:
                engine.stop()

    def test_clean_stop_does_not_raise(self, tiny_model):
        registry = ModelRegistry()
        registry.register("tiny", tiny_model)
        engine = BatchingEngine(registry)
        server = ForecastServer(engine, port=0)
        server.start()
        server.stop()               # well-behaved thread: no error
        assert not engine.running
