"""Tests for the prediction backends, batching, retry, and the wire client."""
import json
import os
import socket
import subprocess
import sys
import threading
import time
import types
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from helpers import write_run_fixture

from graphfill import predictors
from graphfill.predictors import (
    PredictorConfig,
    TransportError,
    mock_predict,
    predict_batch,
    remote_complete,
    validate_predictor_config,
)
from graphfill.prompts import NodeTask, build_prompt, render_user_prompt
from graphfill.runner import RunConfig, execute_run


def task_for(node=0, t=0, previous=1.0, neighbors=(2.0,), precision=1):
    return NodeTask(node=node, t=t, previous=previous, neighbor_values=neighbors, precision=precision)


class ScriptedBackend:
    """Returns canned completions in order; raises when the script marks it."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def __call__(self, system_text, user_text, tasks):
        self.calls += 1
        item = self.script[min(self.calls - 1, len(self.script) - 1)]
        if item is TransportError:
            raise TransportError("scripted transport failure")
        return item


class TestMockPredict:
    def test_weighted_average_arithmetic(self):
        task = task_for(node=322, t=1439, previous=61.5, neighbors=(63.9, 57.4))
        assert mock_predict(task) == 61.1

    def test_no_neighbors_persists_previous(self):
        assert mock_predict(task_for(previous=7.3, neighbors=())) == 7.3

    def test_fixed_point_of_averaging(self):
        assert mock_predict(task_for(previous=4.0, neighbors=(4.0, 4.0))) == 4.0

    def test_batch_attempts_one_and_deterministic(self):
        cfg = PredictorConfig(backend="mock")
        tasks = [task_for(node=i, previous=float(i), neighbors=(1.0, 2.0)) for i in range(5)]
        a = predict_batch(tasks, cfg)
        b = predict_batch(tasks, cfg)
        assert all(r.attempts == 1 and not r.fallback for r in a)
        assert all(r.backend_latency == 0.0 for r in a)
        assert a == b

    def test_mock_pipeline_value_matches_oracle(self):
        cfg = PredictorConfig(backend="mock")
        task = task_for(node=3, previous=10.0, neighbors=(4.0, 8.0))
        (result,) = predict_batch([task], cfg)
        assert result.value == mock_predict(task)


class TestRetrySemantics:
    def test_two_failures_then_success(self):
        backend = ScriptedBackend(["NaN", "NaN", "58.9"])
        cfg = PredictorConfig(backend="mock", max_retries=3, max_concurrency=1)
        (result,) = predict_batch([task_for()], cfg, backend=backend)
        assert result.value == 58.9
        assert result.attempts == 3
        assert not result.fallback

    def test_always_failing_yields_flagged_fallback(self):
        backend = ScriptedBackend(["garbage"])
        cfg = PredictorConfig(backend="mock", max_retries=2, max_concurrency=1)
        (result,) = predict_batch([task_for(previous=9.25)], cfg, backend=backend)
        assert result.fallback
        assert result.attempts == 3
        assert backend.calls == 3
        assert result.value == 9.25

    def test_transport_errors_count_as_attempts(self):
        backend = ScriptedBackend([TransportError, "7.5"])
        cfg = PredictorConfig(backend="mock", max_retries=2, max_concurrency=1)
        (result,) = predict_batch([task_for()], cfg, backend=backend)
        assert result.value == 7.5
        assert result.attempts == 2

    def test_never_exceeds_retry_budget(self):
        backend = ScriptedBackend(["bad"])
        cfg = PredictorConfig(backend="mock", max_retries=4, max_concurrency=1)
        tasks = [task_for(node=i) for i in range(3)]
        results = predict_batch(tasks, cfg, backend=backend)
        assert backend.calls == 3 * 5
        assert all(r.attempts <= cfg.max_retries + 1 for r in results)

    def test_order_and_cardinality_preserved_with_mixed_retries(self):
        responses = {2: ["oops", "2.0"], 5: ["5.0"], 9: ["x", "x", "9.0"]}

        def backend(system_text, user_text, tasks):
            node = tasks[0].node
            return responses[node].pop(0)

        cfg = PredictorConfig(backend="mock", max_retries=3, max_concurrency=1)
        tasks = [task_for(node=n) for n in (2, 5, 9)]
        results = predict_batch(tasks, cfg, backend=backend)
        assert [r.node for r in results] == [2, 5, 9]
        assert [r.value for r in results] == [2.0, 5.0, 9.0]
        assert [r.attempts for r in results] == [2, 1, 3]

    def test_concurrent_dispatch_preserves_order(self):
        def backend(system_text, user_text, tasks):
            time.sleep(0.002 * (5 - tasks[0].node))  # later nodes answer sooner
            return f"{tasks[0].node}.0"

        cfg = PredictorConfig(backend="mock", max_concurrency=4)
        tasks = [task_for(node=i) for i in range(5)]
        results = predict_batch(tasks, cfg, backend=backend)
        assert [r.node for r in results] == [0, 1, 2, 3, 4]
        assert [r.value for r in results] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_builtin_mock_runs_inline(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("thread pool built")

        monkeypatch.setattr(predictors, "ThreadPoolExecutor", NoPool)
        cfg = PredictorConfig(backend="mock", max_concurrency=4)
        tasks = [task_for(node=i, previous=float(i)) for i in range(6)]
        results = predict_batch(tasks, cfg)
        assert [r.value for r in results] == [mock_predict(task) for task in tasks]
        with pytest.raises(AssertionError, match="thread pool built"):
            predict_batch(tasks, cfg, backend=ScriptedBackend(["1.0"]))

    def test_transcript_entries(self, monkeypatch):
        backend = ScriptedBackend(["NaN", "3.5"])
        cfg = PredictorConfig(backend="mock", max_retries=2, max_concurrency=1)
        (result,) = predict_batch([task_for(node=4, t=11)], cfg, backend=backend)
        assert result.node == 4 and result.t == 11
        assert result.completion == "3.5"
        assert result.attempts == 2
        assert "Entity index: 4" in result.prompt
        assert result.backend_latency > 0.0

        # Joint mode: one prompt, one result per task, its latency split evenly.
        # A clock that advances one second per reading makes each attempt 1000 ms.
        ticks = iter(range(1000))
        monkeypatch.setattr(predictors, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        backend = ScriptedBackend(["1.0", "1.0 2.0 3.0"])
        cfg = PredictorConfig(backend="mock", max_retries=2, multi_task_prompt=True)
        tasks = [task_for(node=i, t=11) for i in (4, 7, 9)]
        results = predict_batch(tasks, cfg, backend=backend)
        assert [r.node for r in results] == [4, 7, 9]
        assert [r.value for r in results] == [1.0, 2.0, 3.0]
        assert {r.attempts for r in results} == {2}
        assert {(r.prompt, r.completion) for r in results} == {(results[0].prompt, "1.0 2.0 3.0")}
        assert [r.backend_latency for r in results] == [2000.0 / 3] * 3

    def test_transport_failure_leaves_no_completion(self):
        backend = ScriptedBackend(["1.0 2.0", TransportError])  # a wrong count, then a dead endpoint
        cfg = PredictorConfig(backend="mock", max_retries=1, max_concurrency=1)
        (result,) = predict_batch([task_for(previous=4.5)], cfg, backend=backend)
        assert result.fallback and result.value == 4.5
        assert "Entity index: 0" in result.prompt
        assert result.completion is None

    def test_prompt_rendered_once_per_group(self, monkeypatch):
        rendered = []

        def counting_build_prompt(tasks):
            rendered.append(len(tasks))
            return build_prompt(tasks)

        monkeypatch.setattr(predictors, "build_prompt", counting_build_prompt)
        sent = []

        def backend(system_text, user_text, tasks):
            sent.append(user_text)
            return "garbage"

        cfg = PredictorConfig(backend="mock", max_retries=3, max_concurrency=1)
        results = predict_batch([task_for(node=i) for i in range(2)], cfg, backend=backend)
        assert rendered == [1, 1]
        assert sent == [results[0].prompt] * 4 + [results[1].prompt] * 4
        assert sent[0] == render_user_prompt([task_for(node=0)])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            predict_batch([], PredictorConfig())

    def test_mixed_time_rejected(self):
        with pytest.raises(ValueError, match="time"):
            predict_batch([task_for(t=1), task_for(node=1, t=2)], PredictorConfig())


class TestMultiTaskPrompt:
    def test_joint_success(self):
        def backend(system_text, user_text, tasks):
            assert "Entity index: 0" in user_text and "Entity index: 1" in user_text
            return "1.0 2.0"

        cfg = PredictorConfig(backend="mock", multi_task_prompt=True)
        results = predict_batch([task_for(node=0), task_for(node=1)], cfg, backend=backend)
        assert [r.value for r in results] == [1.0, 2.0]

    def test_count_mismatch_retries_then_falls_back(self):
        backend = ScriptedBackend(["1.0"])  # one number for two tasks, forever
        cfg = PredictorConfig(backend="mock", multi_task_prompt=True, max_retries=1)
        results = predict_batch(
            [task_for(node=0, previous=5.0), task_for(node=1, previous=6.0)], cfg, backend=backend
        )
        assert backend.calls == 2
        assert all(r.fallback and r.attempts == 2 for r in results)
        assert [r.value for r in results] == [5.0, 6.0]


class TestConfigValidation:
    def test_remote_without_key_fails_fast(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        cfg = PredictorConfig(backend="remote", endpoint_url="http://localhost:1", model_name="m")
        with pytest.raises(ValueError, match="credentials"):
            validate_predictor_config(cfg)

    def test_remote_without_endpoint_fails_fast(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        monkeypatch.delenv("OPENAI_BASE_URL", raising=False)
        cfg = PredictorConfig(backend="remote")
        with pytest.raises(ValueError, match="endpoint"):
            validate_predictor_config(cfg)

    @pytest.mark.parametrize("endpoint", ["127.0.0.1:8080/v1", "ftp://127.0.0.1/v1"])
    def test_remote_endpoint_without_http_scheme_fails_fast(self, monkeypatch, endpoint):
        monkeypatch.setenv("OPENAI_API_KEY", "k")
        cfg = PredictorConfig(backend="remote", endpoint_url=endpoint)
        with pytest.raises(ValueError, match="must be an http:// or https:// URL"):
            validate_predictor_config(cfg)

    def test_temperature_zero_default(self):
        assert PredictorConfig().temperature == 0.0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            PredictorConfig(backend="oracle")


class _StubHandler(BaseHTTPRequestHandler):
    """Chat-completions stub. It speaks HTTP/1.1, so a client that kept
    connections alive could reuse them; ``connections`` counts accepted ones."""

    protocol_version = "HTTP/1.1"
    behavior = "echo"
    seen = []
    connections = 0

    def setup(self):
        super().setup()
        type(self).connections += 1

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append((self.path, body, self.headers))
        behavior = type(self).behavior
        if behavior == "echo":
            self._send(200, json.dumps({"choices": [{"message": {"content": "42.0"}}]}).encode())
        elif behavior == "rate-limit":
            self._send(429, b"")
        elif behavior == "http500":
            self._send(500, b'{"error": "upstream exploded"}' + b"x" * 300)
        elif behavior == "malformed":
            self._send(200, b'{"unexpected": true}')
        elif behavior == "non-text":
            self._send(200, json.dumps({"choices": [{"message": {"content": 42.0}}]}).encode())
        elif behavior == "truncated":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"choices": [')
            self.close_connection = True
        elif behavior == "hang-up":
            self.close_connection = True
        elif behavior == "slow":
            time.sleep(1.0)
            self._send(200, b"")

    def _send(self, status, data):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "test-key")
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.seen = []
    _StubHandler.connections = 0
    yield server, f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)
    assert not thread.is_alive()


class TestRemoteComplete:
    def test_echo_stub(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "echo"
        cfg = PredictorConfig(backend="remote", endpoint_url=url, model_name="stub-model")
        out = remote_complete("sys text", "user text", cfg)
        assert out == "42.0"
        path, body, headers = _StubHandler.seen[-1]
        assert path == "/chat/completions"
        assert headers["Content-Type"] == "application/json"
        assert headers["Authorization"] == "Bearer test-key"
        assert body["model"] == "stub-model"
        assert body["temperature"] == 0.0
        assert body["messages"][0] == {"role": "system", "content": "sys text"}
        assert body["messages"][1] == {"role": "user", "content": "user text"}

    def test_one_connection_per_call(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "echo"
        cfg = PredictorConfig(backend="remote", endpoint_url=url)
        for _ in range(4):
            assert remote_complete("s", "u", cfg) == "42.0"
        assert len(_StubHandler.seen) == 4
        assert _StubHandler.connections == 4

    def test_http_429_is_transport_error_without_internal_retry(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "rate-limit"
        cfg = PredictorConfig(backend="remote", endpoint_url=url)
        with pytest.raises(TransportError, match="429"):
            remote_complete("s", "u", cfg)
        assert len(_StubHandler.seen) == 1

    def test_http_500_carries_status_and_body_excerpt(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "http500"
        cfg = PredictorConfig(backend="remote", endpoint_url=url)
        with pytest.raises(TransportError) as info:
            remote_complete("s", "u", cfg)
        excerpt = ('{"error": "upstream exploded"}' + "x" * 300)[:200]
        assert str(info.value) == f"HTTP 500 from {url}/chat/completions: {excerpt}"

    def test_malformed_body_is_transport_error(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "malformed"
        cfg = PredictorConfig(backend="remote", endpoint_url=url)
        with pytest.raises(TransportError, match="malformed"):
            remote_complete("s", "u", cfg)

    @pytest.mark.parametrize(
        "behavior, message",
        [
            ("non-text", "non-text completion content"),
            ("truncated", "request to .* failed"),
            ("hang-up", "request to .* failed"),
        ],
    )
    def test_bad_response_is_transport_error(self, stub_server, behavior, message):
        _, url = stub_server
        _StubHandler.behavior = behavior
        cfg = PredictorConfig(backend="remote", endpoint_url=url)
        with pytest.raises(TransportError, match=message):
            remote_complete("s", "u", cfg)
        assert len(_StubHandler.seen) == 1

    def test_refused_connection_is_transport_error(self, monkeypatch):
        monkeypatch.setenv("OPENAI_API_KEY", "test-key")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        cfg = PredictorConfig(backend="remote", endpoint_url=f"http://127.0.0.1:{port}")
        with pytest.raises(TransportError, match="request to .* failed"):
            remote_complete("s", "u", cfg)

    def test_timeout_is_transport_error(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "slow"
        cfg = PredictorConfig(backend="remote", endpoint_url=url, request_timeout=0.15)
        with pytest.raises(TransportError, match="request to .* failed"):
            remote_complete("s", "u", cfg)

    def test_full_batch_through_stub(self, stub_server):
        _, url = stub_server
        _StubHandler.behavior = "echo"
        cfg = PredictorConfig(backend="remote", endpoint_url=url, max_concurrency=2)
        results = predict_batch([task_for(node=i) for i in range(3)], cfg)
        assert [r.value for r in results] == [42.0, 42.0, 42.0]
        assert all(r.attempts == 1 for r in results)
        assert all(r.backend_latency > 0.0 for r in results)


class TestValidateOncePerRun:
    def test_direct_remote_batch_without_credentials_raises(self, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        cfg = PredictorConfig(backend="remote", endpoint_url="http://127.0.0.1:1", model_name="m")
        with pytest.raises(ValueError, match=r"remote backend needs credentials in \$OPENAI_API_KEY"):
            predict_batch([task_for()], cfg)

    def test_remote_run_validates_once(self, stub_server, tmp_path, monkeypatch):
        _, url = stub_server
        _StubHandler.behavior = "echo"
        checked = []
        validate = predictors.validate_predictor_config

        def counting_validate(cfg):
            checked.append(cfg)
            validate(cfg)

        monkeypatch.setattr(predictors, "validate_predictor_config", counting_validate)
        edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=12, t_steps=30)
        cfg = RunConfig.from_dict({
            "graph": {"source": "edges", "edge_list": edge_path, "n_nodes": 12},
            "signal": {"path": signal_path},
            "t_split": 20,
            "observation": {"ratio": 0.6, "seed": 3},
            "train": {"max_iters": 20},
            "predictor": {"backend": "remote", "endpoint_url": url, "max_concurrency": 2},
        })
        report = execute_run(cfg).report
        assert checked == [cfg.predictor]
        assert len(report.per_t_mae) == 10
        assert len(_StubHandler.seen) >= 10  # at least one request per step


def test_importing_the_package_does_not_import_requests():
    src = os.path.dirname(os.path.dirname(os.path.abspath(predictors.__file__)))
    code = "import sys, graphfill, graphfill.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
