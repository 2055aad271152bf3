"""Pluggable prediction backends with batching and bounded retry.

Two built-in backends: a remote chat-completions client (OpenAI-compatible
wire format, credentials from the environment only) and a deterministic
local mock that averages the previous estimate with the neighbor mean.
``predict_batch`` renders each task's prompt, dispatches with bounded
concurrency, parses the completion, retries failures up to a cap, and
falls back to temporal persistence when the cap is exhausted.
"""
import http.client
import json
import math
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .prompts import CompletionParseError, NodeTask, build_prompt, parse_completion

API_KEY_ENV = "OPENAI_API_KEY"
ENDPOINT_ENV = "OPENAI_BASE_URL"


class TransportError(RuntimeError):
    """Backend transport failure: HTTP error, timeout, or malformed body."""


@dataclass(frozen=True)
class PredictorConfig:
    backend: str = "mock"
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    max_retries: int = 2
    request_timeout: float = 30.0
    max_concurrency: int = 4
    multi_task_prompt: bool = False

    def __post_init__(self):
        if self.backend not in ("mock", "remote"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.request_timeout <= 0.0:
            raise ValueError("request_timeout must be positive")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")

    def resolved_endpoint(self) -> str:
        return self.endpoint_url or os.environ.get(ENDPOINT_ENV, "")


def validate_predictor_config(cfg: PredictorConfig) -> None:
    """Fail fast on unusable remote configuration, before any network call."""
    if cfg.backend == "remote":
        endpoint = cfg.resolved_endpoint()
        if not endpoint:
            raise ValueError(
                f"remote backend needs an endpoint URL (config endpoint_url or ${ENDPOINT_ENV})"
            )
        if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
            raise ValueError(f"remote endpoint {endpoint!r} must be an http:// or https:// URL")
        if not os.environ.get(API_KEY_ENV):
            raise ValueError(f"remote backend needs credentials in ${API_KEY_ENV}")


@dataclass(frozen=True)
class PredictionResult:
    node: int
    t: int
    value: float
    attempts: int
    backend_latency: float = 0.0
    fallback: bool = False


def mock_predict(task: NodeTask) -> float:
    """Deterministic offline prediction: average of memory and neighborhood.

    With neighbors present, returns ``0.5 * previous + 0.5 * mean(neighbors)``
    rounded to the task's precision; otherwise the previous value persists.
    """
    if task.neighbor_values:
        value = 0.5 * task.previous + 0.5 * (sum(task.neighbor_values) / len(task.neighbor_values))
    else:
        value = task.previous
    return round(value, task.precision)


def _mock_backend(system_text: str, user_text: str, tasks) -> str:
    del system_text, user_text
    return "\n".join(f"{mock_predict(task):.{task.precision}f}" for task in tasks)


def remote_complete(system_text: str, user_text: str, cfg: PredictorConfig) -> str:
    """One chat-completions call; returns the first choice's text content.

    Each call opens its own connection: ``urllib.request`` sends
    ``Connection: close`` and keeps no pool.

    Raises:
        TransportError: on timeout, connection failure, HTTP >= 400, or a
            response body without ``choices[0].message.content``. Retrying
            lives upstream in :func:`predict_batch`.
    """
    url = cfg.resolved_endpoint().rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV, "")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": cfg.model_name,
        "temperature": cfg.temperature,
        "messages": [
            {"role": "system", "content": system_text},
            {"role": "user", "content": user_text},
        ],
    }
    request = urllib.request.Request(url, data=json.dumps(body).encode(), headers=headers, method="POST")
    try:  # the outer handler also covers a failure while reading an error body
        try:
            with urllib.request.urlopen(request, timeout=cfg.request_timeout) as resp:
                data = resp.read()
        except urllib.error.HTTPError as exc:  # also an OSError, so it is caught first
            with exc:
                excerpt = exc.read(200).decode("utf-8", "replace")
            raise TransportError(f"HTTP {exc.code} from {url}: {excerpt}") from exc
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"request to {url} failed: {exc}") from exc
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed response body from {url}: {exc}") from exc
    if not isinstance(content, str):
        raise TransportError(f"non-text completion content from {url}")
    return content


def estimate_tokens(text: str) -> int:
    """Crude token estimate from character length (~4 chars per token)."""
    return math.ceil(len(text) / 4)


def _resolve_backend(cfg: PredictorConfig, backend):
    """Return ``(callable, external)``.

    External backends (remote, or supplied by the caller) are timed and
    may wait on I/O, so several tasks run on a thread pool. The built-in
    mock is pure Python: a pool would only add overhead, and timing it
    would make mock transcripts nondeterministic.
    """
    if backend is not None:
        return backend, True
    if cfg.backend == "mock":
        return _mock_backend, False
    validate_predictor_config(cfg)
    return (lambda system_text, user_text, tasks: remote_complete(system_text, user_text, cfg)), True


def transcript_entry(task: NodeTask, prompt, completion, result: PredictionResult) -> dict:
    """One transcript line: the prompt and completion text (None when not sent) and the result."""
    return {
        "t": task.t,
        "node": task.node,
        "prompt": prompt,
        "completion": completion,
        "parsed": result.value,
        "attempts": result.attempts,
        "fallback": result.fallback,
        "latency_ms": result.backend_latency,
    }


def _attempt_group(tasks, cfg: PredictorConfig, backend, timed: bool) -> list:
    """Up to ``max_retries + 1`` attempts at one prompt covering ``tasks``.

    The parsed count must match ``len(tasks)`` exactly; once every attempt
    has failed, each task keeps its previous value, flagged as a fallback.
    Returns one ``(result, entry)`` per task, with the backend time split
    evenly across the tasks.
    """
    elapsed_ms = 0.0
    completion = values = None
    for attempts in range(1, cfg.max_retries + 2):
        pair = build_prompt(tasks)
        start = time.perf_counter()
        try:
            completion = backend(pair.system_text, pair.user_text, tasks)
            values = parse_completion(completion, expected_count=len(tasks), precision=tasks[0].precision)
        except TransportError:
            completion = None
        except CompletionParseError:
            pass
        if timed:
            elapsed_ms += (time.perf_counter() - start) * 1000.0
        if values is not None:
            break
    fallback = values is None
    if fallback:
        values = [task.previous for task in tasks]
    latency = elapsed_ms / len(tasks)
    out = []
    for task, value in zip(tasks, values):
        result = PredictionResult(task.node, task.t, value, attempts, latency, fallback)
        out.append((result, transcript_entry(task, pair.user_text, completion, result)))
    return out


def predict_batch(tasks, cfg: PredictorConfig, backend=None, with_transcript: bool = False):
    """Predict one value per task, preserving input order.

    Args:
        tasks: Nonempty list of tasks sharing one time index.
        cfg: Backend selection, retry cap, and concurrency bound. The
            bound applies to the remote backend and to a caller-supplied
            one; the built-in mock runs inline.
        backend: Optional callable ``(system_text, user_text, tasks) -> str``
            overriding the configured backend (used by tests and stubs).
        with_transcript: Also return one transcript entry per task
            (prompt, completion, parsed value, attempt count, latency).

    Each task consumes at most ``max_retries + 1`` backend calls; a task
    still failing after that yields its previous value, flagged as a
    fallback. Transport errors count as failed attempts; they never abort
    the batch.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("tasks must be nonempty")
    t0 = tasks[0].t
    if any(task.t != t0 for task in tasks):
        raise ValueError("all tasks in a batch must share the same time index")

    resolved, external = _resolve_backend(cfg, backend)
    groups = [tasks] if cfg.multi_task_prompt else [[task] for task in tasks]
    if external and len(groups) > 1 and cfg.max_concurrency > 1:
        with ThreadPoolExecutor(max_workers=min(cfg.max_concurrency, len(groups))) as pool:
            outs = list(pool.map(lambda group: _attempt_group(group, cfg, resolved, external), groups))
    else:
        outs = [_attempt_group(group, cfg, resolved, external) for group in groups]
    results = [r for out in outs for r, _ in out]
    if with_transcript:
        return results, [e for out in outs for _, e in out]
    return results
