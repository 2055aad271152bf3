"""Pluggable prediction backends with batching and bounded retry.

Two built-in backends: a remote chat-completions client (OpenAI-compatible
wire format, credentials from the environment only) and a deterministic
local mock that averages the previous estimate with the neighbor mean.
``predict_batch`` renders each task's prompt, dispatches with bounded
concurrency, parses the completion, retries failures up to a cap, and
falls back to temporal persistence when the cap is exhausted.
"""
import base64
import contextlib
import http.client
import json
import math
import os
import re
import socket
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from urllib.request import getproxies, proxy_bypass  # urllib's proxy environment rules

import numpy as np

from .graphs import _reject_infinite, slot_sums
from .prompts import CompletionParseError, NodeTask, build_prompt, parse_completion, prompt_groups
from .prompts import prompt_lengths, round_fixed

API_KEY_ENV = "OPENAI_API_KEY"
ENDPOINT_ENV = "OPENAI_BASE_URL"
_MAX_LINE = 65536  # bytes per response line, and
_MAX_HEADERS = 100  # lines per header block, as http.client caps them
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)  # Linux only


class TransportError(RuntimeError):
    """Backend transport failure: HTTP error, timeout, or malformed body.

    ``status`` is the HTTP status of an error response (None for any other
    failure), and ``retry_after`` its ``Retry-After`` header in seconds, when
    the response sent one as a number.
    """

    def __init__(self, message: str, status: int | None = None, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


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
        _reject_infinite(self)
        if self.backend not in ("mock", "remote"):
            raise ValueError(f"backend must be 'mock' or 'remote', got {self.backend!r}")
        if not self.temperature >= 0.0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not self.request_timeout > 0.0:
            raise ValueError("request_timeout must be positive")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")


def _wire_settings(cfg: PredictorConfig):
    """The endpoint's ``urlsplit`` parts and the API key that a remote client sends: the one check of both.

    Both go into the request head verbatim, so each is checked here, as
    ``http.client`` checked them on every request: the endpoint must be an
    http(s) URL of visible ASCII characters with a host, a valid port and
    no user information (a name or password before ``@``, which would be
    shown in every transport error), and the key must be set and printable
    ASCII (no CR, LF or other control character).

    Raises:
        ValueError: naming ``endpoint_url`` or ``$OPENAI_BASE_URL``, or
            ``$OPENAI_API_KEY``; neither the key nor a password is shown.
    """
    endpoint = cfg.endpoint_url or os.environ.get(ENDPOINT_ENV, "")
    field = "endpoint_url" if cfg.endpoint_url else f"${ENDPOINT_ENV}"
    if not endpoint:
        raise ValueError(f"remote backend needs an endpoint URL (config endpoint_url or ${ENDPOINT_ENV})")
    try:
        parts = urllib.parse.urlsplit(endpoint)
    except ValueError as exc:  # such as an unclosed "[" of an IPv6 host
        raise ValueError(f"remote endpoint ({field}) is not a URL: {exc}") from None
    if "@" in parts.netloc:
        raise ValueError(f"remote endpoint ({field}) has user information (a name or password before '@'); "
                         f"remove it: the credentials go in ${API_KEY_ENV}")
    if re.search(r"[^\x21-\x7e]", endpoint):
        raise ValueError(f"remote endpoint {endpoint!r} ({field}) has whitespace, a control character or "
                         "a non-ASCII character; percent-encode it")
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"remote endpoint {endpoint!r} must be an http:// or https:// URL")
    try:
        parts.port
    except ValueError as exc:
        raise ValueError(f"remote endpoint {endpoint!r} ({field}): {exc}") from None
    if not parts.hostname:
        raise ValueError(f"remote endpoint {endpoint!r} ({field}) has no host")
    api_key = os.environ.get(API_KEY_ENV, "")
    if not api_key:
        raise ValueError(f"remote backend needs credentials in ${API_KEY_ENV}")
    if re.search(r"[^\x20-\x7e]", api_key):
        raise ValueError(f"${API_KEY_ENV} has a control character (such as a line break) or a non-ASCII "
                         "character, so it cannot be sent in a header")
    return parts, api_key


@dataclass(frozen=True)
class PredictionResult:
    """One task's prediction and the exchange it came from.

    ``prompt`` is the user text sent for the task's group and
    ``completion`` the group's last completion; each is None when it was
    not received (no call made, or the last attempt hit a transport error).
    ``tokens`` is the group's token estimate, the prompt's and the final
    completion's, on the group's first result; the others hold 0.
    """
    node: int
    t: int
    value: float
    attempts: int
    backend_latency: float = 0.0
    fallback: bool = False
    prompt: str | None = None
    completion: str | None = None
    tokens: int = 0


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


def mock_step(layout, previous, neighbor_values, precision: int):
    """The mock's values :func:`predict_batch` gives ``layout.nodes``, whose previous values are ``previous``.

    ``neighbor_values`` is the step's processed observation at ``layout.neighbors``. Returns None when a value is
    not finite; such a step takes the text path. :func:`mock_tokens` counts their prompts a block of steps at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        raw = 0.5 * previous + 0.5 * (slot_sums(layout, neighbor_values) / layout.counts)
    if not np.isfinite(raw).all():
        return None
    return round_fixed(raw, precision)


def mock_tokens(layout, t, previous, neighbor_values, answers, precision: int, multi_task_prompt: bool) -> int:
    """The token estimate :func:`predict_batch` gives a block of mock steps, a row a step as :func:`prompt_lengths`."""
    header, contexts, widths = prompt_lengths(layout, t, previous, neighbor_values, answers, precision)
    if multi_task_prompt and layout.nodes.size:  # one prompt a step; the completion puts one answer per line
        contexts = contexts.sum(axis=1, keepdims=True)
        widths = widths.sum(axis=1, keepdims=True) + layout.nodes.size - 1
    return int(((header + contexts + 3) // 4).sum() + ((widths + 3) // 4).sum())  # ceil(length / 4)


def _mock_backend(system_text: str, user_text: str, tasks) -> str:
    del system_text, user_text
    return "\n".join(f"{mock_predict(task):.{task.precision}f}" for task in tasks)


def _retry_after(value: bytes | None) -> float | None:
    """A ``Retry-After`` header in seconds; None when absent or not a number (an HTTP date is not read)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


class BoundBackend:
    """The call ``predict_batch`` makes, and the pool of ``cfg.max_concurrency`` workers that runs a step's groups.

    Built by :func:`bind_backend`, which closes it when its ``with`` block ends; a caller-supplied callable
    ``call`` is wrapped in one and never closed. The workers start at the first dispatch with two groups or more,
    so the steps of a run share its threads.
    """

    def __init__(self, cfg: PredictorConfig, call=None):
        self.cfg = cfg
        self._call = call
        self._pool = ThreadPoolExecutor(cfg.max_concurrency, thread_name_prefix="graphfill-predict")

    def __call__(self, system_text: str, user_text: str, tasks) -> str:
        return self._call(system_text, user_text, tasks)

    def map(self, fn, items: list) -> list:
        """``[fn(item) for item in items]``, at most ``max_concurrency`` at once, in input order."""
        if len(items) < 2 or self.cfg.max_concurrency < 2:
            return [fn(item) for item in items]
        return list(self._pool.map(fn, items))

    def close(self) -> None:
        """Stop the workers once their running calls return."""
        self._pool.shutdown()


class _Connection:
    """One keep-alive connection: its socket, and a buffered reader over it for the responses."""

    def __init__(self, sock):
        self.sock = sock
        self.fp = sock.makefile("rb")

    def send(self, wire: bytes) -> bytes:
        """Send one whole request; the first line of the response, b"" when the server had closed the connection."""
        self.sock.sendall(wire)
        # A server that writes its headers and its body in two sends without TCP_NODELAY (Python's
        # http.server does) holds the body under Nagle until the headers are acknowledged. On a reused
        # connection Linux delays that ACK by about 40 ms; quickack, which the kernel clears again by
        # itself, makes this reply's ACK immediate.
        if _QUICKACK is not None:
            self.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return _read_line(self.fp, "status line")

    def close(self) -> None:
        self.fp.close()
        self.sock.close()


def _read_line(fp, what: str) -> bytes:
    line = fp.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong(what)
    return line


def _read_fields(fp) -> dict:
    """Header (or trailer) fields up to the blank line, by lowercased name; a repeated name's values joined by ", "."""
    fields = {}
    for _ in range(_MAX_HEADERS):  # the blank line counts towards the cap, as in http.client
        line = _read_line(fp, "header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        name, value = name.strip().lower(), value.strip()
        fields[name] = fields[name] + b", " + value if name in fields else value
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_chunked(fp) -> bytes:
    chunks = []
    while True:
        line = _read_line(fp, "chunk size")
        try:
            size = int(line.partition(b";")[0], 16)  # a chunk extension after ";" is ignored
        except ValueError:
            size = -1
        if size < 0:
            raise http.client.HTTPException(f"bad chunk size line {line[:40]!r}")
        if size == 0:
            _read_fields(fp)  # the trailer, not kept
            return b"".join(chunks)
        chunk = fp.read(size + 2)  # the data and its CRLF
        if len(chunk) < size + 2:
            raise http.client.IncompleteRead(b"".join(chunks) + chunk)
        chunks.append(chunk[:size])


def _read_response(fp, line: bytes):
    """The response whose first line is ``line``: ``(status, headers, body, will_close)``.

    Any 1xx response before it is skipped. The body is framed as RFC 9112 §6.3 says: none for 204 and
    304, else ``chunked`` when it is the last transfer coding, else ``Content-Length``, else up to the
    close. ``Connection: close``, or HTTP/1.0 without ``keep-alive``, or a close-delimited body sets
    ``will_close``.

    Raises:
        http.client.HTTPException: on an empty or malformed status line, a line or header count over
            http.client's caps, a bad ``Content-Length`` or chunk size, or a short body.
    """
    while True:
        if not line:
            raise http.client.RemoteDisconnected("Remote end closed connection without response")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and len(code) == 3 and code.isdigit() and int(code) >= 100
                and rest[3:4] in (b" ", b"\r", b"\n", b"")):
            raise http.client.BadStatusLine(line.decode("latin-1"))
        status = int(code)
        headers = _read_fields(fp)
        if status >= 200:
            break
        line = _read_line(fp, "status line")
    tokens = {token.strip() for token in headers.get(b"connection", b"").lower().split(b",")}
    will_close = b"close" in tokens or (version == b"HTTP/1.0" and b"keep-alive" not in tokens)
    coding = headers.get(b"transfer-encoding")
    length = headers.get(b"content-length")
    if status in (204, 304):
        body = b""
    elif coding is not None and coding.lower().rpartition(b",")[2].strip() == b"chunked":
        body = _read_chunked(fp)
    elif coding is None and length is not None:
        if not length.isdigit():
            raise http.client.HTTPException(f"bad Content-Length {length[:40]!r}")
        body = fp.read(int(length))
        if len(body) < int(length):
            raise http.client.IncompleteRead(body, int(length) - len(body))
    else:
        body, will_close = fp.read(), True
    return status, headers, body, will_close


class RemoteBackend(BoundBackend):
    """A chat-completions client: keep-alive connections to one endpoint.

    :func:`bind_backend` builds one per run. The endpoint and the API key
    are checked and read once, by :func:`_wire_settings`, and the request
    head, the fixed parts of the JSON body and the proxy decision are
    worked out here; no connection opens and no worker starts before the
    first call. Each request is one ``sendall`` of head and body,
    and the response is read by a small HTTP/1.1 reader (no compression, no
    HTTP/2). ``http.client`` only opens connections, TLS and proxy tunnel
    included. Idle connections wait on a LIFO stack of at most
    ``cfg.max_concurrency``. Each call takes one, or opens one, and gives it
    back unless the server announced a close or the exchange failed; a
    failed connection is closed, never reused. :meth:`close` ends the
    client's life.

    Proxies follow urllib's environment rules (``http_proxy``,
    ``https_proxy``, ``no_proxy``): an HTTPS endpoint is reached through a
    ``CONNECT`` tunnel, and an HTTP endpoint by sending the absolute URL to
    the proxy.

    Raises:
        ValueError: when the endpoint or the API key is missing or cannot
            go on the wire as it is (see :func:`_wire_settings`).
    """

    def __init__(self, cfg: PredictorConfig):
        parts, api_key = _wire_settings(cfg)
        super().__init__(cfg)
        parts = parts._replace(path=parts.path.rstrip("/") + "/chat/completions", fragment="")
        self.url = urllib.parse.urlunsplit(parts)
        origin = parts.netloc
        default_port = 443 if parts.scheme == "https" else 80
        host = origin.rpartition(":")[0] if parts.port == default_port or origin.endswith(":") else origin
        target = urllib.parse.urlunsplit(("", "", parts.path, parts.query, ""))
        headers = ["Accept-Encoding: identity", "Content-Type: application/json", f"Authorization: Bearer {api_key}"]
        self._connection_class = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        self._address, self._tunnel, self._tunnel_headers = origin, None, None
        proxy = getproxies().get(parts.scheme)
        if proxy and not proxy_bypass(origin):
            proxy = urllib.parse.urlsplit(proxy if "//" in proxy else "//" + proxy)
            auth = {}
            if proxy.username and proxy.password:
                user_pass = f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password)}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
            self._address = proxy.netloc.rpartition("@")[2]
            if parts.scheme == "https":
                self._tunnel, self._tunnel_headers = origin, auth
            else:  # the absolute form, whose Host is the URL's authority, as http.client sends it
                target, host = self.url, origin
                headers += [f"{name}: {value}" for name, value in auth.items()]
        head = [f"POST {target} HTTP/1.1", f"Host: {host}", *headers, "Content-Length: "]
        self._head = "\r\n".join(head).encode("ascii")
        self._body_parts = (
            f'{{"model": {json.dumps(cfg.model_name)}, "temperature": {json.dumps(cfg.temperature)}, '
            '"messages": [{"role": "system", "content": ',
            '}, {"role": "user", "content": ',
            "}]}",
        )
        self._idle = []
        self._lock = threading.Lock()

    def __call__(self, system_text: str, user_text: str, tasks) -> str:
        del tasks
        return remote_complete(system_text, user_text, self.cfg, self)  # looked up per attempt, so wrappers see it

    def post(self, system_text: str, user_text: str) -> bytes:
        """POST the chat request for the two messages; the whole response body of a 2xx reply.

        The body is what ``json.dumps`` gives for ``{"model", "temperature",
        "messages": [system, user]}``. A request whose reused connection
        yields no response line (the server dropped the idle connection) is
        sent once more, on a fresh connection.

        Raises:
            TransportError: on timeout, connection failure, a response the
                reader rejects, or a status outside 2xx (with ``status`` and
                ``retry_after`` set).
        """
        start, middle, end = self._body_parts
        body = (start + json.dumps(system_text) + middle + json.dumps(user_text) + end).encode("ascii")
        wire = b"%b%d\r\n\r\n%b" % (self._head, len(body), body)
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            line = b""
            if conn is not None:
                try:
                    line = conn.send(wire)
                except (ConnectionResetError, BrokenPipeError):
                    pass
                if not line:
                    conn.close()
                    conn = None
            if conn is None:
                conn = self._connect()
                line = conn.send(wire)
            status, headers, data, will_close = _read_response(conn.fp, line)
        except (OSError, http.client.HTTPException) as exc:
            if conn is not None:
                conn.close()
            raise TransportError(f"request to {self.url} failed: {exc}") from exc
        with self._lock:
            keep = not will_close and len(self._idle) < self.cfg.max_concurrency
            if keep:
                self._idle.append(conn)
        if not keep:
            conn.close()
        if not 200 <= status < 300:
            excerpt = data[:200].decode("utf-8", "replace")
            raise TransportError(f"HTTP {status} from {self.url}: {excerpt}", status,
                                 _retry_after(headers.get(b"retry-after")))
        return data

    def close(self) -> None:
        """Stop the workers, then close the idle connections."""
        super().close()
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connect(self) -> _Connection:
        conn = self._connection_class(self._address, timeout=self.cfg.request_timeout)
        if self._tunnel is not None:
            conn.set_tunnel(self._tunnel, headers=self._tunnel_headers)
        try:
            conn.connect()
        except BaseException:
            conn.close()
            raise
        return _Connection(conn.sock)


def remote_complete(system_text: str, user_text: str, cfg: PredictorConfig, client: RemoteBackend | None = None) -> str:
    """One chat-completions call; returns the first choice's text content.

    ``client`` is the run's :class:`RemoteBackend`, whose idle connection the
    call may reuse; the request then carries the client's model and
    temperature. Without one the call builds a client for ``cfg`` and
    closes it before returning.

    Raises:
        TransportError: on timeout, connection failure, HTTP status outside
            2xx, or a response body without ``choices[0].message.content``.
            Retrying lives upstream in :func:`predict_batch`.
        ValueError: without ``client``, when ``cfg``'s endpoint or the API
            key is missing or cannot be sent.
    """
    with contextlib.closing(RemoteBackend(cfg)) if client is None else contextlib.nullcontext(client) as client:
        data = client.post(system_text, user_text)
    try:
        content = json.loads(data)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed response body from {client.url}: {exc}") from exc
    if not isinstance(content, str):
        raise TransportError(f"non-text completion content from {client.url}")
    return content


def estimate_tokens(text: str) -> int:
    """Crude token estimate from character length (~4 chars per token)."""
    return math.ceil(len(text) / 4)


@contextlib.contextmanager
def bind_backend(cfg: PredictorConfig, backend=None):
    """Yield the :class:`BoundBackend` ``predict_batch`` dispatches to (None: the mock); close only what it built.

    An already bound ``backend`` is yielded as it is and never closed. Any
    other callable ``backend`` is wrapped in a new :class:`BoundBackend`,
    and only the wrapper's workers stop on exit. Without one, the mock
    yields None: it is pure Python and runs inline and untimed (a pool would
    only add overhead, and timing would make mock transcripts
    nondeterministic). A remote ``cfg`` builds a :class:`RemoteBackend`,
    which checks the endpoint and the key before anything else. A run binds
    once and passes the result to every step, so the check runs once and
    the steps share its connections and its workers.
    """
    if isinstance(backend, BoundBackend) or (backend is None and cfg.backend == "mock"):
        yield backend
        return
    with contextlib.closing(RemoteBackend(cfg) if backend is None else BoundBackend(cfg, backend)) as bound:
        yield bound


def _attempt_group(tasks, cfg: PredictorConfig, backend) -> list:
    """Up to ``max_retries + 1`` attempts at one prompt covering ``tasks``.

    ``backend`` is what :func:`bind_backend` yielded (None: the built-in
    mock, untimed). The parsed count must match ``len(tasks)``; once every
    attempt has failed, each task keeps its previous value, flagged as a
    fallback. One result per task, backend time split evenly across them;
    the group's prompt and final completion count once, on its first result.
    After an HTTP 429 or 503 with ``Retry-After``, the next attempt waits
    that long, at most ``request_timeout``; every other failure is retried
    at once. The wait is not backend time.
    """
    call = _mock_backend if backend is None else backend
    pair = build_prompt(tasks)
    elapsed_ms = 0.0
    completion = values = None
    for attempts in range(1, cfg.max_retries + 2):
        start = time.perf_counter()
        pause = 0.0
        try:
            completion = call(pair.system_text, pair.user_text, tasks)
            values = parse_completion(completion, expected_count=len(tasks), precision=tasks[0].precision)
        except TransportError as exc:
            completion = None
            if exc.status in (429, 503) and exc.retry_after is not None:  # the server asked for a pause
                pause = min(exc.retry_after, cfg.request_timeout)
        except CompletionParseError:
            pass
        if backend is not None:
            elapsed_ms += (time.perf_counter() - start) * 1000.0
        if values is not None:
            break
        if pause and attempts <= cfg.max_retries:
            time.sleep(pause)
    fallback = values is None
    if fallback:
        values = [task.previous for task in tasks]
    latency = elapsed_ms / len(tasks)
    tokens = estimate_tokens(pair.user_text) + estimate_tokens(completion or "")
    return [
        PredictionResult(task.node, task.t, value, attempts, latency, fallback, pair.user_text, completion,
                         0 if i else tokens)
        for i, (task, value) in enumerate(zip(tasks, values))
    ]


def predict_batch(tasks, cfg: PredictorConfig, backend=None) -> list:
    """Predict one value per task, preserving input order.

    Args:
        tasks: Nonempty list of tasks sharing one time index.
        cfg: Backend selection, retry cap, and concurrency bound. The
            bound applies to the remote backend and to a caller-supplied
            one; the built-in mock runs inline.
        backend: Optional callable ``(system_text, user_text, tasks) -> str``
            overriding the configured backend (used by tests and stubs), or
            what :func:`bind_backend` yielded, which a run passes to every
            step so that the steps share its workers and connections. Any
            other backend, or a remote configuration, is bound for this batch
            alone, and its workers and connections stop before returning.

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

    with bind_backend(cfg, backend) as bound:
        groups = prompt_groups(tasks, cfg.multi_task_prompt)
        if bound is None:  # the built-in mock, inline
            outs = [_attempt_group(group, cfg, None) for group in groups]
        else:
            outs = bound.map(lambda group: _attempt_group(group, cfg, bound), groups)
    return [result for out in outs for result in out]
