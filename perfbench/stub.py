"""Localhost chat-completions stub with a deterministic fault schedule.

The stub answers ``POST /v1/chat/completions`` in the OpenAI wire format
with the mock predictor's formula, computed from the prompt text (so the
rendered prompt is really needed). It speaks HTTP/1.1, so a client that
keeps connections alive can reuse them, and it accepts a new connection
only while fewer than ``max_connections`` are open.

Faults are keyed on sha256 of the user prompt plus that prompt's attempt
number, so which request fails does not depend on how client threads
interleave. A prompt's first attempt may get HTTP 500, a malformed JSON
body or a non-numeric completion; a small share of prompts fail every
attempt, so a run with bounded retry always has some fallbacks.
"""
import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FAULT_KINDS = ("http500", "malformed", "nonnumeric")
P_FIRST_FAULT = 0.05  # share of prompts whose first attempt fails
P_ALWAYS_FAULT = 0.005  # share of prompts that fail every attempt (subset of the above)

_PRECISION_RE = re.compile(r"Precision round to (\d+) decimal point")
_CONTEXT_RE = re.compile(r"Previous: ([-+]?[\d.]+), Neighbors: \[([^\]]*)\]")


def _unit(prompt, attempt):
    """Uniform [0, 1) draw and a fault kind from sha256(attempt, prompt)."""
    h = hashlib.sha256(f"{attempt}\n{prompt}".encode()).digest()
    return int.from_bytes(h[:8], "big") / 2.0**64, FAULT_KINDS[h[8] % len(FAULT_KINDS)]


def fault_for(prompt, attempt):
    """Fault injected on ``attempt`` (1-based) of ``prompt``, or None."""
    u, _ = _unit(prompt, 1)
    if u >= P_FIRST_FAULT or (attempt > 1 and u >= P_ALWAYS_FAULT):
        return None
    return _unit(prompt, attempt)[1]


def fails_every_attempt(prompt, attempts):
    return all(fault_for(prompt, a) is not None for a in range(1, attempts + 1))


def mock_answer(prompt):
    """The mock predictor's formula applied to the numbers in the prompt text."""
    match = _PRECISION_RE.search(prompt)
    precision = int(match.group(1)) if match else 1
    lines = []
    for prev, nbrs in _CONTEXT_RE.findall(prompt):
        values = [float(v) for v in nbrs.split(",") if v.strip()]
        value = float(prev)
        if values:
            value = 0.5 * value + 0.5 * (sum(values) / len(values))
        lines.append(f"{round(value, precision):.{precision}f}")
    return "\n".join(lines)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # an idle keep-alive connection is closed after this many seconds

    def do_POST(self):  # noqa: N802 (http.server naming)
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        try:
            messages = json.loads(body)["messages"]
            prompt = next(m["content"] for m in messages if m["role"] == "user")
        except (ValueError, KeyError, TypeError, StopIteration):
            self._send(400, b'{"error": "bad request"}')
            self.server.record(time.perf_counter() - start)
            return
        kind = fault_for(prompt, self.server.next_attempt(prompt))
        if kind == "http500":
            self._send(500, b'{"error": "injected fault"}')
        elif kind == "malformed":
            self._send(200, b'{"choices": [{"message": ')
        else:
            content = "no numeric answer available" if kind == "nonnumeric" else mock_answer(prompt)
            payload = {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]}
            self._send(200, json.dumps(payload).encode())
        self.server.record(time.perf_counter() - start)

    def _send(self, status, data):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):  # noqa: A002 (http.server signature)
        pass


class StubServer(ThreadingHTTPServer):
    """Chat-completions stub on 127.0.0.1 with request and connection counters."""

    daemon_threads = True

    def __init__(self, max_connections):
        super().__init__(("127.0.0.1", 0), _Handler)
        self._slots = threading.BoundedSemaphore(max_connections)
        self._lock = threading.Lock()
        self._thread = None
        self.requests = 0
        self.connections = 0
        self.service_s = 0.0
        self.open_connections = 0
        self.max_open_connections = 0
        self._attempts = {}  # prompt -> requests seen so far

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def next_attempt(self, prompt):
        with self._lock:
            n = self._attempts.get(prompt, 0) + 1
            self._attempts[prompt] = n
            return n

    def record(self, seconds):
        with self._lock:
            self.requests += 1
            self.service_s += seconds

    def process_request(self, request, client_address):
        self._slots.acquire()
        with self._lock:
            self.connections += 1
            self.open_connections += 1
            self.max_open_connections = max(self.max_open_connections, self.open_connections)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self._lock:
            self.open_connections -= 1
        self._slots.release()

    def counters(self):
        with self._lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "service_s": self.service_s,
                "max_open_connections": self.max_open_connections,
            }

    def __enter__(self):
        self._thread = threading.Thread(target=self.serve_forever, name="chat-stub", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        self._thread.join(timeout=30)
        self.server_close()
        return False
