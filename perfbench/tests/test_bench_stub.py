import http.client
import json
import threading

import stub as chat_stub
from graphfill.predictors import mock_predict
from graphfill.prompts import NodeTask, render_user_prompt

N_PROMPTS = 300


def _prompt(i):
    task = NodeTask(node=i, t=100 + i % 7, previous=(i % 13) / 10.0, neighbor_values=(0.3, -1.2, i / 50.0))
    return render_user_prompt([task])


def _client(url_port, prompts, outcomes):
    """Send each prompt up to three times over one keep-alive connection."""
    conn = http.client.HTTPConnection("127.0.0.1", url_port, timeout=30)
    try:
        for prompt in prompts:
            seq = []
            for _ in range(3):
                body = json.dumps({"messages": [{"role": "system", "content": "s"},
                                                {"role": "user", "content": prompt}]})
                conn.request("POST", "/v1/chat/completions", body, {"Content-Type": "application/json"})
                resp = conn.getresponse()
                data = resp.read()
                if resp.status != 200:
                    seq.append("http500")
                    continue
                try:
                    content = json.loads(data)["choices"][0]["message"]["content"]
                except ValueError:
                    seq.append("malformed")
                    continue
                seq.append("ok" if any(ch.isdigit() for ch in content) else "nonnumeric")
                if seq[-1] == "ok":
                    break
            outcomes[prompt] = seq
    finally:
        conn.close()


def _run_schedule(order):
    prompts = [_prompt(i) for i in order]
    outcomes = {}
    with chat_stub.StubServer(max_connections=2) as server:
        port = server.server_address[1]
        threads = [threading.Thread(target=_client, args=(port, prompts[k::2], outcomes)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        counters = server.counters()
    return outcomes, counters


def test_fault_schedule_is_independent_of_thread_interleaving():
    forward, counts_a = _run_schedule(range(N_PROMPTS))
    backward, counts_b = _run_schedule(reversed(range(N_PROMPTS)))
    assert forward == backward
    assert counts_a["requests"] == counts_b["requests"] == sum(len(s) for s in forward.values())
    assert counts_a["max_open_connections"] <= 2 and counts_a["connections"] == 2
    for prompt, seq in forward.items():
        expected = [chat_stub.fault_for(prompt, a) or "ok" for a in range(1, len(seq) + 1)]
        assert seq == expected
    assert any(s[0] != "ok" for s in forward.values())


def test_some_prompts_fail_every_attempt():
    prompts = [_prompt(i) for i in range(4000)]
    doomed = sum(chat_stub.fails_every_attempt(p, 3) for p in prompts)
    first = sum(chat_stub.fault_for(p, 1) is not None for p in prompts)
    assert 0 < doomed < first < 0.1 * len(prompts)


def test_answer_is_the_mock_formula():
    task = NodeTask(node=4, t=9, previous=1.5, neighbor_values=(0.5, -0.7, 2.0), precision=1)
    assert chat_stub.mock_answer(render_user_prompt([task])) == f"{mock_predict(task):.1f}"
    lonely = NodeTask(node=4, t=9, previous=-0.3, neighbor_values=(), precision=2)
    assert chat_stub.mock_answer(render_user_prompt([lonely])) == "-0.30"
