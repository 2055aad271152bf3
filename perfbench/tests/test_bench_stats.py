import threading

import pytest

import run
import tracing


def test_percentile_nearest_rank():
    samples = list(range(1, 201))
    assert run.percentile(samples, 50) == 100
    assert run.percentile(samples, 95) == 190
    assert run.percentile(reversed(samples), 95) == 190


def test_percentile_needs_ten_samples_beyond_it():
    run.percentile(range(200), 95)  # 10 beyond rank 190
    with pytest.raises(ValueError, match="only 9 beyond"):
        run.percentile(range(199), 95)
    with pytest.raises(ValueError):
        run.percentile(range(15), 50)


def _span(sid, parent, name, start, end, info=None, err=None):
    return (sid, parent, name, start, end, info, err)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, "root", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),  # a and b overlap, as on two worker threads
        _span(3, 1, "b", 3.0, 6.0),
        _span(4, 2, "c", 2.0, 3.0),
        _span(5, 1, "late", 9.5, 11.0),  # clipped to the parent's interval
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_metrics_on_a_synthetic_step():
    spans = [
        _span(1, None, "runner.train_filter", 0.0, 2.0, info=150),
        _span(2, 1, "spectral.graph_convolve", 0.5, 1.0, info=800),
        _span(3, None, "runner.predict_batch", 3.0, 5.0, info=[2, 3, 1]),
        _span(4, 3, "predictors.build_prompt", 3.0, 3.5, info=100),
        _span(5, 3, "predictors.remote_complete", 3.2, 4.2, err="TransportError"),
        _span(6, 3, "predictors.remote_complete", 4.2, 4.4),
        _span(7, 3, "predictors.parse_completion", 4.4, 4.5, err="CompletionParseError"),
    ]
    m = tracing.layer_metrics(spans, run_s=6.0)
    assert m["spectral.train_s"] == pytest.approx(1.5)
    assert m["spectral.train_iters"] == 150
    assert m["spectral.convolve_bytes"] == 800
    assert m["predictors.batch_s"] == pytest.approx(2.0)
    assert m["predictors.dispatch_overhead_s"] == pytest.approx(2.0 - 1.5)
    assert (m["predictors.tasks"], m["predictors.attempts"], m["predictors.fallbacks"]) == (2, 3, 1)
    assert m["predictors.backend_calls"] == 2 and m["predictors.transport_failures"] == 1
    assert m["predictors.useful_ratio"] == pytest.approx(0.5)
    assert m["prompts.parse_failures"] == 1 and m["prompts.prompt_chars"] == 100
    assert m["runner.self_s"] == pytest.approx(6.0 - 2.0 - 2.0)
    assert m["baselines.steps"] == 0 and m["baselines.glms_s"] == 0


def test_worker_thread_spans_are_children_of_the_open_batch():
    tracer = tracing.Tracer()
    leaf = tracer._wrap(lambda x: x + 1, "predictors.mock_predict", None)

    def batch(xs):
        out = []
        workers = [threading.Thread(target=lambda x=x: out.append(leaf(x))) for x in xs]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        return out

    wrapped_batch = tracer._wrap(batch, tracing.BATCH, None)
    assert sorted(wrapped_batch([1, 2])) == [2, 3]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span)
    (batch_span,) = by_name[tracing.BATCH]
    assert batch_span[1] is None
    assert [s[1] for s in by_name["predictors.mock_predict"]] == [batch_span[0]] * 2
