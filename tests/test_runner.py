"""Tests for the online loop, run configuration, checkpoints, and repeats."""
import dataclasses
import glob
import importlib.util
import json
import os
import re
import threading
import types
import typing
from pathlib import Path

import numpy as np
import pytest
from helpers import write_knn_run_fixture, write_run_fixture
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill import baselines as bl
from graphfill import files, graphs, prompts, runner, spectral
from graphfill.metrics import rmse
from graphfill.graphs import build_graph, gft, laplacian, observed_layout
from graphfill.predictors import PredictorConfig, TransportError, estimate_tokens
from graphfill.runner import (
    RunConfig,
    execute_run,
    init_estimate,
    prepare_run,
    replay_from_checkpoint,
)
from graphfill.signals import Observation, ObservationModel, TimeVaryingSignal, load_signal_csv, observe, sample_mask
from graphfill.spectral import SpectralFilter, denoise, filter_operator, mae


def base_config(edge_path, signal_path, **overrides):
    payload = {
        "graph": {"source": "edges", "edge_list": edge_path, "n_nodes": 30},
        "signal": {"path": signal_path, "layout": "nodes-as-rows"},
        "t_split": 100,
        "observation": {"ratio": 0.7, "seed": 11, "noise_variance": 0.2},
        "train": {
            "learning_rate": 0.2,
            "max_iters": 2000,
            "patience": 50,
            "tol": 0.0,
            "augment_copies": 10,
            "window": 50,
        },
        "predictor": {"backend": "mock"},
        "baselines": ["last_value", "neighbor_mean"],
        "repeats": 1,
        "precision": 1,
    }
    payload.update(overrides)
    return RunConfig.from_dict(payload)


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runfix")
    edge_path, signal_path, _, _ = write_run_fixture(tmp)
    return edge_path, signal_path


class TestInitEstimate:
    def test_all_observed_takes_last_train_column(self):
        rng = np.random.default_rng(0)
        train = TimeVaryingSignal(rng.normal(size=(5, 8)))
        model = ObservationModel(observed=np.ones(5, dtype=bool), noise_variance=0.0, seed=0)
        assert np.array_equal(init_estimate(train, model), train.values[:, -1])

    def test_constant_signal(self):
        train = TimeVaryingSignal(np.full((4, 6), 3.25))
        model = ObservationModel(
            observed=np.array([True, False, True, False]), noise_variance=0.0, seed=0
        )
        assert np.array_equal(init_estimate(train, model), np.full(4, 3.25))

    def test_p3_missing_middle_gets_mean_of_observed(self):
        train = TimeVaryingSignal(np.array([[1.0, 2.0], [5.0, 9.0], [3.0, 4.0]]))
        model = ObservationModel(
            observed=np.array([True, False, True]), noise_variance=0.0, seed=0
        )
        x0 = init_estimate(train, model)
        assert np.array_equal(x0, [2.0, 3.0, 4.0])


class TestDegenerateLosslessRun:
    def test_perfect_reconstruction(self, fixture_paths, monkeypatch):
        edge_path, signal_path = fixture_paths
        cfg = base_config(
            edge_path,
            signal_path,
            observation={"ratio": 1.0, "seed": 1, "noise_variance": 0.0},
            train={"learning_rate": 0.0, "max_iters": 1},
            baselines=[],
        )
        settled = record_estimates(monkeypatch)
        execution = execute_run(cfg)
        truth = execution.context.test_signal.values
        assert np.max(np.abs(np.array(settled)[:, 0].T - truth)) < 1e-9


class TestOnlineLoopInvariants:
    def test_graph_gains_no_attribute_in_a_run(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        for transcript in (False, True):
            cfg = base_config(edge_path, signal_path, baselines=list(runner.BASELINES), transcript=transcript)
            g = execute_run(cfg).context.graph
            assert set(vars(g)) == {f.name for f in dataclasses.fields(g)}
        assert not hasattr(g, "observed_layout")

    def test_observed_node_passthrough(self, fixture_paths, monkeypatch):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[])
        settled = record_estimates(monkeypatch)
        execution = execute_run(cfg)
        ctx = execution.context
        rep = execution.repeats[0]
        model = rep.model
        op = filter_operator(rep.train_result.filter, ctx.basis)
        x_prev = init_estimate(ctx.train_signal, model)
        for k in range(ctx.test_signal.n_steps):
            t_abs = ctx.test_signal.t0 + k
            obs = observe(ctx.test_signal.values[:, k], model, t_abs)
            o_tilde = denoise(op, obs, x_prev)
            x_hat = settled[k][0]
            assert np.array_equal(x_hat[model.observed], o_tilde[model.observed])
            x_prev = x_hat

    @pytest.mark.parametrize("transcript", [False, True])
    def test_operator_built_once_and_applied_once_per_step(self, fixture_paths, monkeypatch, transcript):
        # The filter is checked against the basis when its operator is built, once per repeat; a step makes
        # one graph_convolve call and no other check of the pairing.
        built, convolved, refs = [], [], []
        monkeypatch.setattr(runner, "filter_operator", lambda *a: built.append(1) or filter_operator(*a))
        convolve = spectral.graph_convolve
        monkeypatch.setattr(spectral, "graph_convolve", lambda *a: convolved.append(1) or convolve(*a))
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=list(runner.BASELINES), repeats=2, transcript=transcript)
        ctx = prepare_run(cfg)
        basis_ref = type(ctx.basis).ref
        monkeypatch.setattr(type(ctx.basis), "ref", lambda self: refs.append(1) or basis_ref(self))
        for r in range(2):
            runner.run_repeat(ctx, cfg, r, (runner.PRIMARY_METHOD, *runner.BASELINES))
        steps = ctx.test_signal.n_steps
        assert (len(built), len(convolved)) == (2, 2 * steps)
        assert len(refs) == 2 * 2  # once by each training, once by each operator build

    def test_aggregate_ordering_against_naive_baselines(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path)
        report = execute_run(cfg).report
        primary = report.method_aggregates["graphfill"]["rmse"][0]
        assert primary < report.method_aggregates["last_value"]["rmse"][0]
        assert primary < report.method_aggregates["neighbor_mean"]["rmse"][0]


class TestDeterminismAndRepeats:
    def test_identical_configs_give_identical_reports(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path)
        a = execute_run(cfg).report.to_dict()
        b = execute_run(cfg).report.to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_gives_different_report(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg_a = base_config(edge_path, signal_path)
        cfg_b = base_config(
            edge_path, signal_path, observation={"ratio": 0.7, "seed": 12, "noise_variance": 0.2}
        )
        a = execute_run(cfg_a).report
        b = execute_run(cfg_b).report
        assert not np.array_equal(a.per_t_rmse, b.per_t_rmse)

    def test_repeats_use_distinct_seeds_and_spread(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, repeats=3, baselines=[])
        execution = execute_run(cfg)
        seeds = [rep.model.seed for rep in execution.repeats]
        assert seeds == [11, 12, 13]
        assert execution.report.aggregate_rmse[1] > 0.0


@pytest.fixture(scope="module")
def checkpointed_run(fixture_paths, tmp_path_factory):
    """The config of a run with two baselines, and the path of its state after an abort at step 25."""
    edge_path, signal_path = fixture_paths
    out = str(tmp_path_factory.mktemp("checkpointed"))
    cfg = base_config(edge_path, signal_path, output_dir=out, checkpoint_every=25)
    return cfg, abort_at(cfg, 25)


class HalfWrite:
    """A text file whose first write stores half of the text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def failing_open(name, opens=None):
    """``open`` that hands out a :class:`HalfWrite` for the temporary file of ``name``: at each of its ``opens``
    (counted from 1), or at every one."""
    real_open, opened = open, []

    def opener(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if os.path.basename(file) != name + ".tmp":
            return fh
        opened.append(file)
        return HalfWrite(fh) if opens is None or len(opened) in opens else fh

    return opener


class EchoBackend:
    """A text backend that answers each task with its previous value; raises on call ``fail_at``."""

    def __init__(self, fail_at=None):
        self.calls, self.fail_at = 0, fail_at

    def __call__(self, system_text, user_text, tasks):
        self.calls += 1
        if self.calls == self.fail_at:
            raise KeyError("backend fell over")
        return f"{tasks[0].previous:.1f}"


def read_checkpoint(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


TEST_STEPS = 100  # the fixture's test horizon


def abort_at(cfg, k, repeat=0, **run_kwargs):
    """Run ``cfg`` until its ``neighbor_mean`` baseline raises at test step ``k`` of repeat ``repeat``; returns the
    repeat's state file, which then holds the state after step ``k - 1``."""
    step, calls = bl.neighbor_mean_step, []

    def raising(estimate, obs, layout):
        calls.append(obs.t)
        if len(calls) == repeat * TEST_STEPS + k + 1:
            raise KeyError("baseline fell over")
        return step(estimate, obs, layout)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bl, "neighbor_mean_step", raising)
        with pytest.raises(KeyError):
            execute_run(cfg, **run_kwargs)
    return os.path.join(cfg.output_dir, "checkpoints", f"repeat{repeat}.json")


def record_writes(monkeypatch):
    """Keep each state a run writes, as its file's bytes right after the write."""
    written, write = [], runner._write_state

    def recording(checkpoint_dir, repeat_index, *args):
        write(checkpoint_dir, repeat_index, *args)
        written.append(Path(runner._state_path(checkpoint_dir, repeat_index)).read_bytes())

    monkeypatch.setattr(runner, "_write_state", recording)
    return written


def record_estimates(monkeypatch):
    """Keep every method's estimate after each settled step: one (methods, n) array a step, in order."""
    rows, settle = [], runner._Block.settle

    def recording(block, k_next):
        rows.extend(block.estimates[:, 1:1 + k_next - block.k_next].transpose(1, 0, 2).copy())
        return settle(block, k_next)

    monkeypatch.setattr(runner._Block, "settle", recording)
    return rows


ALL_BASELINES = ["glms", "gnlms", "last_value", "neighbor_mean"]
ESTIMATES_OF_N = "estimates must be finite numbers of shape (30,) for every method"
SCORES_OF_25 = "scores must be finite numbers of shape (4, 25) for every method"


class TestAbortPersistence:
    def test_module_error_persists_partial_trace(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "aborting")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out)
        with pytest.raises(KeyError):
            execute_run(cfg, backend=EchoBackend(fail_at=31))
        ckpt_dir = os.path.join(out, "checkpoints")
        assert os.listdir(ckpt_dir) == ["repeat0.json"]
        path = os.path.join(ckpt_dir, "repeat0.json")
        payload = read_checkpoint(path)
        assert 1 <= payload["k_next"] < TEST_STEPS
        assert np.shape(payload["scores"]["graphfill"]) == (4, payload["k_next"])
        # The persisted state is a valid resume point: the resumed repeat finishes and says so in the same file.
        resumed = replay_from_checkpoint(cfg, path)
        assert resumed.scores["graphfill"].shape == (4, TEST_STEPS)
        assert read_checkpoint(path)["k_next"] == TEST_STEPS

    def test_aborted_state_is_the_last_completed_step(self, fixture_paths, tmp_path, monkeypatch):
        # The primary method has advanced (and spent tokens) when the last baseline raises at step 30:
        # the aborted state must still be the state after step 29, as the periodic checkpoint wrote it.
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, output_dir=str(tmp_path / "aborting"), checkpoint_every=30)
        written = record_writes(monkeypatch)
        path = abort_at(cfg, 30)
        assert os.listdir(os.path.dirname(path)) == ["repeat0.json"]
        assert len(written) == 2 and written[0] == written[1]  # the checkpoint after step 29, then the abort
        state = read_checkpoint(path)
        assert state["k_next"] == 30 and state["tokens"] > 0


class TestCheckpointReplay:
    def test_replay_resumes_every_baseline(self, fixture_paths, tmp_path, monkeypatch):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=ALL_BASELINES, output_dir=str(tmp_path / "full"),
                          checkpoint_every=25)
        settled = record_estimates(monkeypatch)
        execution = execute_run(cfg)
        original, truth = execution.repeats[0], execution.context.test_signal.values
        for j, (name, rows) in enumerate(original.scores.items()):  # each method's scores are of its own estimates
            assert [mae(col, x[j]) for col, x in zip(truth.T, settled, strict=True)] == rows[0].tolist(), name
        aborting = dataclasses.replace(cfg, output_dir=str(tmp_path / "aborting"))
        path = abort_at(aborting, 50)
        assert list(read_checkpoint(path)["estimates"]) == ["graphfill", *ALL_BASELINES]
        resumed = replay_from_checkpoint(aborting, path)
        assert Path(path).read_bytes() == (tmp_path / "full" / "checkpoints" / "repeat0.json").read_bytes()
        assert list(resumed.scores) == ["graphfill", *ALL_BASELINES]
        for name, rows in original.scores.items():
            assert resumed.scores[name].tobytes() == rows.tobytes()
        assert resumed.token_estimate == original.token_estimate

    def test_replay_of_a_checkpoint_listing_a_baseline_first_reads_the_primary_rows(self, fixture_paths, tmp_path):
        # The mock's prompt inputs are read back from the primary's rows, wherever the checkpoint lists it.
        cfg = base_config(*fixture_paths, baselines=ALL_BASELINES, output_dir=str(tmp_path / "run"),
                          checkpoint_every=25)
        original = execute_run(cfg).repeats[0]
        state = read_checkpoint(abort_at(cfg, 50))
        order = ["glms", "graphfill", "gnlms", "last_value", "neighbor_mean"]
        for key in ("estimates", "scores"):
            state[key] = {name: state[key][name] for name in order}
        path = tmp_path / "reordered.json"
        path.write_text(json.dumps(state), encoding="utf-8")
        resumed = replay_from_checkpoint(cfg, str(path))
        assert list(resumed.scores) == order
        assert resumed.token_estimate == original.token_estimate > state["tokens"] > 0
        for name, rows in original.scores.items():
            assert resumed.scores[name].tobytes() == rows.tobytes(), name

    def test_resume_of_a_repeat_aborted_by_the_backend_matches_the_uninterrupted_run(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=ALL_BASELINES, repeats=2,
                          output_dir=str(tmp_path / "full"))
        full = execute_run(cfg, backend=EchoBackend())
        first = EchoBackend()
        execute_run(dataclasses.replace(cfg, repeats=1, output_dir=None), backend=first)  # counts repeat 0's calls
        aborting = dataclasses.replace(cfg, output_dir=str(tmp_path / "aborting"))
        with pytest.raises(KeyError):
            execute_run(aborting, backend=EchoBackend(fail_at=first.calls + 300))
        ckpt_dir, full_dir = tmp_path / "aborting" / "checkpoints", tmp_path / "full" / "checkpoints"
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["repeat0.json", "repeat1.json"]
        assert (ckpt_dir / "repeat0.json").read_bytes() == (full_dir / "repeat0.json").read_bytes()  # finished
        aborted = str(ckpt_dir / "repeat1.json")
        state = read_checkpoint(aborted)
        assert 0 < state["k_next"] < TEST_STEPS and state["repeat"] == 1 and state["seed"] == 12

        resumed = replay_from_checkpoint(aborting, aborted, backend=EchoBackend())
        original = full.repeats[1]
        assert list(resumed.scores) == ["graphfill", *ALL_BASELINES]
        for name, rows in original.scores.items():
            assert resumed.scores[name].tobytes() == rows.tobytes()
        assert resumed.token_estimate == original.token_estimate
        assert Path(aborted).read_bytes() == (full_dir / "repeat1.json").read_bytes()
        report = runner._assemble_report(full.context, cfg, [full.repeats[0], resumed], "graphfill")
        assert report.to_dict() == full.report.to_dict()

    def test_baseline_only_resume_matches_the_uninterrupted_run(self, fixture_paths, tmp_path, monkeypatch):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=ALL_BASELINES, repeats=2,
                          output_dir=str(tmp_path / "full"), checkpoint_every=25)
        full = execute_run(cfg, with_primary=False)
        aborting = dataclasses.replace(cfg, output_dir=str(tmp_path / "aborting"))
        path = abort_at(aborting, 50, repeat=1, with_primary=False)

        def forbidden(*args, **kwargs):
            raise AssertionError("resuming the baselines must not train or dispatch")

        monkeypatch.setattr(runner, "train_filter", forbidden)
        monkeypatch.setattr(runner, "predict_batch", forbidden)
        resumed = replay_from_checkpoint(aborting, path)
        original = full.repeats[1]
        assert resumed.train_result is None and resumed.token_estimate == 0
        for name, rows in original.scores.items():
            assert resumed.scores[name].tobytes() == rows.tobytes()
        assert Path(path).read_bytes() == (tmp_path / "full" / "checkpoints" / "repeat1.json").read_bytes()
        report = runner._assemble_report(full.context, cfg, [full.repeats[0], resumed], "glms")
        assert report.to_dict() == full.report.to_dict()

    def test_resume_checkpoints_and_its_aborted_state_resumes(self, fixture_paths, tmp_path, monkeypatch):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, output_dir=str(tmp_path / "full"), checkpoint_every=25)
        written = record_writes(monkeypatch)
        full = execute_run(cfg).repeats[0]
        full_states = written[:]  # steps 25, 50 and 75, then the finished repeat
        aborting = dataclasses.replace(cfg, output_dir=str(tmp_path / "aborting"))
        path = abort_at(aborting, 50)
        step = bl.neighbor_mean_step

        def raising_at_step_94(estimate, obs, layout):
            if obs.t == 100 + 94:
                raise KeyError("baseline fell over")
            return step(estimate, obs, layout)

        written.clear()
        with monkeypatch.context() as patch:
            patch.setattr(bl, "neighbor_mean_step", raising_at_step_94)
            with pytest.raises(KeyError):
                replay_from_checkpoint(aborting, path)
        # The resumed repeat checkpointed at step 75 as the full run did, then wrote its abort state.
        assert len(written) == 2 and written[0] == full_states[2]
        assert read_checkpoint(path)["k_next"] == 94
        resumed = replay_from_checkpoint(aborting, path)
        for name, rows in full.scores.items():
            assert resumed.scores[name].tobytes() == rows.tobytes()
        assert resumed.token_estimate == full.token_estimate
        assert Path(path).read_bytes() == full_states[-1]
        assert os.listdir(os.path.dirname(path)) == ["repeat0.json"]

    def test_a_replay_rewrites_only_its_own_repeats_state(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, output_dir=str(tmp_path / "full"), repeats=2, checkpoint_every=25)
        execute_run(cfg)
        aborting = dataclasses.replace(cfg, output_dir=str(tmp_path / "aborting"))
        path = abort_at(aborting, 50, repeat=1)
        ckpt_dir, full_dir = Path(path).parent, tmp_path / "full" / "checkpoints"
        finished = (ckpt_dir / "repeat0.json").read_bytes()
        assert finished == (full_dir / "repeat0.json").read_bytes()
        replay_from_checkpoint(aborting, path)
        assert (ckpt_dir / "repeat0.json").read_bytes() == finished
        assert Path(path).read_bytes() == (full_dir / "repeat1.json").read_bytes()

    def test_a_finished_repeats_state_holds_its_results_and_replays_without_a_step(self, fixture_paths, tmp_path,
                                                                                   monkeypatch):
        cfg = base_config(*fixture_paths, baselines=ALL_BASELINES, repeats=2, output_dir=str(tmp_path / "run"),
                          checkpoint_every=25)
        repeats = execute_run(cfg).repeats
        ckpt_dir = tmp_path / "run" / "checkpoints"
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["repeat0.json", "repeat1.json"]
        monkeypatch.setattr(runner, "observe", None)  # a replay that walked a step would call it
        for r, original in enumerate(repeats):
            path = ckpt_dir / f"repeat{r}.json"
            final = path.read_bytes()
            state = json.loads(final)
            assert state["k_next"] == TEST_STEPS and state["tokens"] == original.token_estimate > 0
            resumed = replay_from_checkpoint(cfg, str(path))
            assert resumed.token_estimate == original.token_estimate
            for name, rows in original.scores.items():
                assert np.array(state["scores"][name]).tobytes() == rows.tobytes(), name
                assert resumed.scores[name].tobytes() == rows.tobytes(), name
            assert path.read_bytes() == final

    def test_remote_config_without_endpoint_fails_before_the_basis(self, checkpointed_run, monkeypatch):
        cfg, path = checkpointed_run

        def no_eigh(*args, **kwargs):
            raise AssertionError("the basis was built before the backend was bound")

        monkeypatch.delenv("OPENAI_BASE_URL", raising=False)
        monkeypatch.setattr(runner, "gft", no_eigh)
        remote = dataclasses.replace(cfg, predictor=PredictorConfig(backend="remote"))
        with pytest.raises(ValueError, match=re.escape("remote backend needs an endpoint URL")):
            replay_from_checkpoint(remote, path)

    def test_each_walked_step_is_observed_once_in_order(self, fixture_paths, tmp_path, monkeypatch):
        # The benchmark's step clock stamps each step's start at its runner.observe call.
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "run")
        cfg = base_config(edge_path, signal_path, output_dir=out, checkpoint_every=25)
        observed_t = []
        real_observe = runner.observe

        def recording_observe(x_g, model, t):
            observed_t.append(t)
            return real_observe(x_g, model, t)

        monkeypatch.setattr(runner, "observe", recording_observe)
        t0 = execute_run(cfg).context.test_signal.t0
        assert observed_t == [t0 + k for k in range(100)]
        path = abort_at(cfg, 75)
        observed_t.clear()
        replay_from_checkpoint(cfg, path)
        assert observed_t == [t0 + k for k in range(75, 100)]

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (None, "Expecting ','"),
            (lambda p: p.pop("tokens"), "checkpoint has no key 'tokens'"),
            (lambda p: p.update(seed="11"), "repeat, seed, k_next and tokens must be integers"),
            (lambda p: p.update(tokens=-10**9), f"tokens {-10**9} is negative"),
            (lambda p: p.update(repeat=1), "repeat 1 is outside [0, 1)"),
            (lambda p: p.update(repeat=-1), "repeat -1 is outside [0, 1)"),
            (lambda p: p.update(seed=1), "seed 1 is not repeat 0's seed 11"),
            (lambda p: p.update(k_next=-1), "k_next -1 is outside [0, 100]"),
            (lambda p: p.update(k_next=101), "k_next 101 is outside [0, 100]"),
            (lambda p: p["estimates"]["graphfill"].pop(), ESTIMATES_OF_N),
            (lambda p: p["scores"]["last_value"].pop(), SCORES_OF_25),
            (lambda p: p["estimates"]["last_value"].__setitem__(3, None), ESTIMATES_OF_N),
            (lambda p: p.update(k_next=24), "scores must be finite numbers of shape (4, 24) for every method"),
            (lambda p: p["scores"].pop("neighbor_mean"), SCORES_OF_25),
            (lambda p: p["estimates"].update(glms=p["estimates"]["last_value"]),
             "methods ['graphfill', 'last_value', 'neighbor_mean', 'glms'] are not among the config's "
             "['graphfill', 'last_value', 'neighbor_mean']"),
            (lambda p: p.update(estimates={"gcn": p["estimates"]["last_value"]}),
             "methods ['gcn'] are not among the config's ['graphfill', 'last_value', 'neighbor_mean']"),
            (lambda p: p.update(estimates={}), "methods [] are not among the config's"),
        ],
        ids=["not-json", "missing-key", "string-seed", "negative-tokens", "repeat-past-repeats", "repeat-negative",
             "seed-of-another-run", "k_next-negative", "k_next-past-horizon", "short-estimate",
             "short-scores", "null-estimate", "scores-past-k_next", "scores-missing-method", "baseline-not-configured",
             "unknown-method-only", "no-method"],
    )
    def test_malformed_checkpoint_rejected_naming_the_file(self, checkpointed_run, tmp_path, mutate, message):
        cfg, path = checkpointed_run
        payload = read_checkpoint(path)
        bad = tmp_path / "bad.json"
        if mutate is None:
            bad.write_text(json.dumps(payload)[:-5])
        else:
            mutate(payload)
            bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{bad}: {message}")):
            replay_from_checkpoint(cfg, str(bad))

    def test_rerun_clears_the_checkpoints_of_an_earlier_run(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = tmp_path / "run[1]"  # glob metacharacters in the path match only themselves
        cfg = base_config(edge_path, signal_path, output_dir=str(out), repeats=2, checkpoint_every=40)
        execute_run(cfg)
        ckpt_dir = out / "checkpoints"
        state = (ckpt_dir / "repeat0.json").read_bytes()
        for name in ("repeat0_aborted.json", "repeat0_step000040.json"):  # names written by earlier versions
            (ckpt_dir / name).write_bytes(state)
        (ckpt_dir / "notes.json").write_text("{}")
        assert len(list(ckpt_dir.iterdir())) == 5
        rerun = dataclasses.replace(cfg, repeats=1, observation=dataclasses.replace(cfg.observation, seed=12))
        execute_run(rerun)
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["notes.json", "repeat0.json"]
        assert read_checkpoint(ckpt_dir / "repeat0.json")["seed"] == 12

    def test_rerun_leaves_no_artifact_of_an_earlier_run(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = tmp_path / "run[1]"  # glob metacharacters in the path match only themselves
        cfg = base_config(edge_path, signal_path, output_dir=str(out), repeats=2, transcript=True)
        execute_run(cfg)
        assert {"filter_repeat1.json", "transcript.jsonl"} <= {p.name for p in out.iterdir()}
        (out / "notes.txt").write_text("kept")
        report = execute_run(dataclasses.replace(cfg, repeats=1, transcript=False)).report
        assert report.transcript_path is None
        assert sorted(p.name for p in out.iterdir()) == ["checkpoints", "config.json", "filter_repeat0.json",
                                                         "notes.txt", "report.csv", "report.json", "report.md"]

    @pytest.mark.parametrize("opens, k_next", [({2, 3}, 25), ({2}, 50)], ids=["abort-write-fails", "abort-written"])
    def test_failed_write_leaves_earlier_checkpoint_intact(self, fixture_paths, tmp_path, monkeypatch, opens, k_next):
        # The write at step 50 fails. The abort state written after it replaces the state of step 25, unless its
        # write fails too.
        edge_path, signal_path = fixture_paths
        written = record_writes(monkeypatch)
        execute_run(base_config(edge_path, signal_path, baselines=[], output_dir=str(tmp_path / "clean"),
                                checkpoint_every=25))
        out = str(tmp_path / "crashed")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out, checkpoint_every=25)
        monkeypatch.setattr(files, "open", failing_open("repeat0.json", opens), raising=False)
        with pytest.raises(OSError, match="disk full"):
            execute_run(cfg)
        ckpt_dir = os.path.join(out, "checkpoints")
        assert os.listdir(ckpt_dir) == ["repeat0.json"]
        with open(os.path.join(ckpt_dir, "repeat0.json"), "rb") as fh:
            assert fh.read() == written[k_next // 25 - 1]  # the clean run's state at k_next


class TestArtifacts:
    def test_run_directory_layout(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "artifacts")
        cfg = base_config(edge_path, signal_path, output_dir=out, transcript=True)
        report = execute_run(cfg).report
        assert os.path.exists(os.path.join(out, "config.json"))
        assert os.path.exists(os.path.join(out, "filter_repeat0.json"))
        assert os.path.exists(os.path.join(out, "report.json"))
        assert os.path.exists(os.path.join(out, "report.csv"))
        assert os.path.exists(os.path.join(out, "report.md"))
        assert report.transcript_path == os.path.join(out, "transcript.jsonl")
        with open(report.transcript_path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        assert entries, "transcript should not be empty"
        sample = entries[0]
        assert {"t", "node", "prompt", "completion", "parsed", "attempts", "latency_ms"} <= set(sample)

    @pytest.mark.parametrize(
        "name", ["config.json", "filter_repeat0.json", "transcript.jsonl", "report.json", "report.csv", "report.md"]
    )
    def test_failed_write_leaves_earlier_artifact_intact(self, fixture_paths, tmp_path, monkeypatch, name):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "artifacts")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out, transcript=True)
        execution = execute_run(cfg)
        runner._write_artifacts(cfg, execution)
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            before = fh.read()
        monkeypatch.setattr(files, "open", failing_open(name), raising=False)
        with pytest.raises(OSError, match="disk full"):
            runner._write_artifacts(cfg, execution)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert not glob.glob(os.path.join(out, "*.tmp"))

    def test_config_snapshot_embedded(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[])
        report = execute_run(cfg).report
        assert report.config_snapshot["t_split"] == 100
        assert report.config_snapshot["observation"]["ratio"] == 0.7
        assert "basis_ref" in report.config_snapshot["derived"]

    def test_report_records_the_numeric_environment(self, fixture_paths, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "")
        out = tmp_path / "out"
        execute_run(base_config(*fixture_paths, baselines=[], output_dir=str(out)))
        derived = json.loads((out / "report.json").read_text())["config_snapshot"]["derived"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert derived["environment"] == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": ""},
        }


class TestTokenEstimate:
    # The transcript of a logged run gives the exchanges; an unlogged run takes the array path.
    @pytest.mark.parametrize("multi_task_prompt, transcript", [
        pytest.param(False, True, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="False-array"),
        pytest.param(True, False, id="True-array"),
    ])
    def test_each_group_prompt_and_completion_count_once(self, fixture_paths, multi_task_prompt, transcript):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[], transcript=True,
                          predictor={"backend": "mock", "multi_task_prompt": multi_task_prompt})
        logged = execute_run(cfg)
        execution = logged if transcript else execute_run(dataclasses.replace(cfg, transcript=False))
        entries = [e for e in logged.repeats[0].transcript if e["prompt"] is not None]
        exchanges = {(e["t"], e["prompt"], e["completion"]) for e in entries}
        per_exchange = {x: estimate_tokens(x[1]) + estimate_tokens(x[2] or "") for x in exchanges}
        assert execution.report.token_estimate == sum(per_exchange.values())
        per_entry = sum(per_exchange[e["t"], e["prompt"], e["completion"]] for e in entries)
        if multi_task_prompt:
            # One exchange per step, however many tasks it covers.
            assert len(exchanges) == len({e["t"] for e in entries}) < len(entries)
            assert execution.report.token_estimate < per_entry
        else:
            assert len(exchanges) == len(entries)
            assert execution.report.token_estimate == per_entry


class TestArrayPath:
    @pytest.mark.parametrize("multi_task_prompt", [False, True])
    def test_text_and_array_paths_agree(self, fixture_paths, tmp_path, multi_task_prompt):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "gnlms", "last_value", "neighbor_mean"],
                          repeats=2, predictor={"backend": "mock", "multi_task_prompt": multi_task_prompt})
        text = execute_run(dataclasses.replace(cfg, transcript=True, output_dir=str(tmp_path / "text")))
        array = execute_run(dataclasses.replace(cfg, output_dir=str(tmp_path / "array")))
        assert array.report.token_estimate == text.report.token_estimate > 0
        for r, (a, t) in enumerate(zip(array.repeats, text.repeats, strict=True)):
            state = f"checkpoints/repeat{r}.json"  # every method's final estimates, scores and tokens
            assert (tmp_path / "array" / state).read_bytes() == (tmp_path / "text" / state).read_bytes()
            assert a.token_estimate == t.token_estimate
            assert a.scores.keys() == t.scores.keys()
            for name in a.scores:
                assert a.scores[name].tobytes() == t.scores[name].tobytes(), name

    def test_array_path_sends_no_text(self, fixture_paths, monkeypatch):
        edge_path, signal_path = fixture_paths
        monkeypatch.setattr(runner, "predict_batch", None)
        monkeypatch.setattr(runner, "build_task", None)
        execute_run(base_config(edge_path, signal_path))

    def test_non_finite_mock_value_takes_the_text_path(self):
        # Node 1's two observed neighbors sum past the largest float: "inf" does not parse, so it falls back.
        g = build_graph(3, [(0, 1), (1, 2)])
        basis = gft(laplacian(g))
        model = ObservationModel(np.array([True, False, True]), 0.0, 0)
        obs = Observation(5, np.array([1.5e308, np.nan, 1.5e308]), model.observed)
        cfg = RunConfig(predictor=PredictorConfig(max_retries=0))
        identity = filter_operator(SpectralFilter(np.ones(3), basis.ref()), basis)
        layout = observed_layout(g, model.observed)
        ctx = runner.RunContext(g, basis, None, TimeVaryingSignal(np.zeros((3, 1)), t0=5), {})
        state = {"k_next": 0, "tokens": 0, "estimates": {"graphfill": np.full(3, 0.25)},
                 "scores": {"graphfill": np.zeros((4, 0))}}
        block = runner._Block(ctx, cfg, layout, ("graphfill",), np.array([1]), state)
        row = block.begin(0)
        x_hat = runner._step_estimate(identity, cfg, layout, block.estimates[0, row - 1], obs, None, None, block)
        assert x_hat[1] == 0.25
        assert not block.prompted[row] and block.tokens[row] > 0  # the text path sent the prompt and counted it


CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_bench_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)  # defines the hooks and main only
    return child


def flaky_backend(system_text, user_text, tasks):
    """Answers each task with its previous value; a prompt whose first node plus step is divisible by 3 fails."""
    if (tasks[0].node + tasks[0].t) % 3 == 0:
        raise TransportError("refused")
    return "\n".join(f"{task.previous:.1f}" for task in tasks)


class TestBenchmarkHooks:
    """The text path as the benchmark's child process and tracer see it."""

    @pytest.mark.parametrize("multi_task_prompt", [False, True])
    def test_task_counter_sees_every_dispatched_task_and_fallback(self, fixture_paths, monkeypatch,
                                                                  multi_task_prompt):
        monkeypatch.setattr(runner, "predict_batch", runner.predict_batch)  # undone after the test
        counts = [0, 0]
        load_bench_child()._task_counter(runner, counts)
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[], transcript=True, repeats=2,
                          predictor={"backend": "mock", "max_retries": 1, "multi_task_prompt": multi_task_prompt})
        execution = execute_run(cfg, backend=flaky_backend)
        entries = [e for r in execution.repeats for e in r.transcript]
        dispatched = [e for e in entries if e["attempts"] > 0]  # a node without observed neighbors is not sent
        assert counts == [len(dispatched), sum(e["fallback"] for e in dispatched)]
        assert 0 < counts[1] < counts[0]

    def test_transcript_run_never_scans_the_adjacency(self, fixture_paths, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a run read neighbors from the adjacency, not from the layout")

        for module in (graphs, prompts, bl):
            monkeypatch.setattr(module, "neighbors", scan)
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=ALL_BASELINES, transcript=True)
        execution = execute_run(cfg)
        assert any(e["prompt"] for e in execution.repeats[0].transcript)

    @pytest.mark.parametrize("source", ["edges", "knn"])
    def test_run_never_reads_the_dense_adjacency(self, fixture_paths, tmp_path, monkeypatch, source):
        def dense(g):
            raise AssertionError("a run read Graph.adjacency, an n x n matrix built on request")

        if source == "edges":
            cfg = base_config(*fixture_paths, baselines=ALL_BASELINES, transcript=True)
        else:
            coordinates, signal_path = write_knn_run_fixture(tmp_path, n=30, t_steps=200)
            cfg = base_config(None, signal_path, graph={"source": "knn", "coordinates": coordinates, "k": 3},
                              baselines=ALL_BASELINES, transcript=True)
        monkeypatch.setattr(graphs.Graph, "adjacency", property(dense))
        execution = execute_run(cfg)
        assert any(e["prompt"] for e in execution.repeats[0].transcript)
        assert set(execution.repeats[0].scores) >= set(ALL_BASELINES)


class TestBlockScores:
    @pytest.mark.parametrize("n", [1, 7, 129, 1000])  # past numpy's 8-wide and 128-element summation blocks
    @pytest.mark.parametrize("methods", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("steps", [1, 2, 13])
    def test_each_row_equals_its_one_method_score(self, n, methods, steps):
        rng = np.random.default_rng(n * 100 + methods * 10 + steps)
        scale = 10.0 ** rng.integers(-3, 4, size=(n, steps))  # mixed magnitudes show a changed sum order
        truth = rng.normal(size=(n, steps)) * scale
        est = truth.T + rng.normal(size=(methods, steps, n)) * 10.0 ** rng.integers(-3, 4, size=(methods, steps, n))
        for missing in (np.flatnonzero(rng.random(n) < 0.4), np.arange(n), np.zeros(0, dtype=np.int64)):
            scores = runner._block_scores(truth, est, missing)
            assert scores.shape == (methods, 4, steps)
            for j, k in np.ndindex(methods, steps):
                col, e, m = truth[:, k], est[j, k], missing
                on_missing = (mae(col[m], e[m]), rmse(col[m], e[m])) if m.size else (0.0, 0.0)  # none missing: 0
                expected = [mae(col, e), rmse(col, e), *on_missing]
                assert [float(v).hex() for v in scores[j, :, k]] == [float(v).hex() for v in expected]


class TestBlockedBookkeeping:
    """A run that settles its bookkeeping B = 7 steps at a time equals one that settles every step (B = 1)."""

    ABORT_AT = 45  # inside the block of steps 40 to 46: a block fills after 7 steps or ends at a checkpoint

    @pytest.mark.parametrize("multi_task_prompt, transcript", [(False, False), (True, False), (False, True)])
    def test_checkpoints_abort_state_and_replay_equal_the_unblocked_run(self, fixture_paths, tmp_path, monkeypatch,
                                                                         multi_task_prompt, transcript):
        # 100 steps and checkpoint_every 10 are no multiples of 7. The last baseline raises at ABORT_AT, after the
        # primary method took the step's mock values and recorded its prompts.
        settle, runs = runner._Block.settle, {}

        def settling(block, k_next):
            settled.append(k_next)
            return settle(block, k_next)

        monkeypatch.setattr(runner._Block, "settle", settling)
        written = record_writes(monkeypatch)
        for size in (1, 7):
            monkeypatch.setattr(runner, "BUDGET", size * 5 * 30)  # five methods, n = 30
            out, settled = tmp_path / f"block{size}", []
            cfg = base_config(*fixture_paths, baselines=ALL_BASELINES, output_dir=str(out / "full"),
                              checkpoint_every=10, transcript=transcript,
                              predictor={"backend": "mock", "multi_task_prompt": multi_task_prompt})
            full = execute_run(cfg).repeats[0]
            if size == 7:
                assert settled[:5] == [7, 10, 17, 20, 27] and settled[-2:] == [97, 100]
            aborting = dataclasses.replace(cfg, output_dir=str(out / "aborting"))
            abort_at(aborting, self.ABORT_AT)
            runs[size] = out, full, aborting, written[:]
            written.clear()

        (unblocked, reference, _, reference_states), (blocked, full, aborting, states) = runs[1], runs[7]
        assert full.token_estimate == reference.token_estimate > 0
        for name, rows in reference.scores.items():
            assert full.scores[name].tobytes() == rows.tobytes(), name
        # Steps 10..90 and the finished repeat of the full run; 10..40 and the abort state of the other.
        assert len(states) == 10 + 5 and states == reference_states
        for path in ("full/checkpoints/repeat0.json", "aborting/checkpoints/repeat0.json"):
            assert (blocked / path).read_bytes() == (unblocked / path).read_bytes(), path
        abort_state = blocked / "aborting" / "checkpoints" / "repeat0.json"
        assert read_checkpoint(abort_state)["k_next"] == self.ABORT_AT
        resumed = replay_from_checkpoint(aborting, str(abort_state))
        for name, rows in full.scores.items():
            assert resumed.scores[name].tobytes() == rows.tobytes(), name
        assert resumed.token_estimate == full.token_estimate
        assert abort_state.read_bytes() == (blocked / "full" / "checkpoints" / "repeat0.json").read_bytes()


class TestBaselinesOnly:
    def test_baseline_only_execution(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "gnlms", "last_value"])
        execution = execute_run(cfg, with_primary=False)
        assert set(execution.report.method_aggregates) == {"glms", "gnlms", "last_value"}
        assert execution.report.method == "glms"

    def test_report_carries_lead_baseline_missing_errors(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "last_value"])
        report = execute_run(cfg, with_primary=False).report

        ctx = prepare_run(cfg)
        model = sample_mask(ctx.graph.n_nodes, 0.7, 11, 0.2)
        band = bl.bandlimit_for_energy(ctx.basis, ctx.train_signal.values, cfg.baseline_band_energy)
        filt = bl.glms_init(ctx.basis, band, cfg.baseline_step_size)
        u_band = ctx.basis.eigenvectors[:, :band]
        estimate = u_band @ (u_band.T @ init_estimate(ctx.train_signal, model))  # GLMS starts in its band
        missing = np.flatnonzero(~model.observed)
        maes, rmses = [], []
        for k in range(ctx.test_signal.n_steps):
            col = ctx.test_signal.values[:, k]
            estimate = bl.glms_step(filt, estimate, observe(col, model, ctx.test_signal.t0 + k))
            maes.append(mae(col[missing], estimate[missing]))
            rmses.append(rmse(col[missing], estimate[missing]))
        assert report.aggregate_mae_missing == (float(np.mean(maes)), 0.0)
        assert report.aggregate_rmse_missing == (float(np.mean(rmses)), 0.0)
        assert report.aggregate_mae_missing[0] > 0.0

    def test_aggregates_equal_full_run_baselines(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(
            edge_path, signal_path, baselines=["glms", "gnlms", "last_value", "neighbor_mean"], repeats=2
        )
        full = execute_run(cfg).report.method_aggregates
        only = execute_run(cfg, with_primary=False).report.method_aggregates
        assert only == {name: full[name] for name in cfg.baselines}

    def test_baseline_only_never_trains_or_dispatches(self, fixture_paths, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a baseline-only run must not train or dispatch")

        monkeypatch.setattr(runner, "train_filter", forbidden)
        monkeypatch.setattr(runner, "predict_batch", forbidden)
        written = record_writes(monkeypatch)
        edge_path, signal_path = fixture_paths
        out = tmp_path / "out"
        cfg = base_config(edge_path, signal_path, baselines=["glms"], output_dir=str(out), checkpoint_every=10)
        execution = execute_run(cfg, with_primary=False)
        assert execution.repeats[0].train_result is None
        assert [path.name for path in (out / "checkpoints").iterdir()] == ["repeat0.json"]
        states = [json.loads(state) for state in written]
        assert [state["k_next"] for state in states] == list(range(10, 101, 10))
        for state in states:
            assert list(state["estimates"]) == ["glms"] and state["tokens"] == 0

    def test_band_sized_once_per_run_and_context_left_unchanged(self, fixture_paths, monkeypatch):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "gnlms"], repeats=2)
        sizings = []
        bandlimit = bl.bandlimit_for_energy
        monkeypatch.setattr(bl, "bandlimit_for_energy", lambda *a: sizings.append(a) or bandlimit(*a))
        run_repeat = runner.run_repeat

        def run_repeat_keeping_derived(ctx, *args, **kwargs):
            before = json.dumps(ctx.derived)
            result = run_repeat(ctx, *args, **kwargs)
            assert json.dumps(ctx.derived) == before
            return result

        monkeypatch.setattr(runner, "run_repeat", run_repeat_keeping_derived)
        report = execute_run(cfg).report
        assert len(sizings) == 1
        assert report.config_snapshot["derived"]["baseline_band_size"] == bandlimit(*sizings[0])

    @pytest.mark.parametrize("with_primary", [True, False])
    def test_band_sized_only_for_the_adaptive_filters(self, fixture_paths, monkeypatch, with_primary):
        edge_path, signal_path = fixture_paths

        def forbidden(*args):
            raise AssertionError("the band was sized for a run without GLMS or GNLMS")

        monkeypatch.setattr(bl, "bandlimit_for_energy", forbidden)
        cfg = base_config(edge_path, signal_path, baselines=["last_value", "neighbor_mean"])
        report = execute_run(cfg, with_primary=with_primary).report
        assert "baseline_band_size" not in report.config_snapshot["derived"]

    @pytest.mark.parametrize("name", ["glms", "gnlms"])
    def test_adaptive_estimate_stays_in_its_band_at_every_step(self, fixture_paths, monkeypatch, name):
        edge_path, signal_path = fixture_paths
        settled = record_estimates(monkeypatch)
        execution = execute_run(base_config(edge_path, signal_path, baselines=[name, "last_value"]),
                                with_primary=False)
        band = execution.report.config_snapshot["derived"]["baseline_band_size"]
        u_band = execution.context.basis.eigenvectors[:, :band]
        x = np.array(settled)[:, 0].T  # the lead method's estimate after each step
        outside = np.linalg.norm(x - u_band @ (u_band.T @ x), axis=0)
        assert np.all(outside <= 1e-12 * np.linalg.norm(x, axis=0))

    def test_only_the_adaptive_filters_start_in_band(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=ALL_BASELINES)
        ctx = prepare_run(cfg)
        x0 = init_estimate(ctx.train_signal, sample_mask(ctx.graph.n_nodes, 0.7, 11, 0.2))
        starts = runner._start_estimates(ctx, (runner.PRIMARY_METHOD, *ALL_BASELINES), x0)
        u_band = ctx.basis.eigenvectors[:, :ctx.derived["baseline_band_size"]]
        assert starts["glms"] is starts["gnlms"]
        assert starts["glms"].tobytes() == (u_band @ (u_band.T @ x0)).tobytes()
        assert all(starts[name] is x0 for name in (runner.PRIMARY_METHOD, "last_value", "neighbor_mean"))
        # Without an adaptive filter the band is not read (nor sized: a run without GLMS or GNLMS has none).
        starts = runner._start_estimates(types.SimpleNamespace(), (runner.PRIMARY_METHOD, "last_value"), x0)
        assert list(starts) == [runner.PRIMARY_METHOD, "last_value"] and all(x is x0 for x in starts.values())

    def test_an_all_zero_training_split_gives_a_band_of_one_and_runs(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        values = np.loadtxt(signal_path, delimiter=",")
        values[:, :100] = 0.0  # the training split
        zeroed = tmp_path / "signal.csv"
        zeroed.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in values))
        execution = execute_run(base_config(edge_path, str(zeroed), baselines=["glms", "gnlms"]), with_primary=False)
        assert execution.report.config_snapshot["derived"]["baseline_band_size"] == 1
        for rows in execution.repeats[0].scores.values():
            assert rows.shape == (4, TEST_STEPS) and np.isfinite(rows).all()

    def test_baseline_only_requires_selection(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[])
        with pytest.raises(ValueError, match="baselines"):
            execute_run(cfg, with_primary=False)


def float_paths(cls=RunConfig, prefix=""):
    """Dotted path of every config field that takes a number with a fraction."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from float_paths(f.type, prefix + f.name + ".")
        elif float in (typing.get_args(f.type) or (f.type,)):
            yield prefix + f.name


class TestConfigValidation:
    def test_unknown_baseline_rejected(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match="unknown baselines"):
            base_config(edge_path, signal_path, baselines=["gcn"])

    def test_repeated_baseline_rejected(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match=re.escape("baselines listed more than once: ['glms', 'last_value']")):
            base_config(edge_path, signal_path, baselines=["last_value", "glms", "last_value", "glms", "gnlms"])

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=re.escape("observation.seed must be >= 0, got -1")):
            RunConfig.from_dict({"observation": {"seed": -1}})

    def test_signal_graph_size_mismatch(self, tmp_path):
        edge_path, _, _, _ = write_run_fixture(tmp_path, n=10, t_steps=20)
        bad_signal = tmp_path / "bad.csv"
        bad_signal.write_text("1,2\n3,4\n")
        cfg = base_config(
            str(edge_path),
            str(bad_signal),
            graph={"source": "edges", "edge_list": str(edge_path), "n_nodes": 10},
            t_split=1,
        )
        with pytest.raises(ValueError, match="nodes"):
            prepare_run(cfg)

    @pytest.fixture
    def three_nodes(self, tmp_path, monkeypatch):
        """A run config over a 3-node, 3-step signal and an edge list without ``n_nodes``; no graph above 3 nodes."""
        from graphfill import graphs

        graph = graphs.Graph

        def small_graph(n, *edges):
            assert n <= 3, f"a graph of {n} nodes was asked for"
            return graph(n, *edges)

        monkeypatch.setattr(graphs, "Graph", small_graph)
        edges, signal = tmp_path / "edges.csv", tmp_path / "signal.csv"
        signal.write_text("1,2,3\n4,5,6\n7,8,9\n")

        def config(rows, t_split=1):
            edges.write_text(rows)
            return RunConfig.from_dict({"graph": {"source": "edges", "edge_list": str(edges)},
                                        "signal": {"path": str(signal)}, "t_split": t_split})
        return edges, config

    def test_edge_index_past_the_signal_fails_with_its_row(self, three_nodes):
        edges, config = three_nodes
        with pytest.raises(ValueError, match=re.escape(f"{edges}: row 2: edge (0, 100000) out of range for n=3")):
            prepare_run(config("0,1\n0,100000\n1,2\n"))

    def test_edge_list_short_of_the_signal_isolates_its_last_node(self, three_nodes):
        _, config = three_nodes
        cfg = config("0,1\n")
        adjacencies = [prepare_run(c).graph.adjacency
                       for c in (cfg, dataclasses.replace(cfg, graph=dataclasses.replace(cfg.graph, n_nodes=3)))]
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert all(np.array_equal(a, expected) for a in adjacencies)

    def test_coordinates_past_the_signal_fail_before_the_knn_graph(self, three_nodes, tmp_path, monkeypatch):
        _, config = three_nodes

        def no_knn(*args, **kwargs):
            raise AssertionError("the kNN graph was built before the coordinates were checked against n")

        monkeypatch.setattr(runner, "knn_graph", no_knn)
        coordinates = tmp_path / "coordinates.csv"
        coordinates.write_text("node_id,lat,lon\n" + "".join(f"{i},{i}.0,{i}.5\n" for i in (2, 0, 4, 1, 3)))
        cfg = dataclasses.replace(config("0,1\n"), graph=runner.GraphConfig(source="knn", coordinates=str(coordinates)))
        with pytest.raises(ValueError, match=re.escape(f"{coordinates}: row 4: node id 4 out of range for n=3")):
            prepare_run(cfg)

    def test_n_nodes_other_than_the_signal_fails_before_the_edge_list_is_read(self, three_nodes, monkeypatch):
        edges, config = three_nodes

        def unread(*args, **kwargs):
            raise AssertionError("the edge list was read before graph.n_nodes was checked")

        monkeypatch.setattr(runner, "load_edge_list_csv", unread)
        monkeypatch.setattr(runner, "load_coordinates_csv", unread)
        for graph in (runner.GraphConfig(edge_list=str(edges), n_nodes=10**6),
                      runner.GraphConfig(source="knn", coordinates="coordinates.csv", n_nodes=2)):
            cfg = dataclasses.replace(config("0,1\n1,2\n"), graph=graph)
            message = f"graph.n_nodes is {graph.n_nodes} but the signal has 3 nodes"
            with pytest.raises(ValueError, match=re.escape(message)):
                prepare_run(cfg)

    def test_bad_t_split_fails_before_the_eigendecomposition(self, three_nodes, monkeypatch):
        _, config = three_nodes

        def no_eigh(*args, **kwargs):
            raise AssertionError("the basis was built before t_split was checked")

        monkeypatch.setattr(runner, "gft", no_eigh)
        with pytest.raises(ValueError, match=re.escape("t_split must be in [1, 2], got 3")):
            prepare_run(config("0,1\n1,2\n", t_split=3))

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"observaton": {"ratio": 0.5}}, "observaton"),
            ({"train": {"learnig_rate": 0.1}}, "train.learnig_rate"),
            ({"graph": {"source": "edges", "edgelist": "x.csv"}}, "graph.edgelist"),
            ({"predictor": {"backend": "mock", "retries": 3}}, "predictor.retries"),
            ({"history_depth": 2}, "history_depth"),
            ({"signal": {"path": "x.csv", "step_label": "h"}}, "signal.step_label"),
            ({"adopt_raw_observed": True}, "adopt_raw_observed"),
            ({"signal": {"path": "x.csv", "t0": 5}}, "signal.t0"),
        ],
    )
    def test_unknown_key_named_by_dotted_path(self, fixture_paths, overrides, path):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match=f"unknown config key '{path}'"):
            base_config(edge_path, signal_path, **overrides)

    def test_section_must_be_an_object(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match="config key 'train' must be an object"):
            base_config(edge_path, signal_path, train=[0.1])
        with pytest.raises(ValueError, match="config must be an object"):
            RunConfig.from_dict([["t_split", 2]])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"train": {"learning_rate": "0.1"}}, "'train.learning_rate' must be a number, got '0.1'"),
            ({"train": {"learning_rate": True}}, "'train.learning_rate' must be a number, got True"),
            ({"repeats": "2"}, "'repeats' must be an integer, got '2'"),
            ({"repeats": 2.0}, "'repeats' must be an integer, got 2.0"),
            ({"observation": {"seed": False}}, "'observation.seed' must be an integer, got False"),
            ({"graph": {"source": "edges", "n_nodes": "30"}}, "'graph.n_nodes' must be an integer or null"),
            ({"transcript": 1}, "'transcript' must be a boolean, got 1"),
            ({"predictor": {"backend": None}}, "'predictor.backend' must be a string, got None"),
            ({"baselines": "glms"}, "'baselines' must be a list of strings, got 'glms'"),
            ({"baselines": ["glms", 3]}, "'baselines' must be a list of strings"),
        ],
    )
    def test_wrong_value_type_named_by_dotted_path(self, fixture_paths, overrides, message):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match=re.escape(f"config key {message}")):
            base_config(edge_path, signal_path, **overrides)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    @pytest.mark.parametrize("path", float_paths())
    def test_infinite_number_named_by_dotted_path(self, path, value):
        payload = value
        for key in reversed(path.split(".")):
            payload = {key: payload}
        with pytest.raises(ValueError, match=re.escape(f"{path} must be finite, got {value}")):
            RunConfig.from_dict(payload)

    def test_int_for_float_and_null_for_optional_accepted(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(
            edge_path,
            signal_path,
            graph={"source": "edges", "edge_list": edge_path, "n_nodes": None, "bandwidth": None},
            observation={"ratio": 1, "seed": 11, "noise_variance": 0},
            output_dir=None,
        )
        assert cfg.observation.ratio == 1 and cfg.graph.n_nodes is None

    def test_config_round_trip(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg


def json_values(tp):
    """Strategy for one config field's values, as JSON carries them."""
    if dataclasses.is_dataclass(tp):
        return configs(tp)
    if isinstance(tp, types.UnionType):
        return st.one_of(*map(json_values, typing.get_args(tp)))
    return {
        float: st.floats(allow_nan=False),  # NaN equals nothing, so no config holding it equals itself
        int: st.integers(-3, 10**9),
        bool: st.booleans(),
        str: st.one_of(st.text(), st.sampled_from(["edges", "knn", "mock", "remote", "nodes-as-columns"])),
        type(None): st.none(),
        tuple[str, ...]: st.lists(st.sampled_from(sorted(runner.BASELINES))).map(tuple),
    }[tp]


@st.composite
def configs(draw, cls=RunConfig):
    """A valid config: each field takes a drawn value when the section accepts it, else its default."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = draw(json_values(f.type))
        try:
            cls(**{f.name: value})
        except ValueError:
            continue
        kwargs[f.name] = value
    return cls(**kwargs)


@settings(max_examples=300, deadline=None)
@given(configs())
def test_config_round_trips_through_json(cfg):
    assert RunConfig.from_dict(cfg.to_dict()) == cfg
    assert RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


class TestOverlappedSetUp:
    """``prepare_run`` decomposes the Laplacian on one worker thread while this thread parses the signal."""

    @pytest.fixture
    def small_run(self, tmp_path):
        edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=12, t_steps=40)
        cfg = RunConfig.from_dict({"graph": {"source": "edges", "edge_list": edge_path},
                                   "signal": {"path": signal_path}, "t_split": 20, "baselines": ["glms"]})
        return Path(signal_path), cfg

    def test_the_decomposition_runs_while_the_signal_is_parsed(self, small_run, monkeypatch):
        # The parse waits until eigh has started on another thread, so a set-up that ran them in turn would fail.
        _, cfg = small_run
        started, eigh, load = threading.Event(), np.linalg.eigh, runner.load_signal_csv
        eigh_threads = []

        def eigh_started(a):
            eigh_threads.append(threading.current_thread())
            started.set()
            return eigh(a)

        def load_once_eigh_started(*args):
            assert started.wait(timeout=60), "eigh did not start while the signal was parsed"
            return load(*args)

        monkeypatch.setattr(np.linalg, "eigh", eigh_started)
        monkeypatch.setattr(runner, "load_signal_csv", load_once_eigh_started)
        before = threading.active_count()
        ctx = prepare_run(cfg)
        assert threading.active_count() == before
        assert eigh_threads and eigh_threads[0] is not threading.current_thread()
        monkeypatch.undo()
        assert ctx.basis.ref() == gft(laplacian(ctx.graph)).ref()
        assert ctx.derived == prepare_run(cfg).derived

    def test_a_decomposition_that_outlasts_the_parse_is_awaited_by_yielding(self, small_run, monkeypatch):
        # eigh holds until this thread yields, so a set-up that slept in result() instead would fail here.
        _, cfg = small_run
        yielded, eigh, sched_yield = threading.Event(), np.linalg.eigh, os.sched_yield

        def eigh_once_yielded(a):
            assert yielded.wait(timeout=30), "the calling thread did not yield while eigh ran"
            return eigh(a)

        def noted_yield():
            yielded.set()
            sched_yield()

        monkeypatch.setattr(np.linalg, "eigh", eigh_once_yielded)
        monkeypatch.setattr(os, "sched_yield", noted_yield)
        before = threading.active_count()
        ctx = prepare_run(cfg)
        assert threading.active_count() == before
        monkeypatch.undo()
        assert ctx.basis.ref() == gft(laplacian(ctx.graph)).ref()

    def test_a_bad_cell_still_fails_with_its_row_and_column(self, small_run):
        signal_path, cfg = small_run
        lines = signal_path.read_text().splitlines()
        lines[4] = ",".join(["0.5", "0.5", "x", *lines[4].split(",")[3:]])
        signal_path.write_text("\n".join(lines) + "\n")
        before = threading.active_count()
        message = f"{signal_path}: row 5, column 3: cannot parse 'x' as a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            prepare_run(cfg)
        assert threading.active_count() == before

    def test_a_failed_decomposition_propagates_unwrapped(self, small_run, monkeypatch):
        _, cfg = small_run
        failure = np.linalg.LinAlgError("Eigenvalues did not converge")

        def no_convergence(a):
            raise failure

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as raised:
            prepare_run(cfg)
        assert raised.value is failure
        assert threading.active_count() == before

    def test_a_quoted_cell_across_lines_fails_naming_the_file(self, tmp_path):
        # The csv reader takes "5<newline>" as one cell, 5.0, so the file parses to 3 x 3; its lines hold 4 rows.
        edges, signal = tmp_path / "edges.csv", tmp_path / "signal.csv"
        edges.write_text("0,1\n1,2\n")
        signal.write_text('1,2,3\n4,"5\n",6\n7,8,9\n')
        assert load_signal_csv(signal, "nodes-as-rows").values.shape == (3, 3)
        cfg = RunConfig.from_dict({"graph": {"source": "edges", "edge_list": str(edges)},
                                   "signal": {"path": str(signal)}, "t_split": 1})
        before = threading.active_count()
        message = f"{signal}: parsed as 3 nodes x 3 steps, but its lines hold 4 x 3: a quoted cell may not span lines"
        with pytest.raises(ValueError, match=re.escape(message)):
            prepare_run(cfg)
        assert threading.active_count() == before


class TestKnnGraphSource:
    def test_run_with_knn_weighted_graph(self, tmp_path):
        n = 12
        coord_path, signal_path = write_knn_run_fixture(tmp_path, n=n)
        cfg = RunConfig.from_dict(
            {
                "graph": {"source": "knn", "coordinates": coord_path, "k": 3},
                "signal": {"path": signal_path, "layout": "nodes-as-rows"},
                "t_split": 24,
                "observation": {"ratio": 0.7, "seed": 4, "noise_variance": 0.2},
                "train": {"learning_rate": 0.1, "max_iters": 300, "tol": 0.0, "patience": 30,
                          "window": 30, "augment_copies": 10},
                "predictor": {"backend": "mock"},
                "baselines": ["glms"],
                "precision": 1,
            }
        )
        execution = execute_run(cfg)
        assert execution.context.graph.n_nodes == n
        assert execution.report.config_snapshot["derived"]["graph_weighted"] is True
        assert np.all(np.isfinite(execution.report.per_t_rmse))


class TestMissingNodeWithoutObservedNeighbors:
    def test_isolated_missing_node_persists(self, tmp_path, monkeypatch):
        # Path graph 0-1, plus node 2 connected only to missing node 1.
        edge_path = tmp_path / "edges.csv"
        edge_path.write_text("0,1\n1,2\n")
        signal_path = tmp_path / "signal.csv"
        signal_path.write_text("1.0,1.0,1.0,1.0\n2.0,2.0,2.0,2.0\n3.0,3.0,3.0,3.0\n")
        cfg = RunConfig.from_dict(
            {
                "graph": {"source": "edges", "edge_list": str(edge_path), "n_nodes": 3},
                "signal": {"path": str(signal_path), "layout": "nodes-as-rows"},
                "t_split": 2,
                "observation": {"ratio": 0.34, "seed": 0, "noise_variance": 0.0},
                "train": {"learning_rate": 0.0, "max_iters": 1},
                "predictor": {"backend": "mock"},
                "precision": 1,
            }
        )
        model = sample_mask(3, 0.34, 0, 0.0)
        assert model.observed.tolist() == [False, False, True]  # node 0's only neighbor is missing
        settled = record_estimates(monkeypatch)
        execute_run(dataclasses.replace(cfg, transcript=True))
        logged = np.array(settled)[:, 0]
        settled.clear()
        monkeypatch.setattr(runner, "predict_batch", None)  # the array path sends no text
        execution = execute_run(cfg)
        estimates = np.array(settled)[:, 0]
        assert np.all(np.isfinite(estimates))
        assert np.all(estimates[:, 0] == init_estimate(execution.context.train_signal, model)[0])
        assert np.array_equal(estimates, logged)
