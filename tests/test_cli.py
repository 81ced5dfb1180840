import gc
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import phonotraj.cli as cli
from conftest import synthetic_config
from phonotraj.cli import (ConfigError, ExperimentConfig, generate_synthetic,
                           grid_search, make_splits, prepare_speaker,
                           resolve_table, run_experiment)
from phonotraj.ema import EmaRecord, load_est_track, write_csv, write_est_track
from phonotraj.optimize import OptimConfig, OptimizeError, optimize_targets
from phonotraj.probe import ProbeModel, aggregate, score


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_make_splits_partitions_all_ids():
    ids = [f"u{i:03d}" for i in range(460)]
    s = make_splits(ids, (390, 20, 50), seed=0)
    assert (len(s.train), len(s.dev), len(s.test)) == (390, 20, 50)
    assert sorted(s.train + s.dev + s.test) == sorted(ids)
    assert not (set(s.train) & set(s.dev))
    assert not (set(s.train) & set(s.test))
    assert not (set(s.dev) & set(s.test))
    # replication rule: test is the last 50 in sorted order
    assert list(s.test) == ids[-50:]


def test_make_splits_deterministic():
    ids = [f"u{i:03d}" for i in range(460)]
    assert make_splits(ids, (390, 20, 50), 7) == make_splits(ids, (390, 20, 50), 7)
    assert make_splits(ids, (390, 20, 50), 7) != make_splits(ids, (390, 20, 50), 8)


def test_make_splits_size_mismatch_rejected():
    ids = [f"u{i}" for i in range(459)]
    with pytest.raises(ConfigError):
        make_splits(ids, (390, 20, 50), 0)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(dataset_root="/data", speakers=("a", "b"),
                           split_sizes=(5, 1, 1))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert ExperimentConfig.from_file(path) == cfg


def test_config_unknown_field_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for field in ("typo_field", "probe_epochs", "probe_patience", "probe_lr"):
        path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                    "split_sizes": [5, 1, 1], field: 1}),
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=f"unknown config fields.*{field}"):
            ExperimentConfig.from_file(path)
        assert cli.main(["run", "--config", str(path)]) == 1


def test_config_validates_method_and_splits():
    with pytest.raises(Exception):
        ExperimentConfig(dataset_root="/d", speakers=("a",), method="quintic")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_root="/d", speakers=("a",), split_sizes=(5, 0, 1))


def test_unknown_method_is_a_config_error(tmp_path, capsys):
    # It used to be the forward layer's ForwardError, while every other bad
    # field is a ConfigError.
    with pytest.raises(ConfigError, match="unknown interpolation method 'bogus'"):
        ExperimentConfig(dataset_root="/d", speakers=("a",), method="bogus")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"]}),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--method", "bogus"]) == 1
    assert "unknown interpolation method 'bogus'" in capsys.readouterr().err


def test_config_rejects_frame_rate_other_than_100(tmp_path):
    # frame_rate is a class constant, not a field: a config cannot name it
    assert ExperimentConfig.frame_rate == 100.0
    assert "frame_rate" not in ExperimentConfig.__dataclass_fields__
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "frame_rate": 200.0}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config fields.*frame_rate"):
        ExperimentConfig.from_file(path)
    assert cli.main(["run", "--config", str(path)]) == 1


def test_config_rejects_unknown_grid_axis(tmp_path):
    # "lambda" for "lambdas" used to run the full default grid silently.
    with pytest.raises(ConfigError, match="unknown grid axes"):
        ExperimentConfig(dataset_root="/d", speakers=("a",), grid={"lambda": [0.0]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "optimize_position": True, "grid": {"lambda": [0.0]}}),
                    encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1


@pytest.mark.parametrize("grid", [
    {"lambdas": 1e4}, {"lambdas": []}, {"lambdas": [-1.0]}, {"lambdas": [float("inf")]},
    {"timing_lrs": [0.0]}, {"position_lrs": [float("nan")]}, {"position_lrs": ["0.01"]},
    {"timing_lrs": [True]}, {"lambdas": [1e3, 1e3]}, {"lambdas": [0, 0.0]},
    {"position_lrs": [1e-2, 1e-3, 1e-2]},
])
def test_config_rejects_bad_grid_values(tmp_path, grid):
    # {"lambdas": 1e4} used to pass construction and fail inside grid_search
    # with a TypeError, which the CLI reported as a runtime failure (exit 2).
    # {"lambdas": [1e3, 1e3]} gave two rows in grid.json, the second served
    # from the first one's cache entry.
    fields = {"dataset_root": str(tmp_path), "speakers": ["a"], "method": "cubic_hermite",
              "optimize_timing": True, "optimize_position": True, "grid": grid}
    with pytest.raises(ConfigError, match="grid axis"):
        ExperimentConfig(**{**fields, "speakers": ("a",)})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1


@pytest.mark.parametrize("flags, grid, named", [
    ({"optimize_position": True}, {"timing_lrs": [1e-4, 5e-4]}, "grid axis timing_lrs"),
    ({"optimize_timing": True}, {"position_lrs": [1e-2]}, "grid axis position_lrs"),
    ({}, {"lambdas": [0.0, 1e3]}, "grid axes ['lambdas']"),
    ({}, {"timing_lrs": [1e-5], "lambdas": [1e3]}, "grid axes ['lambdas', 'timing_lrs']"),
])
def test_config_rejects_a_grid_axis_the_run_would_ignore(tmp_path, monkeypatch, capsys,
                                                         flags, grid, named):
    # optimize_timing false with "timing_lrs": [1e-4, 5e-4] used to run and
    # record timing_lr 1e-05 in grid.json; a grid with both blocks off was
    # accepted and never searched.
    fields = {"dataset_root": str(tmp_path), "speakers": ["a"], "method": "cubic_hermite",
              **flags, "grid": grid}
    with pytest.raises(ConfigError, match="would be ignored") as err:
        ExperimentConfig(**{**fields, "speakers": ("a",)})
    assert named in str(err.value)
    monkeypatch.setattr(cli, "prepare_speaker", lambda *a: pytest.fail("prepared a speaker"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    assert cli.main(["grid", "--config", str(path)]) == 1
    assert named in capsys.readouterr().err


def test_optimization_with_a_non_cubic_method_rejected_up_front(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="cubic"):
        ExperimentConfig(dataset_root="/d", speakers=("a",), method="linear",
                         optimize_position=True)
    prepared = []
    monkeypatch.setattr(cli, "prepare_speaker",
                        lambda *a: prepared.append(a) or pytest.fail("prepared a speaker"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "method": "linear", "optimize_timing": True}),
                    encoding="utf-8")
    assert cli.main(["grid", "--config", str(path)]) == 1
    assert prepared == []


@pytest.mark.parametrize("field, value, message", [
    ("max_steps", 2.5, "max_steps must be an integer"),
    ("max_steps", True, "max_steps must be an integer"),
    ("max_steps", -1, "max_steps must be non-negative"),
    ("seed", "x", "seed must be an integer"),
    ("seed", 1.0, "seed must be an integer"),
    ("min_gap", 0, "min_gap = 0"),
    ("min_gap", float("nan"), "min_gap = nan"),
    ("split_sizes", [10.0, 2.0, 2.0], "split_sizes must be three integers"),
    ("split_sizes", [10, 2], "split_sizes must be three integers"),
    ("speakers", "spk00", "speakers must be a list of names"),
    ("speakers", ["spk00", 1], "speakers must be a list of names"),
    ("optimize_timing", "yes", "optimize_timing must be true or false"),
    ("optimize_position", 1, "optimize_position must be true or false"),
    ("seed", -1, "seed must be non-negative"),
    ("speakers", ["spk00", "spk00"], "speakers listed more than once: spk00"),
    ("grid", ["lambdas"], "grid must be an object"),
    ("dataset_root", 5, "dataset_root must be a string"),
    ("feature_set", 73, "feature_set must be a string"),
    ("method", ["cubic_hermite"], "method must be a string"),
    ("out_dir", None, "out_dir must be a string"),
    ("feature_table_path", 1, "feature_table_path must be a string"),
])
def test_config_rejects_unusable_optimizer_settings_up_front(tmp_path, monkeypatch, capsys,
                                                             field, value, message):
    # "max_steps": 2.5 and "seed": "x" used to exit 2 as runtime failures,
    # "min_gap": 0 and "split_sizes": [10.0, 2.0, 2.0] failed only after every
    # input file had been read, "speakers": "spk00" named five one-letter
    # speakers and "optimize_timing": "yes" passed as true.  "seed": -1, a
    # list for "grid" and a non-string path or name exited 2, and a repeated
    # speaker was counted twice in the report.
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{"dataset_root": "/d", "speakers": ("a",), field: value})
    monkeypatch.setattr(cli, "prepare_speaker", lambda *a: pytest.fail("prepared a speaker"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "method": "cubic_hermite", "optimize_position": True,
                                field: value}), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "[]", '"cfg"', "null"])
def test_config_file_must_hold_a_json_object(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="is not a JSON object"):
        ExperimentConfig.from_file(path)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "is not a JSON object" in capsys.readouterr().err


def test_config_naming_jobs_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "jobs": 2}), encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config fields"):
        ExperimentConfig.from_file(path)
    assert cli.main(["run", "--config", str(path)]) == 1


# ---------------------------------------------------------------------------
# synthetic data and the full pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    generate_synthetic(root, speakers=2, utterances=56, dim=10, seed=0)
    return root


def test_generator_is_deterministic(tmp_path):
    a = generate_synthetic(tmp_path / "a", speakers=1, utterances=4, dim=6, seed=3)
    b = generate_synthetic(tmp_path / "b", speakers=1, utterances=4, dim=6, seed=3)
    c = generate_synthetic(tmp_path / "c", speakers=1, utterances=4, dim=6, seed=4)
    assert tree_digest(a) == tree_digest(b)
    assert tree_digest(a) != tree_digest(c)


def test_generator_data_is_exactly_affine(synth_root):
    # Least-squares oracle on the generated pairs: every parameter correlates
    # perfectly, confirming the generator's construction.
    cfg = synthetic_config(synth_root, out_dir=str(synth_root / "out_oracle"))
    data = prepare_speaker(cfg, resolve_table(cfg), "spk00")
    train = cli._speaker_pairs(data, cfg, None, "train")
    F = np.vstack([p[0].frames for p in train])
    Z = np.vstack([p[1].Z[: p[0].frames.shape[0]] for p in train])
    Fb = np.column_stack([F, np.ones(len(F))])
    W, *_ = np.linalg.lstsq(Fb, Z, rcond=None)
    probe = ProbeModel(W[:-1].T, W[-1])
    pcc = score(probe, cli._speaker_pairs(data, cfg, None, "test"))
    np.testing.assert_allclose(pcc, 1.0, atol=1e-6)


def test_run_experiment_scores_high_and_is_deterministic(synth_root, tmp_path):
    cfg1 = synthetic_config(synth_root, out_dir=str(tmp_path / "run1"))
    cfg2 = synthetic_config(synth_root, out_dir=str(tmp_path / "run2"))
    rep1, man1 = run_experiment(cfg1)
    rep2, _ = run_experiment(cfg2)
    assert rep1.grand > 0.99
    csv1 = (tmp_path / "run1" / "report.csv").read_bytes()
    csv2 = (tmp_path / "run2" / "report.csv").read_bytes()
    assert csv1 == csv2
    assert not any(s["cached"] for s in man1.stages)


def test_rerun_reuses_cache(synth_root, tmp_path):
    cfg = synthetic_config(synth_root, out_dir=str(tmp_path / "cached"))
    rep1, man1 = run_experiment(cfg)
    rep2, man2 = run_experiment(cfg)
    assert all(s["cached"] for s in man2.stages)
    assert rep1.matrix == pytest.approx(rep2.matrix)
    # report bytes identical across the cached rerun as well
    assert (tmp_path / "cached" / "report.csv").exists()


def test_a_corrupt_cache_entry_is_recomputed(pair_root, tmp_path):
    cfg = synthetic_config(pair_root, utterances=14, out_dir=str(tmp_path / "out"))
    _, manifest = run_experiment(cfg)
    report = (tmp_path / "out" / "report.csv").read_bytes()
    [key] = [s["key"] for s in manifest.stages if s["stage"] == "prepare/spk00"]
    entry = tmp_path / "out" / "cache" / f"{key}.pkl"
    assert entry.name.startswith("prep-")
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
    _, manifest = run_experiment(cfg)
    assert {s["stage"]: s["cached"] for s in manifest.stages} == {
        "prepare/spk00": False, "score/spk00": True, "prepare/spk01": True, "score/spk01": True}
    assert (tmp_path / "out" / "report.csv").read_bytes() == report


def test_a_cached_speaker_shares_one_targets_array(pair_root, tmp_path):
    cfg = synthetic_config(pair_root, utterances=14, out_dir=str(tmp_path / "out"))
    built = cli.Run(cfg).prepare("spk00")
    run = cli.Run(cfg)
    data = run.prepare("spk00")
    assert [s["cached"] for s in run.manifest.stages] == [True]
    [targets] = {id(f.targets): f.targets for f in data.fsegs.values()}.values()
    np.testing.assert_array_equal(targets, run.table.matrix)
    for utt, fseg in data.fsegs.items():
        assert fseg.X.tobytes() == built.fsegs[utt].X.tobytes()


def test_noise_degrades_score_monotonically(tmp_path):
    scores = []
    for sigma in (0.0, 0.1, 0.5):
        root = tmp_path / f"noise_{sigma}"
        generate_synthetic(root, speakers=1, utterances=21, dim=8, seed=1,
                           noise=sigma)
        cfg = synthetic_config(root, utterances=21, speakers=1,
                               out_dir=str(root / "out"))
        rep, _ = run_experiment(cfg)
        scores.append(rep.grand)
    assert scores[0] > scores[1] > scores[2]
    assert 0.0 < scores[2] < 1.0


# ---------------------------------------------------------------------------
# one speaker in memory at a time
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trio_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("trio")
    generate_synthetic(root, speakers=3, utterances=14, dim=4, seed=6)
    return root


def track_speakers(monkeypatch, events: list) -> None:
    """Wrap prepare_speaker: before each preparation, a collection, then
    ("prepare", speaker, [earlier speakers still alive]) appended to ``events``."""
    prepare, refs = cli.prepare_speaker, []

    def tracking(cfg, table, speaker):
        gc.collect()
        events.append(("prepare", speaker, [r().speaker for r in refs if r() is not None]))
        data = prepare(cfg, table, speaker)
        refs.append(weakref.ref(data))
        return data

    monkeypatch.setattr(cli, "prepare_speaker", tracking)


@pytest.mark.parametrize("command", ["run", "probe", "synth", "ingest"])
def test_a_command_without_a_grid_holds_one_speaker_at_a_time(trio_root, tmp_path, monkeypatch,
                                                               command):
    # run_experiment, probe, synth and ingest used to prepare every speaker
    # before the first one was used, and held them all to the end.
    cfg = synthetic_config(trio_root, utterances=14, speakers=3, out_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    events = []
    track_speakers(monkeypatch, events)
    assert cli.main([command, "--config", str(path)]) == 0
    assert events == [("prepare", s, []) for s in cfg.speakers]


def test_a_run_with_a_grid_prepares_every_speaker_before_the_first_grid_point(
        trio_root, tmp_path, monkeypatch):
    cfg = replace(synthetic_config(trio_root, utterances=14, speakers=3, method="cubic_hermite",
                                   out_dir=str(tmp_path / "out")),
                  optimize_timing=True, optimize_position=True, max_steps=1,
                  grid={"timing_lrs": [1e-5], "position_lrs": [1e-2], "lambdas": [0.0, 1e3]})
    events = []
    track_speakers(monkeypatch, events)
    speaker_score = cli._speaker_score

    def recording(data, point_cfg, optim, part):
        events.append((part, data.speaker))
        return speaker_score(data, point_cfg, optim, part)

    monkeypatch.setattr(cli, "_speaker_score", recording)
    run_experiment(cfg)
    assert events[:3] == [("prepare", "spk00", []), ("prepare", "spk01", ["spk00"]),
                          ("prepare", "spk02", ["spk00", "spk01"])]
    assert events[3:] == [(part, s) for part in ("dev", "dev", "test") for s in cfg.speakers]


def test_each_score_stage_after_a_grid_holds_only_its_own_speaker(trio_root, tmp_path,
                                                                   monkeypatch):
    # The score stages of an optimizing run used to hold every speaker the
    # grid had prepared.
    cfg = replace(synthetic_config(trio_root, utterances=14, speakers=3, method="cubic_hermite",
                                   out_dir=str(tmp_path / "out")),
                  optimize_timing=True, optimize_position=True, max_steps=1,
                  grid={"timing_lrs": [1e-5], "position_lrs": [1e-2], "lambdas": [0.0]})
    prepare, speaker_score, refs, alive = cli.Run.prepare, cli._speaker_score, [], []

    def tracking(run, speaker):
        data = prepare(run, speaker)
        refs.append(weakref.ref(data))
        return data

    def scoring(data, point_cfg, optim, part):
        if part == "test":
            gc.collect()
            alive.append((data.speaker, [r().speaker for r in refs if r() is not None]))
        return speaker_score(data, point_cfg, optim, part)

    monkeypatch.setattr(cli.Run, "prepare", tracking)
    monkeypatch.setattr(cli, "_speaker_score", scoring)
    run_experiment(cfg)
    assert len(refs) == 2 * len(cfg.speakers)  # the grid's, then one per score stage
    assert alive == [(s, [s]) for s in cfg.speakers]


@pytest.mark.parametrize("method, optim", [
    ("linear", None), ("cubic_hermite", OptimConfig(max_steps=1, optimize_position=True))])
def test_speaker_score_fits_the_probe_before_it_synthesizes_the_test_split(
        trio_root, monkeypatch, method, optim):
    cfg = synthetic_config(trio_root, utterances=14, speakers=3, method=method)
    data = prepare_speaker(cfg, resolve_table(cfg), "spk00")
    events = []

    def recording(kind, fn, utterance):
        def wrapper(*args):
            events.append((kind, utterance(*args)))
            return fn(*args)
        return wrapper

    by_fseg = lambda fseg, *_: fseg.utterance_id  # noqa: E731
    monkeypatch.setattr(cli, "synthesize", recording("synth", cli.synthesize, by_fseg))
    monkeypatch.setattr(cli, "synthesize_targets",
                        recording("synth", cli.synthesize_targets, lambda utt, *_: utt))
    monkeypatch.setattr(cli, "optimize_targets", recording("optimize", cli.optimize_targets,
                                                           by_fseg))
    monkeypatch.setattr(cli, "train_probe", recording("fit", cli.train_probe, lambda *_: None))
    cli._speaker_score(data, cfg, optim, "test")
    order = [u for part in ("train", "dev", "test") for u in data.part(part)]
    assert [u for kind, u in events if kind == "synth"] == order  # each utterance once
    if optim is not None:
        assert [u for kind, u in events if kind == "optimize"] == order
    first_test = min(i for i, (_, u) in enumerate(events) if u in data.part("test"))
    assert events.index(("fit", None)) < first_test


def test_run_without_a_grid_scores_each_speaker_after_preparing_it(pair_root, tmp_path):
    cfg = synthetic_config(pair_root, utterances=14, out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [s["stage"] for s in manifest["stages"]] == [
        "prepare/spk00", "score/spk00", "prepare/spk01", "score/spk01"]
    every = cli.Run(replace(cfg, out_dir=str(tmp_path / "every")))
    rows = [cli._speaker_score(every.prepare(s), cfg, None, "test")[0] for s in cfg.speakers]
    assert ((tmp_path / "out" / "report.csv").read_text()
            == aggregate(np.vstack(rows), cfg.speakers).to_csv())


def test_piecewise_constant_rejected_on_underspecified_set(synth_root, tmp_path, monkeypatch):
    cfg = synthetic_config(synth_root, method="piecewise_constant",
                           out_dir=str(tmp_path / "pc"))
    # rejected while the Run is built, before any speaker is prepared
    monkeypatch.setattr(cli, "prepare_speaker", lambda *a: pytest.fail("prepared a speaker"))
    with pytest.raises(ConfigError, match="fully specified"):
        run_experiment(cfg)


@pytest.mark.parametrize("command", ["ingest", "synth", "optimize", "probe", "grid", "run",
                                     "plot"])
@pytest.mark.parametrize("fields, message", [
    ({"feature_set": "custom_phonemes"}, "unknown feature set 'custom_phonemes'"),
    ({"feature_set": "customized"}, "unknown feature set 'customized'"),
    ({"feature_set": "gp_unknown"}, "takes no feature_table_path"),
    ({"feature_table_path": None}, "needs a feature_table_path"),
    ({"method": "piecewise_constant"}, "fully specified"),
])
def test_set_that_cannot_work_rejected_before_any_input_is_read(tiny_root, tmp_path, monkeypatch,
                                                                capsys, command, fields,
                                                                message):
    # "custom_phonemes" used to load the plain custom table, a shipped set
    # ignored its feature_table_path and piecewise_constant on a table with
    # unknown entries failed in score/<spk>, after every speaker was prepared
    cfg = replace(synthetic_config(tiny_root, utterances=14, speakers=1,
                                   out_dir=str(tmp_path / "out")), **fields)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    monkeypatch.setattr(cli, "prepare_speaker", lambda *a: pytest.fail("prepared a speaker"))
    extra = ["--svg", str(tmp_path / "t.svg")] if command == "plot" else []
    assert cli.main([command, "--config", str(path)] + extra) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def small_grid_cfg(root, tmp_path, **grid):
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           method="natural_cubic", out_dir=str(tmp_path / "grid"))
    return replace(cfg, optimize_timing=True, optimize_position=True,
                   grid=grid or None, max_steps=1)


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=2)
    return root


def test_grid_single_point_selected(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path,
                         timing_lrs=[1e-5], position_lrs=[1e-2], lambdas=[1e3])
    best, rows = grid_search(cli.Run(cfg))
    assert len(rows) == 1
    assert best.lam == 1e3 and best.timing_lr == 1e-5 and best.position_lr == 1e-2


def test_grid_tie_breaks_to_smaller_lambda(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path,
                         timing_lrs=[1e-6], position_lrs=[1e-3],
                         lambdas=[0.0, 1e3])
    cfg = replace(cfg, max_steps=0)  # no-op optimization: scores tie exactly
    best, rows = grid_search(cli.Run(cfg))
    assert rows[0]["dev_score"] == rows[1]["dev_score"]
    assert best.lam == 0.0


def test_full_replication_grid_logs_90_evaluations(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path)  # default axes: 5 x 3 x 6
    run = cli.Run(cfg)
    best, rows = grid_search(run)
    assert len(rows) == 90
    assert sum(1 for s in run.manifest.stages if s["stage"] == "grid-eval") == 90


def test_grid_uses_config_min_gap(tiny_root, tmp_path, monkeypatch):
    cfg = replace(small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                                 lambdas=[0.0, 1e3]), min_gap=0.005)
    speaker_score = cli._speaker_score
    seen = []

    def recording(data, point_cfg, optim, part):
        seen.append((part, optim.min_gap))
        return speaker_score(data, point_cfg, optim, part)

    monkeypatch.setattr(cli, "_speaker_score", recording)
    run_experiment(cfg)
    assert [p for p, _ in seen] == ["dev", "dev", "test"]
    assert all(g == 0.005 for _, g in seen)
    grid = json.loads((Path(cfg.out_dir) / "grid.json").read_text())
    assert grid["best"]["min_gap"] == 0.005


def test_failing_grid_point_names_its_stage_and_utterance(tiny_root, tmp_path, capsys):
    # a min_gap too wide for an utterance's span used to print only the span
    cfg = replace(small_grid_cfg(tiny_root, tmp_path, lambdas=[1e3], timing_lrs=[1e-5],
                                 position_lrs=[1e-2]), min_gap=0.5)
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["grid", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    match = re.search(r"stage grid-eval failed: (spk00_\d{3}): span .* cannot fit", err)
    assert match, err
    assert (Path(tiny_root) / "spk00" / f"{match[1]}.lab").is_file()


def test_grid_eval_records_each_points_own_time(tiny_root, tmp_path, monkeypatch):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3, 1e4])
    speaker_score = cli._speaker_score

    def slow_at_1e4(data, point_cfg, optim, part):
        if optim.lam == 1e4:
            time.sleep(0.5)
        return speaker_score(data, point_cfg, optim, part)

    monkeypatch.setattr(cli, "_speaker_score", slow_at_1e4)
    run = cli.Run(cfg)
    t0 = time.perf_counter()
    grid_search(run)
    wall = time.perf_counter() - t0
    seconds = {s["lam"]: s["seconds"] for s in run.manifest.stages
               if s["stage"] == "grid-eval"}
    assert len(seconds) == 3
    assert all(x >= 0 for x in seconds.values())
    assert sum(seconds.values()) <= wall
    assert seconds[1e4] >= 0.5 > max(seconds[0.0], seconds[1e3])


def test_grid_point_with_an_overshooting_rate_keeps_its_input(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5],
                         position_lrs=[1e-2, 1e150], lambdas=[0.0])
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    grid = json.loads((Path(cfg.out_dir) / "grid.json").read_text())
    assert all(set(p) == {"timing_lr", "position_lr", "lambda", "dev_score"}
               and np.isfinite(p["dev_score"]) for p in grid["points"])
    assert set(grid["best"]) == set(OptimConfig.__dataclass_fields__)
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    evals = [s for s in manifest["stages"] if s["stage"] == "grid-eval"]
    assert [s["position_lr"] for s in evals] == [1e-2, 1e150]
    assert evals[1]["improved"] == 0 and evals[1]["optimized"] > 0


def test_grid_command_writes_the_manifest(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    assert [s["stage"] for s in manifest["stages"]] == ["prepare/spk00", "grid-eval", "grid-eval"]
    assert [s["lam"] for s in manifest["stages"][1:]] == [0.0, 1e3]


def test_a_cached_grid_prepares_no_speaker(pair_root, tmp_path):
    # A second grid used to reload every speaker from the cache, although
    # every point was cached.
    cfg_path = pair_config(pair_root, tmp_path)
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [(s["stage"], s["cached"]) for s in manifest["stages"]] == [("grid-eval", True)]
    # run after it then loads and scores each speaker in its own turn
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [(s["stage"], s["cached"]) for s in manifest["stages"]] == [
        ("grid-eval", True), ("prepare/spk00", True), ("score/spk00", False),
        ("prepare/spk01", True), ("score/spk01", False)]


def test_grid_lists_only_the_axes_it_searched(tiny_root, tmp_path, capsys):
    cfg = replace(small_grid_cfg(tiny_root, tmp_path, position_lrs=[1e-2], lambdas=[1e3]),
                  optimize_timing=False)
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "best: lambda=1000.0 position_lr=0.01"
    grid = json.loads((Path(cfg.out_dir) / "grid.json").read_text())
    assert [set(p) for p in grid["points"]] == [{"position_lr", "lambda", "dev_score"}]
    assert "timing_lr" not in grid["best"] and grid["best"]["position_lr"] == 1e-2
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    [point] = [s for s in manifest["stages"] if s["stage"] == "grid-eval"]
    assert "timing_lr" not in point and (point["lam"], point["position_lr"]) == (1e3, 1e-2)


def test_grid_of_only_overshooting_rates_scores_every_point(tiny_root, tmp_path, caplog):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5],
                         position_lrs=[1e150, 1e308], lambdas=[0.0, 1e3])
    warning = ("no grid point improved any utterance: the optimizer returned its input "
               "targets at all 4 points")
    for cached in (False, True):  # the counts are read from cached points too
        caplog.clear()
        run = cli.Run(cfg)
        with caplog.at_level(logging.WARNING, logger="phonotraj.cli"):
            best, rows = grid_search(run)
        assert [s["cached"] for s in run.manifest.stages if s["stage"] == "grid-eval"] == [
            cached] * 4
        assert [r.getMessage() for r in caplog.records] == [warning]
    assert len(rows) == 4 and all(np.isfinite(r["dev_score"]) for r in rows)
    # every point keeps the input targets, so the first point wins the tie
    assert len({r["dev_score"] for r in rows}) == 1
    assert (best.position_lr, best.lam) == (1e150, 0.0)


def test_grid_requires_optimization(tiny_root, tmp_path):
    cfg = synthetic_config(tiny_root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "g"))
    with pytest.raises(ConfigError):
        grid_search(cli.Run(cfg))


@pytest.mark.parametrize("command", ["grid", "optimize"])
def test_grid_without_optimization_fails_before_hashing_inputs(tiny_root, tmp_path,
                                                               monkeypatch, capsys, command):
    cfg = synthetic_config(tiny_root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "g"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")

    def hashing(*args):
        raise AssertionError("input files hashed")

    monkeypatch.setattr(cli.Run, "digest", hashing)
    assert cli.main([command, "--config", str(cfg_path)]) == 1
    assert "grid search requires optimization to be enabled" in capsys.readouterr().err


def test_streamed_input_digest_equals_digest_of_all_files(tiny_root):
    cfg = synthetic_config(tiny_root, utterances=14, speakers=1)
    table = resolve_table(cfg)
    pieces = [cli._source_digest(), cfg.feature_set, table.names, table.inventory,
              table.matrix.tobytes(), cfg.split_sizes, cfg.seed, "spk00"]
    for utt, ema_path, align_path in cli.discover_utterances(tiny_root, "spk00"):
        pieces += [utt.encode(), ema_path.read_bytes(), align_path.read_bytes()]
    assert cli.Run(cfg).digest("spk00") == cli._digest(pieces)


def test_one_speakers_commands_read_only_its_files(tmp_path, capsys):
    # plot and synth --utterance used to hash every speaker's files, so an
    # unreadable file of another speaker failed them with exit 1.
    root = tmp_path / "data"
    generate_synthetic(root, speakers=2, utterances=14, dim=4, seed=2)
    ema = root / "spk01" / "spk01_003.ema"
    ema.unlink()
    ema.symlink_to(root / "gone.ema")
    cfg = synthetic_config(root, utterances=14, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    svg = str(tmp_path / "traj.svg")
    for command in (["plot", "--svg", svg, "--utterance", "spk00_001"], ["plot", "--svg", svg],
                    ["synth", "--utterance", "spk00_001"]):
        assert cli.main([*command, "--config", str(cfg_path)]) == 0, capsys.readouterr().err
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and str(ema) in err and "runtime failure" not in err


def test_short_500hz_track_fails_cleanly(tmp_path, capsys):
    root = tmp_path / "data"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=2)
    track = root / "spk00" / "spk00_003.ema"
    write_est_track(track, EmaRecord("spk00_003", 500, np.zeros((18, 12))))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(synthetic_config(root, utterances=14, speakers=1,
                                         out_dir=str(tmp_path / "out")).to_json(),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "spk00_003: 18 samples at 500 Hz" in capsys.readouterr().err


def test_a_run_on_500hz_tracks_scores_close_to_the_100hz_run(tmp_path, capsys, monkeypatch):
    # Only a failing 500 Hz track was run through the command; no test took
    # one through filtering and decimation to a score.
    root = tmp_path / "data"
    generate_synthetic(root, speakers=2, utterances=14, dim=4, seed=2)
    filter_and_downsample, filtered = cli.filter_and_downsample, []
    monkeypatch.setattr(cli, "filter_and_downsample",
                        lambda rec: filtered.append(rec.utterance_id) or filter_and_downsample(rec))
    scores = []
    for rate in (100, 500):
        if rate == 500:  # each track resampled x5: linear between its 100 Hz samples
            for track in sorted(root.glob("spk*/*.ema")):
                rec = load_est_track(track)
                n = rec.channels.shape[0]
                fine = np.arange(5 * n) / 5
                channels = np.column_stack([np.interp(fine, np.arange(n), c)
                                            for c in rec.channels.T])
                write_est_track(track, EmaRecord(rec.utterance_id, 500, channels))
        cfg_path = tmp_path / f"cfg-{rate}.json"
        cfg_path.write_text(synthetic_config(root, utterances=14,
                                             out_dir=str(tmp_path / f"out-{rate}")).to_json(),
                            encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg_path)]) == 0
        scores.append(float(capsys.readouterr().out.split("articulatory score: ")[1]))
    assert len(filtered) == 28  # the 500 Hz run filtered every track, the 100 Hz one none
    assert scores[0] > 0.99 and abs(scores[1] - scores[0]) < 0.02, scores


def _not_utf8(path: Path) -> Path:
    path.write_bytes(path.read_bytes().replace(b"\n", b"\xff\n", 1))
    return path


def _lab_as_textgrid(utt: Path) -> Path:
    """The utterance's .lab alignment, replaced by the same intervals in a
    short-form TextGrid."""
    lab = utt.with_suffix(".lab")
    rows = [line.split() for line in lab.read_text(encoding="utf-8").splitlines()]
    lab.unlink()
    path = utt.with_suffix(".TextGrid")
    path.write_text('File type = "ooTextFile"\nObject class = "TextGrid"\n"IntervalTier"\n'
                    f'"phones"\n0\n{rows[-1][1]}\n{len(rows)}\n'
                    + "".join(f'{start}\n{end}\n"{label}"\n' for start, end, label in rows),
                    encoding="utf-8")
    return path


def _csv_not_utf8(root: Path) -> Path:
    ema = root / "spk00" / "spk00_003.ema"
    write_csv(ema.with_suffix(".csv"), load_est_track(ema))
    ema.unlink()
    return _not_utf8(ema.with_suffix(".csv"))


def _dangling_ema(root: Path) -> Path:
    ema = root / "spk00" / "spk00_003.ema"
    ema.unlink()
    ema.symlink_to(root / "gone.ema")
    return ema


@pytest.mark.parametrize("unreadable", [
    lambda root: _not_utf8(root / "spk00" / "spk00_003.lab"),
    _csv_not_utf8,
    _dangling_ema,
    lambda root: root / "missing.tsv",
    lambda root: _not_utf8(root / "features.tsv"),
    lambda root: _not_utf8(_lab_as_textgrid(root / "spk00" / "spk00_003")),
], ids=["lab-not-utf8", "csv-not-utf8", "dangling-ema", "missing-table", "table-not-utf8",
        "textgrid-not-utf8"])
def test_an_unreadable_input_file_is_a_validation_error_naming_it(tmp_path, capsys,
                                                                    unreadable):
    root = tmp_path / "data"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=2)
    path = unreadable(root)
    cfg = synthetic_config(root, utterances=14, speakers=1, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(replace(cfg, feature_table_path=path.name if path.suffix == ".tsv"
                                else cfg.feature_table_path).to_json(), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "error: " in err and str(path) in err and "runtime failure" not in err


def test_run_experiment_with_optimization(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path,
                         timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    rep, manifest = run_experiment(cfg)
    out = Path(cfg.out_dir)
    assert (out / "grid.json").exists()
    grid = json.loads((out / "grid.json").read_text())
    assert len(grid["points"]) == 2
    assert np.isfinite(rep.grand)
    assert any(s["stage"] == "grid-eval" for s in manifest.stages)


def test_grid_points_never_optimize_the_test_split(tiny_root, tmp_path, monkeypatch, capsys):
    # A test utterance that fails to optimize used to knock every grid point
    # out of model selection; only the score stage may touch the test split.
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    test_ids = set(prepare_speaker(cfg, resolve_table(cfg), "spk00").splits.test)
    optimize_targets = cli.optimize_targets

    def fail_on_test(fseg, method, oc):
        if fseg.utterance_id in test_ids:
            raise OptimizeError(f"{fseg.utterance_id}: cannot optimize")
        return optimize_targets(fseg, method, oc)

    monkeypatch.setattr(cli, "optimize_targets", fail_on_test)
    _, rows = grid_search(cli.Run(cfg))
    assert len(rows) == 2 and all(np.isfinite(r["dev_score"]) for r in rows)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "stage score/spk00" in capsys.readouterr().err
    # optimize writes every utterance's targets, so it fails too, naming its stage
    assert cli.main(["optimize", "--config", str(cfg_path)]) == 1
    assert "stage optimized/spk00 failed" in capsys.readouterr().err


def grid_evals(cfg) -> list[dict]:
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    return [s for s in manifest["stages"] if s["stage"] == "grid-eval"]


def test_grid_eval_counts_optimized_and_improved_utterances(tiny_root, tmp_path, monkeypatch,
                                                            caplog):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    train_ids = set(prepare_speaker(cfg, resolve_table(cfg), "spk00").splits.train)
    optimize_targets = cli.optimize_targets

    def one_step_on_train(fseg, method, oc):
        best = optimize_targets(fseg, method, oc)
        return replace(best, steps=1) if fseg.utterance_id in train_ids else best

    monkeypatch.setattr(cli, "optimize_targets", one_step_on_train)
    with caplog.at_level(logging.WARNING, logger="phonotraj.cli"):
        run_experiment(cfg)
    assert not [r for r in caplog.records if "no grid point improved" in r.getMessage()]
    n_train, n_dev, _ = cfg.split_sizes
    for entry in grid_evals(cfg):
        assert entry["optimized"] == n_train + n_dev
        assert entry["improved"] == n_train
    grid = json.loads((Path(cfg.out_dir) / "grid.json").read_text())
    assert all(set(p) == {"timing_lr", "position_lr", "lambda", "dev_score"}
               for p in grid["points"])


def test_warm_rerun_of_an_optimizing_config_is_fully_cached(tiny_root, tmp_path, monkeypatch):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2, 1e150],
                         lambdas=[0.0])  # the second point overshoots
    run_experiment(cfg)
    grid = (Path(cfg.out_dir) / "grid.json").read_bytes()
    monkeypatch.setattr(cli, "optimize_targets", lambda *a: pytest.fail("optimized"))
    _, manifest = run_experiment(cfg)
    assert len(grid_evals(cfg)) == 2
    assert manifest.stages and all(s["cached"] for s in manifest.stages)
    assert (Path(cfg.out_dir) / "grid.json").read_bytes() == grid
    assert grid_evals(cfg)[1]["improved"] == 0


def test_adding_a_lambda_recomputes_only_the_new_point(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    run_experiment(cfg)
    run_experiment(replace(cfg, grid={**cfg.grid, "lambdas": [0.0, 1e3, 1e4]}))
    assert {e["lam"]: e["cached"] for e in grid_evals(cfg)} == {
        0.0: True, 1e3: True, 1e4: False}


def test_grid_eval_keys_cover_package_source(tiny_root, tmp_path, monkeypatch):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    run_experiment(cfg)
    run_experiment(cfg)
    assert [e["cached"] for e in grid_evals(cfg)] == [True, True]
    monkeypatch.setattr(cli, "_source_digest", lambda: "edited source")
    run_experiment(cfg)
    assert [e["cached"] for e in grid_evals(cfg)] == [False, False]


def test_optimize_command_writes_target_csvs(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[1e3])
    cfg_path = tmp_path / "opt.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg_path)]) == 0
    files = list((Path(cfg.out_dir) / "optimized" / "spk00").glob("*.csv"))
    assert len(files) == 14


def test_every_spelling_of_one_method_shares_its_stages(pair_root, tmp_path):
    # The score key used to hash the method as written, so "Linear" after
    # "linear" recomputed both score stages.
    cfg = synthetic_config(pair_root, utterances=14, out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    _, manifest = run_experiment(replace(cfg, method="Linear"))
    assert manifest.stages and all(s["cached"] for s in manifest.stages)


def test_writers_of_one_key_use_their_own_temporary_files(tmp_path, monkeypatch):
    # Every writer of a key used to write <key>.tmp, so the writer that
    # renamed it second found it gone (FileNotFoundError).
    cache = cli.Cache(tmp_path / "cache")
    dump = pickle.dump
    nested = []

    def dump_after_another_writer(value, f):
        if not nested:
            nested.append(True)
            cache.put("same", "inner")
        dump(value, f)

    monkeypatch.setattr(cli.pickle, "dump", dump_after_another_writer)
    cache.put("same", "outer")
    assert nested and cache.get("same") == "outer"
    assert [p.name for p in cache.root.iterdir()] == ["same.pkl"]


def _put_repeatedly(root: str, fill: bytes) -> None:
    cache = cli.Cache(Path(root))
    for _ in range(20):
        cache.put("same", fill * 2**22)


def test_concurrent_writers_of_one_key_all_succeed(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    writers = [ctx.Process(target=_put_repeatedly, args=(str(tmp_path), bytes([i])))
               for i in range(3)]
    for w in writers:
        w.start()
    for w in writers:
        w.join(timeout=120)
        if w.is_alive():
            w.kill()
    assert [w.exitcode for w in writers] == [0, 0, 0]
    assert cli.Cache(tmp_path).get("same") in {bytes([i]) * 2**22 for i in range(3)}
    assert [p.name for p in tmp_path.iterdir()] == ["same.pkl"]


def test_a_failed_cache_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    cache = cli.Cache(tmp_path / "cache")

    def disk_full(value, f):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.pickle, "dump", disk_full)
    with pytest.raises(OSError, match="No space left"):
        cache.put("key", "value")
    assert list(cache.root.iterdir()) == []


def test_cache_invalidated_when_inputs_change(tmp_path):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=9)
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    lab = next((root / "spk00").glob("*.lab"))
    lab.write_text(lab.read_text() + "# touched\n", encoding="utf-8")
    _, manifest = run_experiment(cfg)
    prep = [s for s in manifest.stages if s["stage"].startswith("prepare/")]
    assert prep and not any(s["cached"] for s in prep)


def test_cache_invalidated_when_feature_table_changes(tmp_path):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=9)
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    table = root / "features.tsv"
    lines = table.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split("\t")
    j = next(j for j, c in enumerate(cells) if c in "+-" and j > 0)
    cells[j] = "-" if cells[j] == "+" else "+"
    lines[1] = "\t".join(cells)
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, manifest = run_experiment(cfg)
    assert manifest.stages and not any(s["cached"] for s in manifest.stages)


def test_cache_keys_cover_package_source(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=9)
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    _, manifest = run_experiment(cfg)
    assert manifest.stages and all(s["cached"] for s in manifest.stages)
    monkeypatch.setattr(cli, "_source_digest", lambda: "edited source")
    _, manifest = run_experiment(cfg)
    stages = [s for s in manifest.stages
              if s["stage"].startswith(("prepare/", "score/"))]
    assert len(stages) == 2 and not any(s["cached"] for s in stages)


@pytest.mark.parametrize("module", [np, scipy], ids=["numpy", "scipy"])
def test_cache_keys_cover_the_numeric_stack(tmp_path, monkeypatch, module):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=9)
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    _, manifest = run_experiment(cfg)
    [key] = [s["key"] for s in manifest.stages if s["stage"] == "prepare/spk00"]
    monkeypatch.setattr(module, "__version__", module.__version__ + "+patched")
    cli._source_digest.cache_clear()
    try:
        _, manifest = run_experiment(cfg)
    finally:
        monkeypatch.undo()
        cli._source_digest.cache_clear()
    [prep] = [s for s in manifest.stages if s["stage"] == "prepare/spk00"]
    assert prep["key"] != key and not prep["cached"]


def test_manifest_records_its_cache_provenance(tiny_root, tmp_path):
    cfg = synthetic_config(tiny_root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["source_digest"] == cli._source_digest()
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__


# ---------------------------------------------------------------------------
# command-line entry points
# ---------------------------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    root = tmp_path / "ds"
    assert cli.main(["gen-synthetic", "--out", str(root), "--speakers", "1",
                     "--utterances", "14", "--dim", "6", "--seed", "5"]) == 0
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")

    assert cli.main(["ingest", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "ingest.json").exists()

    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "articulatory score" in out
    assert (tmp_path / "out" / "report.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()

    svg = tmp_path / "traj.svg"
    assert cli.main(["plot", "--config", str(cfg_path), "--svg", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")

    assert cli.main(["synth", "--config", str(cfg_path)]) == 0
    traj_dir = tmp_path / "out" / "trajectories" / "spk00"
    assert any(traj_dir.glob("*.traj"))

    with pytest.raises(SystemExit):  # score is gone: run scores a config without optimization
        cli.main(["score", "--config", str(cfg_path)])
    capsys.readouterr()
    assert cli.main(["probe", "--config", str(cfg_path)]) == 0
    assert "epochs" not in capsys.readouterr().out
    with np.load(tmp_path / "out" / "probes" / "spk00.npz") as saved:
        assert sorted(saved.files) == ["best_dev_loss", "bias", "weight"]


def test_python_m_cli_writes_a_cache_the_package_reads(tiny_root, tmp_path):
    # ``python -m phonotraj.cli`` used to pickle __main__.SpeakerData, which
    # the phonotraj command and the library could not load: they silently
    # prepared the speaker again.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(synthetic_config(tiny_root, utterances=14, speakers=1,
                                         out_dir=str(tmp_path / "out")).to_json(),
                        encoding="utf-8")
    src = Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-m", "phonotraj.cli", "run", "--config", str(cfg_path)],
                   check=True, capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    [prep] = (tmp_path / "out" / "cache").glob("prep-*.pkl")
    with open(prep, "rb") as f:
        assert type(pickle.load(f)) is cli.SpeakerData


def test_subcommands_read_speakers_from_the_run_cache(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=5)
    cfg = synthetic_config(root, utterances=14, speakers=1, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    monkeypatch.setattr(cli, "prepare_speaker", lambda *a: pytest.fail("prepared a speaker"))
    for command in (["synth"], ["ingest"], ["probe"],
                    ["plot", "--svg", str(tmp_path / "traj.svg")]):
        assert cli.main([*command, "--config", str(cfg_path)]) == 0


@pytest.fixture(scope="module")
def pair_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    generate_synthetic(root, speakers=2, utterances=14, dim=4, seed=4)
    return root


def pair_config(root, tmp_path, **grid) -> Path:
    """A one-point-grid (or ``grid``) optimizing config over both speakers."""
    cfg = replace(synthetic_config(root, utterances=14, method="cubic_hermite",
                                   out_dir=str(tmp_path / "out")),
                  optimize_timing=True, optimize_position=True, max_steps=2,
                  grid=grid or {"timing_lrs": [1e-5], "position_lrs": [1e-2], "lambdas": [1e3]})
    path = tmp_path / "cfg.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", [
    ["ingest"], ["synth"], ["optimize"], ["probe"], ["grid"], ["plot", "--svg", "traj.svg"],
    ["run"],
], ids=lambda c: c[0])
def test_every_config_subcommand_writes_a_manifest(pair_root, tmp_path, monkeypatch, command):
    # ingest, synth, optimize, probe and plot used to write no manifest.json.
    # plot without --utterance used to prepare every speaker to draw the first's.
    # run and optimize prepare every speaker for the grid, then reload each
    # one from the cache in its own turn.
    monkeypatch.chdir(tmp_path)
    prepare = cli.prepare_speaker
    read = []

    def recording(cfg, table, speaker):
        read.append(speaker)
        return prepare(cfg, table, speaker)

    monkeypatch.setattr(cli, "prepare_speaker", recording)
    assert cli.main([*command, "--config", str(pair_config(pair_root, tmp_path))]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    prepared = [(s["stage"], s["cached"]) for s in manifest["stages"]
                if s["stage"].startswith("prepare/")]
    reloads = read if command[0] in ("run", "optimize") else []
    assert prepared == ([(f"prepare/{s}", False) for s in read]
                        + [(f"prepare/{s}", True) for s in reloads])
    assert read == (["spk00"] if command[0] == "plot" else ["spk00", "spk01"])


def test_optimize_command_writes_the_targets_of_the_best_grid_point(pair_root, tmp_path):
    cfg_path = pair_config(pair_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                           lambdas=[0.0, 1e3])
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    assert cli.main(["optimize", "--config", str(cfg_path)]) == 0
    cfg = ExperimentConfig.from_file(cfg_path)
    evals = grid_evals(cfg)  # optimize's own manifest: run's grid points, from the cache
    assert len(evals) == 2 and all(e["cached"] for e in evals)
    best = OptimConfig(**json.loads((Path(cfg.out_dir) / "grid.json").read_text())["best"])
    for speaker in cfg.speakers:
        data = prepare_speaker(cfg, resolve_table(cfg), speaker)
        written = sorted((Path(cfg.out_dir) / "optimized" / speaker).glob("*.csv"))
        assert [p.stem for p in written] == sorted(data.fsegs)
        for path in written:
            expected = tmp_path / "expected.csv"
            optimize_targets(data.fsegs[path.stem], cfg.interp_method, best).to_csv(expected)
            assert path.read_bytes() == expected.read_bytes()


def test_repeated_optimize_serves_the_targets_from_the_cache(pair_root, tmp_path, monkeypatch):
    # A second optimize used to call optimize_targets for every utterance
    # again (28 calls here) while its manifest showed only cached stages.
    cfg_path = pair_config(pair_root, tmp_path)
    assert cli.main(["optimize", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    first = {p: p.read_bytes() for p in sorted(out.glob("optimized/*/*.csv"))}
    assert len(first) == 28
    optimize = cli.optimize_targets
    calls = []
    monkeypatch.setattr(cli, "optimize_targets", lambda *a: calls.append(a) or optimize(*a))
    assert cli.main(["optimize", "--config", str(cfg_path)]) == 0
    assert calls == []
    assert {p: p.read_bytes() for p in sorted(out.glob("optimized/*/*.csv"))} == first
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    optimized = {s["stage"]: s["cached"] for s in stages if s["stage"].startswith("optimized/")}
    assert optimized == {"optimized/spk00": True, "optimized/spk01": True}


@pytest.mark.parametrize("utterance, speaker, other", [
    ("spk00_003", "spk00", "spk01"), ("spk01_003", "spk01", "spk00")])
def test_synth_utterance_is_looked_up_over_every_speaker(pair_root, tmp_path, monkeypatch,
                                                          utterance, speaker, other):
    # synth --utterance spk00_003 used to exit 1 at spk01, leaving an empty
    # trajectories/spk01/; spk01_003 failed at spk00 before writing anything.
    # Both then prepared every speaker and held them all, and later each
    # speaker up to the one that has the id.
    events = []
    track_speakers(monkeypatch, events)
    assert cli.main(["synth", "--config", str(pair_config(pair_root, tmp_path)),
                     "--utterance", utterance]) == 0
    assert events == [("prepare", speaker, [])]  # the id is found by file name
    out = tmp_path / "out" / "trajectories"
    assert sorted(p.name for p in (out / speaker).iterdir()) == [f"{utterance}.csv",
                                                               f"{utterance}.traj"]
    assert not (out / other).exists()


def test_plot_utterance_is_looked_up_over_every_speaker(pair_root, tmp_path, capsys):
    # plot used to look only at the first speaker of the config.
    cfg_path = pair_config(pair_root, tmp_path)
    svg = tmp_path / "traj.svg"
    assert cli.main(["plot", "--config", str(cfg_path), "--utterance", "spk01_003",
                     "--svg", str(svg)]) == 0
    assert "spk01_003" in svg.read_text()
    for command in (["plot", "--svg", str(svg)], ["synth"]):
        assert cli.main([*command, "--config", str(cfg_path), "--utterance", "spk02_000"]) == 1
        assert "unknown utterance 'spk02_000'" in capsys.readouterr().err


def test_an_utterance_rejected_at_trim_is_named_as_such(tmp_path, capsys):
    # It used to be reported as an unknown utterance.
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=5)
    lab = root / "spk00" / "spk00_003.lab"
    lines = lab.read_text(encoding="utf-8").splitlines(keepends=True)
    lab.write_text("".join(lines[:-1]), encoding="utf-8")  # speech runs into the end
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(synthetic_config(root, utterances=14, speakers=1,
                                         out_dir=str(tmp_path / "out")).to_json(),
                        encoding="utf-8")
    for command in (["plot", "--svg", str(tmp_path / "traj.svg")], ["synth"]):
        assert cli.main([*command, "--config", str(cfg_path), "--utterance", "spk00_003"]) == 1
        assert "utterance 'spk00_003' of spk00 was rejected at trim" in capsys.readouterr().err


@pytest.mark.parametrize("existing, added", [
    ("spk00_000.ema", "spk00_000.csv"), ("spk00_000.lab", "spk00_000.TextGrid")])
def test_two_files_of_one_kind_with_one_stem_rejected(tmp_path, capsys, existing, added):
    # The file listed last by the directory used to be read, with no warning.
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=5)
    spk = root / "spk00"
    if added.endswith(".csv"):
        write_csv(spk / added, load_est_track(spk / existing))
    else:
        (spk / added).write_text('File type = "ooTextFile"\n', encoding="utf-8")
    both = " and ".join(sorted([existing, added]))  # named in sorted order
    with pytest.raises(ConfigError, match=f"spk00/spk00_000: two .* files, {both}"):
        cli.discover_utterances(root, "spk00")
    cfg = synthetic_config(root, utterances=14, speakers=1, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["ingest", "--config", str(cfg_path)]) == 1
    assert both in capsys.readouterr().err


def test_cli_validation_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"dataset_root": str(tmp_path / "nope"),
                                    "speakers": ["spk00"],
                                    "split_sizes": [5, 1, 1]}), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1


def _cut_est_track(utt: Path) -> None:
    ema = utt.with_suffix(".ema")
    ema.write_bytes(ema.read_bytes()[:-64])


def _est_header_cut(utt: Path) -> None:
    ema = utt.with_suffix(".ema")
    raw = ema.read_bytes()
    ema.write_bytes(raw[: raw.index(b"EST_Header_End") + len(b"EST_Header_End")])


def _lab_with_nan_end(utt: Path) -> None:
    lab = utt.with_suffix(".lab")
    lines = lab.read_text(encoding="utf-8").splitlines()
    start, _, label = lines[1].split()
    lines[1] = f"{start} nan {label}"
    lab.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ascii_est_track(utt: Path) -> None:
    ema = utt.with_suffix(".ema")
    ema.write_bytes(ema.read_bytes().replace(b"DataType binary", b"DataType ascii"))


def _csv_replacing(old: str, new: str):
    def corrupt(utt: Path) -> None:
        ema = utt.with_suffix(".ema")
        csv = utt.with_suffix(".csv")
        write_csv(csv, load_est_track(ema))
        ema.unlink()
        csv.write_text(csv.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    return corrupt


def _textgrid_with_time(time: str):
    def corrupt(utt: Path) -> None:
        utt.with_suffix(".lab").unlink()
        utt.with_suffix(".TextGrid").write_text(
            'File type = "ooTextFile"\nObject class = "TextGrid"\n\n0\n1\n<exists>\n1\n'
            f'"IntervalTier"\n"phones"\n0\n1\n1\n0\n{time}\n"sil"\n', encoding="utf-8")
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_cut_est_track, "truncated frame data"),
    (_ascii_est_track, "only binary tracks"),
    (_csv_replacing("\n0.01,", "\n0.01x,"), "'0.01x'"),
    (_csv_replacing("\n0.01,", "\n"), "ragged CSV rows"),
    (_textgrid_with_time("1s"), "'1s' is not a number"),
    (_est_header_cut, "spk00_003.ema: truncated header"),
    (_lab_with_nan_end, "spk00_003: non-finite time in ["),
    (_textgrid_with_time("+nan"), "spk00_003: non-finite time in [0.0, nan]"),
], ids=["est-truncated", "est-ascii", "csv-non-numeric", "csv-ragged", "textgrid-bad-time",
        "est-header-cut", "lab-nan-time", "textgrid-nan-time"])
def test_malformed_input_file_is_a_validation_error(tmp_path, capsys, corrupt, message):
    # Each of these used to end in a plain ValueError: exit 2, "runtime failure".
    # A .lab nan time used to fail later, as midpoints that do not increase,
    # and a lone nan TextGrid interval passed as an utterance rejected at trim.
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=5)
    corrupt(root / "spk00" / "spk00_003")
    cfg = synthetic_config(root, utterances=14, speakers=1, out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["ingest", "--config", str(cfg_path)]) == 1
    assert message in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=6)
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")

    def boom(cfg):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["run", "--config", str(cfg_path)]) == 2


def test_cli_overrides(tmp_path):
    root = tmp_path / "ds"
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=7)
    cfg = synthetic_config(root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "out_a"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    out_b = tmp_path / "out_b"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_b),
                     "--method", "cubic_hermite"]) == 0
    assert (out_b / "report.csv").exists()
