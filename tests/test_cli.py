import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phonotraj.cli as cli
from conftest import synthetic_config
from phonotraj.cli import (ConfigError, ExperimentConfig, generate_synthetic,
                           grid_search, make_splits, prepare_speaker,
                           resolve_table, run_experiment)
from phonotraj.ema import EmaRecord, load_est_track, write_csv, write_est_track
from phonotraj.optimize import DivergenceError, OptimConfig, optimize_targets
from phonotraj.probe import ProbeModel, score


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
    {"timing_lrs": [True]},
])
def test_config_rejects_bad_grid_values(tmp_path, grid):
    # {"lambdas": 1e4} used to pass construction and fail inside grid_search
    # with a TypeError, which the CLI reported as a runtime failure (exit 2).
    fields = {"dataset_root": str(tmp_path), "speakers": ["a"], "method": "cubic_hermite",
              "optimize_position": True, "grid": grid}
    with pytest.raises(ConfigError, match="grid axis"):
        ExperimentConfig(**{**fields, "speakers": ("a",)})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1


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
])
def test_config_rejects_unusable_optimizer_settings_up_front(tmp_path, monkeypatch, capsys,
                                                             field, value, message):
    # "max_steps": 2.5 and "seed": "x" used to exit 2 as runtime failures,
    # "min_gap": 0 and "split_sizes": [10.0, 2.0, 2.0] failed only after every
    # input file had been read, "speakers": "spk00" named five one-letter
    # speakers and "optimize_timing": "yes" passed as true.
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**{"dataset_root": "/d", "speakers": ("a",), field: value})
    monkeypatch.setattr(cli, "prepare_speaker", lambda *a: pytest.fail("prepared a speaker"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "method": "cubic_hermite", "optimize_position": True,
                                field: value}), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


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
    pairs = cli._speaker_pairs(data, cfg, None)
    F = np.vstack([p[0].frames for p in pairs["train"]])
    Z = np.vstack([p[1].Z[: p[0].frames.shape[0]] for p in pairs["train"]])
    Fb = np.column_stack([F, np.ones(len(F))])
    W, *_ = np.linalg.lstsq(Fb, Z, rcond=None)
    probe = ProbeModel(W[:-1].T, W[-1])
    pcc = score(probe, pairs["test"])
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


def test_piecewise_constant_rejected_on_underspecified_set(synth_root, tmp_path):
    cfg = synthetic_config(synth_root, method="piecewise_constant",
                           out_dir=str(tmp_path / "pc"))
    with pytest.raises(ConfigError, match="fully specified"):
        run_experiment(cfg)


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


def test_grid_records_diverged_point_as_failed(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5],
                         position_lrs=[1e-2, 1e150], lambdas=[0.0])
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    grid = json.loads((Path(cfg.out_dir) / "grid.json").read_text())
    finite, diverged = grid["points"]
    assert np.isfinite(finite["dev_score"]) and "error" not in finite
    assert diverged["dev_score"] is None and "diverged" in diverged["error"]
    assert grid["best"]["position_lr"] == 1e-2
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    evals = [s for s in manifest["stages"] if s["stage"] == "grid-eval"]
    assert [s["dev_score"] is None for s in evals] == [False, True]
    assert evals[1]["error"] == diverged["error"]


def test_grid_command_writes_the_manifest(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["grid", "--config", str(cfg_path)]) == 0
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    assert [s["stage"] for s in manifest["stages"]] == ["prepare/spk00", "grid-eval", "grid-eval"]
    assert [s["lam"] for s in manifest["stages"][1:]] == [0.0, 1e3]


def test_grid_fails_when_every_point_diverges(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5],
                         position_lrs=[1e150], lambdas=[0.0])
    with pytest.raises(ConfigError, match="every grid point failed"):
        grid_search(cli.Run(cfg))


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

    monkeypatch.setattr(cli, "_speaker_input_hash", hashing)
    assert cli.main([command, "--config", str(cfg_path)]) == 1
    assert "grid search requires optimization to be enabled" in capsys.readouterr().err


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
    # A test utterance that diverges used to knock every grid point out of
    # model selection; only the score stage may touch the test split.
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    test_ids = set(prepare_speaker(cfg, resolve_table(cfg), "spk00").splits.test)
    optimize_targets = cli.optimize_targets

    def diverge_on_test(fseg, method, oc):
        if fseg.utterance_id in test_ids:
            raise DivergenceError(f"{fseg.utterance_id}: objective diverged", None)
        return optimize_targets(fseg, method, oc)

    monkeypatch.setattr(cli, "optimize_targets", diverge_on_test)
    _, rows = grid_search(cli.Run(cfg))
    assert len(rows) == 2 and all(np.isfinite(r["dev_score"]) for r in rows)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert "stage score/spk00" in capsys.readouterr().err


def grid_evals(cfg) -> list[dict]:
    manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
    return [s for s in manifest["stages"] if s["stage"] == "grid-eval"]


def test_grid_eval_counts_optimized_and_improved_utterances(tiny_root, tmp_path, monkeypatch):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3])
    train_ids = set(prepare_speaker(cfg, resolve_table(cfg), "spk00").splits.train)
    optimize_targets = cli.optimize_targets

    def one_step_on_train(fseg, method, oc):
        best = optimize_targets(fseg, method, oc)
        return replace(best, steps=1) if fseg.utterance_id in train_ids else best

    monkeypatch.setattr(cli, "optimize_targets", one_step_on_train)
    run_experiment(cfg)
    n_train, n_dev, _ = cfg.split_sizes
    for entry in grid_evals(cfg):
        assert entry["optimized"] == n_train + n_dev
        assert entry["improved"] == n_train
    grid = json.loads((Path(cfg.out_dir) / "grid.json").read_text())
    assert all(set(p) == {"timing_lr", "position_lr", "lambda", "dev_score"}
               for p in grid["points"])


def test_warm_rerun_of_an_optimizing_config_is_fully_cached(tiny_root, tmp_path, monkeypatch):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2, 1e150],
                         lambdas=[0.0])  # the second point diverges
    run_experiment(cfg)
    grid = (Path(cfg.out_dir) / "grid.json").read_bytes()
    monkeypatch.setattr(cli, "optimize_targets", lambda *a: pytest.fail("optimized"))
    _, manifest = run_experiment(cfg)
    assert len(grid_evals(cfg)) == 2
    assert manifest.stages and all(s["cached"] for s in manifest.stages)
    assert (Path(cfg.out_dir) / "grid.json").read_bytes() == grid
    assert grid_evals(cfg)[1]["error"]


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

    assert cli.main(["score", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli.main(["probe", "--config", str(cfg_path)]) == 0
    assert "epochs" not in capsys.readouterr().out
    with np.load(tmp_path / "out" / "probes" / "spk00.npz") as saved:
        assert sorted(saved.files) == ["best_dev_loss", "bias", "weight"]


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
    ["run"], ["score"],
], ids=lambda c: c[0])
def test_every_config_subcommand_writes_a_manifest(pair_root, tmp_path, monkeypatch, command):
    # ingest, synth, optimize, probe and plot used to write no manifest.json.
    monkeypatch.chdir(tmp_path)
    prepare = cli.prepare_speaker
    read = []

    def recording(cfg, table, speaker):
        read.append(speaker)
        return prepare(cfg, table, speaker)

    monkeypatch.setattr(cli, "prepare_speaker", recording)
    assert cli.main([*command, "--config", str(pair_config(pair_root, tmp_path))]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    prepared = [s["stage"] for s in manifest["stages"] if s["stage"].startswith("prepare/")]
    assert prepared == [f"prepare/{s}" for s in read]
    assert read == ["spk00", "spk01"]


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


@pytest.mark.parametrize("utterance, speaker, other", [
    ("spk00_003", "spk00", "spk01"), ("spk01_003", "spk01", "spk00")])
def test_synth_utterance_is_looked_up_over_every_speaker(pair_root, tmp_path, utterance,
                                                          speaker, other):
    # synth --utterance spk00_003 used to exit 1 at spk01, leaving an empty
    # trajectories/spk01/; spk01_003 failed at spk00 before writing anything.
    assert cli.main(["synth", "--config", str(pair_config(pair_root, tmp_path)),
                     "--utterance", utterance]) == 0
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
], ids=["est-truncated", "est-ascii", "csv-non-numeric", "csv-ragged", "textgrid-bad-time"])
def test_malformed_input_file_is_a_validation_error(tmp_path, capsys, corrupt, message):
    # Each of these used to end in a plain ValueError: exit 2, "runtime failure".
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
