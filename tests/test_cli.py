import hashlib
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import phonotraj.cli as cli
from phonotraj.cli import (ConfigError, ExperimentConfig, generate_synthetic,
                           grid_search, make_splits, prepare_speaker,
                           resolve_table, run_experiment, synthetic_config)
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
    path.write_text(json.dumps({"dataset_root": "/d", "speakers": ["a"],
                                "split_sizes": [5, 1, 1], "typo_field": 1}),
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="typo_field"):
        ExperimentConfig.from_file(path)


def test_config_validates_method_and_splits():
    with pytest.raises(Exception):
        ExperimentConfig(dataset_root="/d", speakers=("a",), method="quintic")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_root="/d", speakers=("a",), split_sizes=(5, 0, 1))


def test_config_rejects_frame_rate_other_than_100(tmp_path):
    with pytest.raises(ConfigError, match="frame_rate"):
        ExperimentConfig(dataset_root="/d", speakers=("a",), frame_rate=200.0)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["a"],
                                "frame_rate": 200.0}), encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1


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
                   grid=grid or None, max_steps=1, probe_epochs=2)


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    generate_synthetic(root, speakers=1, utterances=14, dim=4, seed=2)
    return root


def test_grid_single_point_selected(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path,
                         timing_lrs=[1e-5], position_lrs=[1e-2], lambdas=[1e3])
    best, rows = grid_search(cfg)
    assert len(rows) == 1
    assert best.lam == 1e3 and best.timing_lr == 1e-5 and best.position_lr == 1e-2


def test_grid_tie_breaks_to_smaller_lambda(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path,
                         timing_lrs=[1e-6], position_lrs=[1e-3],
                         lambdas=[0.0, 1e3])
    cfg = replace(cfg, max_steps=0)  # no-op optimization: scores tie exactly
    best, rows = grid_search(cfg)
    assert rows[0]["dev_score"] == rows[1]["dev_score"]
    assert best.lam == 0.0


def test_full_replication_grid_logs_90_evaluations(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path)  # default axes: 5 x 3 x 6
    cfg = replace(cfg, probe_epochs=1)
    manifest = cli.RunManifest(config={})
    best, rows = grid_search(cfg, manifest=manifest)
    assert len(rows) == 90
    assert sum(1 for s in manifest.stages if s["stage"] == "grid-eval") == 90


def test_grid_eval_records_each_points_own_time(tiny_root, tmp_path, monkeypatch):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5], position_lrs=[1e-2],
                         lambdas=[0.0, 1e3, 1e4])
    speaker_score = cli._speaker_score

    def slow_at_1e4(data, point_cfg, optim, part):
        if optim.lam == 1e4:
            time.sleep(0.5)
        return speaker_score(data, point_cfg, optim, part)

    monkeypatch.setattr(cli, "_speaker_score", slow_at_1e4)
    manifest = cli.RunManifest(config={})
    t0 = time.perf_counter()
    grid_search(cfg, manifest=manifest)
    wall = time.perf_counter() - t0
    seconds = {s["lam"]: s["seconds"] for s in manifest.stages if s["stage"] == "grid-eval"}
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


def test_grid_fails_when_every_point_diverges(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path, timing_lrs=[1e-5],
                         position_lrs=[1e150], lambdas=[0.0])
    with pytest.raises(ConfigError, match="every grid point failed"):
        grid_search(cfg)


def test_grid_requires_optimization(tiny_root, tmp_path):
    cfg = synthetic_config(tiny_root, utterances=14, speakers=1,
                           out_dir=str(tmp_path / "g"))
    with pytest.raises(ConfigError):
        grid_search(cfg)


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


def test_optimize_command_writes_target_csvs(tiny_root, tmp_path):
    cfg = small_grid_cfg(tiny_root, tmp_path)
    cfg_path = tmp_path / "opt.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    assert cli.main(["optimize", "--config", str(cfg_path),
                     "--timing-lr", "1e-5", "--position-lr", "1e-2",
                     "--lam", "1000"]) == 0
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
    assert cli.main(["probe", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "probes" / "spk00.npz").exists()


def test_cli_validation_error_exit_code(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"dataset_root": str(tmp_path / "nope"),
                                    "speakers": ["spk00"],
                                    "split_sizes": [5, 1, 1]}), encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 1


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
