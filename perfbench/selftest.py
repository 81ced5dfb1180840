"""Tests of the benchmark itself: every check rejects a deliberately wrong
output, and the smoke mode runs all three workloads with every check.

  PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they are run by naming the file.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from phonotraj import (InterpMethod, Phone, PhoneSegmentation, build_featural,  # noqa: E402
                       get_table, synthesize)
from phonotraj.optimize import OptimConfig, optimize_targets  # noqa: E402

METHODS = ("linear", "natural_cubic", "cubic_hermite")


@pytest.fixture(scope="module")
def fseg():
    table = get_table("gp_unknown_phoneme")
    labels = ["p", "aa", "t", "iy", "s", "ng", "oy", "l", "ax", "zh"]
    edges = np.cumsum([0, 7, 12, 4, 9, 6, 3, 13, 5, 8, 10]) / 100
    seg = PhoneSegmentation("u", tuple(Phone(p, edges[i], edges[i + 1])
                                       for i, p in enumerate(labels)), offset=0.3)
    return build_featural(seg, table)


@pytest.mark.parametrize("method", METHODS)
def test_forward_check_rejects_a_perturbed_frame(fseg, method):
    frames = synthesize(fseg, InterpMethod.from_id(method), 100.0).frames
    checks.check_forward(frames, fseg.t, fseg.X, method, 100.0)
    bad = frames.copy()
    bad[len(bad) // 2, 3] += 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_forward(bad, fseg.t, fseg.X, method, 100.0)
    with pytest.raises(checks.CheckError):
        checks.check_forward(frames[:-1], fseg.t, fseg.X, method, 100.0)


def _pred_truth(seed=0, n=400):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(n, 6))
    pred = truth @ rng.normal(size=(6, 6)) * 0.3 + truth + rng.normal(scale=0.2, size=(n, 6))
    return pred, truth


def test_pearson_check_rejects_shuffled_predictions():
    pred, truth = _pred_truth()
    reported = checks.pearson_rows(pred, truth)
    checks.check_pearson(pred, truth, reported)
    shuffled = pred[np.random.default_rng(1).permutation(len(pred))]
    with pytest.raises(checks.CheckError):
        checks.check_pearson(shuffled, truth, reported)


def test_pearson_rows_matches_numpy():
    pred, truth = _pred_truth(2)
    want = [np.corrcoef(pred[:, j], truth[:, j])[0, 1] for j in range(6)]
    assert np.allclose(checks.pearson_rows(pred, truth), want, atol=1e-12)


def _grid():
    pts = [{"timing_lr": 1e-5, "position_lr": 1e-2, "lambda": lam, "dev_score": s}
           for lam, s in ((0.0, 0.5), (1e4, 0.7), (1e5, 0.7))]
    return {"best": {"timing_lr": 1e-5, "position_lr": 1e-2, "lam": 1e4}, "points": pts}


def test_grid_check_rejects_a_best_that_is_not_the_argmax():
    grid = _grid()
    checks.check_grid(grid, [0.5, 0.7, 0.7])
    for lam in (0.0, 1e5):  # a lower score, and a tie that is not the first
        bad = json.loads(json.dumps(grid))
        bad["best"]["lam"] = lam
        with pytest.raises(checks.CheckError):
            checks.check_grid(bad)
    with pytest.raises(checks.CheckError):
        checks.check_grid(grid, [0.5, 0.7, 0.7 + 1e-6])


def test_ema_check_rejects_a_non_affine_image():
    rng = np.random.default_rng(3)
    truth = np.cumsum(rng.normal(size=(500, 6)), axis=0)
    Z = truth @ rng.normal(size=(6, 6)) + 2.0
    assert checks.check_ema_affine(Z, truth) > 1 - 1e-12
    bent = Z.copy()
    bent[:, 2] += 0.05 * truth[:, 1] ** 2
    with pytest.raises(checks.CheckError):
        checks.check_ema_affine(bent, truth)


class _Traj:
    def __init__(self, frames):
        self.frames = frames


class _Series:
    def __init__(self, Z):
        self.Z = Z


def _pairs(rng, W, b, sizes):
    pairs = []
    for n in sizes:
        F = rng.normal(size=(n, W.shape[1]))
        pairs.append((_Traj(F), _Series(F @ W.T + b + rng.normal(scale=0.1, size=(n, 6)))))
    return pairs


def test_probe_check():
    rng = np.random.default_rng(4)
    W, b = rng.normal(size=(6, 5)), rng.normal(size=6)
    train, dev = _pairs(rng, W, b, (40, 70, 55)), _pairs(rng, W, b, (30, 45))
    # the weighted least-squares fit attains the optimum; any other map is above it
    sw = [np.full(len(t.frames), 1 / np.sqrt(len(t.frames))) for t, _ in train]
    design = np.vstack([np.column_stack([t.frames, np.ones(len(t.frames))]) * w[:, None]
                        for (t, _), w in zip(train, sw)])
    target = np.vstack([z.Z * w[:, None] for (_, z), w in zip(train, sw)])
    fit = np.linalg.lstsq(design, target, rcond=None)[0]
    Wf, bf = fit[:-1].T, fit[-1]
    dev_loss = checks.dataset_loss(Wf, bf, dev)
    assert checks.check_probe(Wf, bf, dev_loss, train, dev) == pytest.approx(1.0, abs=1e-9)
    assert checks.check_probe(W, b, checks.dataset_loss(W, b, dev), train, dev) > 1.0
    # a reported dev loss that is not the returned probe's is rejected
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_probe(Wf, bf, dev_loss * (1 + 1e-6), train, dev)
    with pytest.raises(checks.CheckError, match="below the least-squares optimum"):
        checks.check_probe(Wf, bf, 0.9 * checks.least_squares_loss(dev), train, dev)


def test_report_check_rejects_a_wrong_average():
    matrix = np.array([[0.9, 0.8, np.nan], [0.7, 0.75, 0.65]])
    rows = np.nanmean(matrix, axis=1)
    csv = ("speaker,a,b,c,average\n"
           + "".join(f"s{i}," + ",".join("NA" if np.isnan(v) else f"{v:.6f}" for v in r)
                     + f",{rows[i]:.6f}\n" for i, r in enumerate(matrix))
           + "average," + ",".join(f"{v:.6f}" for v in np.nanmean(matrix, axis=0))
           + f",{rows.mean():.6f}\nstderr,0.01\n")
    assert abs(checks.check_report_csv(csv, matrix) - rows.mean()) < 1e-6
    with pytest.raises(checks.CheckError):
        checks.check_report_csv(csv.replace(f"{rows[0]:.6f}", f"{rows[0] + 1e-4:.6f}", 1), matrix)
    with pytest.raises(checks.CheckError):
        checks.check_report_csv(csv, matrix + 1e-5)
    with pytest.raises(checks.CheckError):
        checks.check_floor(0.97)


def test_rerun_check_rejects_changed_bytes_and_uncached_stages():
    stages = [{"stage": f"{k}/s{i}", "cached": True} for k in ("prepare", "score") for i in (0, 1)]
    checks.check_rerun(b"x", b"x", {"stages": stages}, ("s0", "s1"))
    with pytest.raises(checks.CheckError):
        checks.check_rerun(b"x", b"y", {"stages": stages}, ("s0", "s1"))
    stages[3]["cached"] = False
    with pytest.raises(checks.CheckError):
        checks.check_rerun(b"x", b"x", {"stages": stages}, ("s0", "s1"))


@pytest.mark.parametrize("method", ("cubic_hermite", "natural_cubic"))
def test_optimize_check(fseg, method):
    oc = OptimConfig(timing_lr=1e-9, position_lr=1e-6, lam=10.0, max_steps=5,
                     optimize_timing=True, optimize_position=True)
    res = optimize_targets(fseg, InterpMethod.from_id(method), oc)
    checks.check_optimized(fseg.t, fseg.X, res.t, res.X, oc.lam, oc.min_gap, method)
    # the reference objective agrees with the program's at the input targets
    from phonotraj.optimize import objective
    want = objective(fseg.t, fseg.X, fseg.specified, fseg.X, oc.lam, InterpMethod.from_id(method))
    got = checks.reference_objective(fseg.t, fseg.X, fseg.X, oc.lam, method)
    assert got == pytest.approx(want, rel=1e-9)
    X = fseg.X.copy()
    X[0, 0] = 0.1  # a boundary row moved
    with pytest.raises(checks.CheckError):
        checks.check_optimized(fseg.t, fseg.X, fseg.t, X, 0.0, oc.min_gap, method)
    X = fseg.X.copy()
    X[1:-1] *= 3.0  # an objective raised: the curvature energy grows ninefold
    with pytest.raises(checks.CheckError):
        checks.check_optimized(fseg.t, fseg.X, fseg.t, X, 0.0, oc.min_gap, method)
    t = fseg.t.copy()
    t[2] = t[1] + 1e-4  # a gap below min_gap
    with pytest.raises(checks.CheckError):
        checks.check_optimized(fseg.t, fseg.X, t, fseg.X, 0.0, oc.min_gap, method)


def _bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("name,trace", [("mocha-linear", 0), ("mocha-natural", 0),
                                        ("grid-hermite", 0), ("mocha-linear", 1)])
def test_smoke(name, trace):
    rc, out = _run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                   "--smoke")
    assert rc == 0
    res = json.loads(out.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 10
    spec = _bench_spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in res["metrics"].items()}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mocha-linear",
                           "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
