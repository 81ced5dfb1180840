"""Correctness checks on the program's outputs.

Every check compares against a computation made apart from the program
(numpy and scipy references written here) or against a property the method
must have.  None compares against a stored copy of an earlier output.  Each
raises ``CheckError`` with a message on failure.
"""
from __future__ import annotations

import json
import math

import numpy as np

FORWARD_TOL = 1e-9  # trajectory values against the references
PEARSON_TOL = 1e-9  # recomputed correlations against the in-memory report
LOSS_RTOL = 1e-9  # recomputed probe loss against the reported one, relative
CSV_HALF_ULP = 5e-7  # report.csv prints 6 decimals
EMA_MIN_R2 = 0.999  # projected parameters against the generator's ground truth
LINEAR_FLOOR = 0.98  # mocha-linear grand score
FLOOR_EPS = 1e-9  # as in the program's frame count: n = floor(duration * rate)


class CheckError(AssertionError):
    """A program output failed a check."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def reference_frames(t: np.ndarray, X: np.ndarray, method: str, frame_rate: float) -> np.ndarray:
    """Per-dimension interpolant through the boundary and specified nodes,
    sampled at frame k = (k + 1) / frame_rate, k < floor(duration * frame_rate)."""
    from scipy.interpolate import CubicHermiteSpline, CubicSpline

    duration = float(t[-1])
    n = int(math.floor(duration * frame_rate + FLOOR_EPS))
    taus = np.minimum((np.arange(n) + 1) / frame_rate, duration)
    out = np.empty((n, X.shape[1]))
    for j in range(X.shape[1]):
        rows = np.flatnonzero(~np.isnan(X[:, j]))
        rows = np.union1d(rows, [0, X.shape[0] - 1])
        times, vals = t[rows], X[rows, j]
        if method == "linear":
            out[:, j] = np.interp(taus, times, vals)
        elif method == "natural_cubic":
            out[:, j] = CubicSpline(times, vals, bc_type="natural")(taus)
        elif method == "cubic_hermite":
            out[:, j] = CubicHermiteSpline(times, vals, np.zeros_like(vals))(taus)
        else:
            raise ValueError(f"no reference for method {method!r}")
    return out


def check_forward(frames: np.ndarray, t: np.ndarray, X: np.ndarray, method: str,
                  frame_rate: float, what: str = "") -> None:
    ref = reference_frames(t, X, method, frame_rate)
    if frames.shape != ref.shape:
        _fail(f"forward {what}: {frames.shape} frames, reference has {ref.shape}")
    err = float(np.max(np.abs(frames - ref))) if ref.size else 0.0
    if not err <= FORWARD_TOL:
        _fail(f"forward {what}: max deviation {err:.3g} from the {method} reference")


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------


def affine_r2(Z: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column R^2 of the least-squares affine fit of ``Z`` from ``truth``."""
    design = np.column_stack([truth, np.ones(truth.shape[0])])
    coef, *_ = np.linalg.lstsq(design, Z, rcond=None)
    res = Z - design @ coef
    tot = Z - Z.mean(axis=0)
    return 1.0 - np.sum(res * res, axis=0) / np.sum(tot * tot, axis=0)


def check_ema_affine(Z: np.ndarray, truth: np.ndarray, what: str = "") -> float:
    """Projected parameters are an affine image of the ground truth."""
    n = min(Z.shape[0], truth.shape[0])
    if abs(Z.shape[0] - truth.shape[0]) > 1:
        _fail(f"ema {what}: {Z.shape[0]} projected frames against {truth.shape[0]} true")
    r2 = affine_r2(Z[:n], truth[:n])
    if not np.all(r2 >= EMA_MIN_R2):
        _fail(f"ema {what}: affine R^2 {np.round(r2, 6).tolist()} below {EMA_MIN_R2}")
    return float(np.min(r2))


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def _pair_arrays(pairs):
    """(frames, parameters) per pair, truncated to the common length."""
    out = []
    for traj, z in pairs:
        n = min(traj.frames.shape[0], z.Z.shape[0])
        out.append((traj.frames[:n], z.Z[:n]))
    return out


def dataset_loss(weight: np.ndarray, bias: np.ndarray, pairs) -> float:
    """Mean over utterances of the frame-mean squared reconstruction error."""
    losses = []
    for F, Z in _pair_arrays(pairs):
        err = F @ weight.T + bias - Z
        losses.append(np.mean(np.sum(err * err, axis=1)))
    return float(np.mean(losses))


def least_squares_loss(pairs) -> float:
    """The minimum of ``dataset_loss`` over all affine maps: weighted least
    squares with weight 1 / (frames of the utterance) on every frame."""
    blocks = _pair_arrays(pairs)
    w = np.concatenate([np.full(F.shape[0], 1.0 / np.sqrt(F.shape[0])) for F, _ in blocks])
    design = np.concatenate([np.column_stack([F, np.ones(F.shape[0])]) for F, _ in blocks])
    target = np.concatenate([Z for _, Z in blocks])
    coef, *_ = np.linalg.lstsq(design * w[:, None], target * w[:, None], rcond=None)
    res = (design @ coef - target) * w[:, None]
    return float(np.sum(res * res) / len(blocks))


def check_probe(weight: np.ndarray, bias: np.ndarray, best_dev_loss: float, train, dev,
                what: str = "") -> float:
    """The development loss the program reports for its returned probe is not
    below the least-squares optimum on the dev pairs, and equals the probe's
    dev loss recomputed from its weights.  Returns the probe's training loss
    over the least-squares optimum on the training pairs (``probe.ls_gap``)."""
    ls_dev = least_squares_loss(dev)
    if not best_dev_loss >= ls_dev * (1.0 - LOSS_RTOL) - 1e-15:
        _fail(f"probe {what}: reported dev loss {best_dev_loss:.9g} below the "
              f"least-squares optimum {ls_dev:.9g}")
    dev_loss = dataset_loss(weight, bias, dev)
    if not abs(best_dev_loss - dev_loss) <= LOSS_RTOL * dev_loss:
        _fail(f"probe {what}: reported dev loss {best_dev_loss:.12g} != {dev_loss:.12g} "
              "recomputed from the probe's weights")
    ls_train = least_squares_loss(train)
    return dataset_loss(weight, bias, train) / ls_train if ls_train > 0 else float("inf")


def pearson_rows(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-column Pearson correlation, NaN for a zero-variance column."""
    pc = pred - pred.mean(axis=0)
    tc = truth - truth.mean(axis=0)
    den = np.sqrt(np.sum(pc * pc, axis=0) * np.sum(tc * tc, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.sum(pc * tc, axis=0) / den
    return np.where(den > 0, np.clip(r, -1.0, 1.0), np.nan)


def probe_predictions(weight: np.ndarray, bias: np.ndarray, pairs):
    """Concatenated affine predictions and true parameters over ``pairs``."""
    blocks = _pair_arrays(pairs)
    pred = np.concatenate([F @ weight.T + bias for F, _ in blocks])
    truth = np.concatenate([Z for _, Z in blocks])
    return pred, truth


def check_pearson(pred: np.ndarray, truth: np.ndarray, reported: np.ndarray,
                  what: str = "") -> np.ndarray:
    """Correlations recomputed from predictions match the reported ones."""
    r = pearson_rows(pred, truth)
    same_nan = np.array_equal(np.isnan(r), np.isnan(reported))
    if not same_nan or not np.all(np.abs(np.nan_to_num(r - reported)) <= PEARSON_TOL):
        _fail(f"probe {what}: recomputed Pearson {np.round(r, 9).tolist()} "
              f"!= reported {np.round(reported, 9).tolist()}")
    return r


# ---------------------------------------------------------------------------
# report.csv
# ---------------------------------------------------------------------------


def parse_report_csv(text: str):
    """(speakers, matrix, row averages, column averages, grand) from report.csv."""
    rows = [ln.split(",") for ln in text.strip().splitlines()]
    head, body = rows[0], rows[1:]
    if head[0] != "speaker" or head[-1] != "average" or body[-1][0] != "stderr":
        _fail("report.csv: unexpected layout")
    val = lambda c: float("nan") if c == "NA" else float(c)  # noqa: E731
    spk_rows = [r for r in body if r[0] not in ("average", "stderr")]
    avg = next(r for r in body if r[0] == "average")
    matrix = np.array([[val(c) for c in r[1:-1]] for r in spk_rows])
    row_avg = np.array([val(r[-1]) for r in spk_rows])
    col_avg = np.array([val(c) for c in avg[1:-1]])
    return [r[0] for r in spk_rows], matrix, row_avg, col_avg, val(avg[-1])


def check_report_csv(text: str, matrix: np.ndarray) -> float:
    """Cells match the in-memory score matrix, and every average is the mean
    of its row or column.  Cells are printed rounded to 6 decimals, so a
    mean of printed cells may differ from the printed mean by 1e-6."""
    _, cells, row_avg, col_avg, grand = parse_report_csv(text)
    if cells.shape != matrix.shape or not np.all(
            np.abs(np.nan_to_num(cells - matrix)) <= CSV_HALF_ULP + PEARSON_TOL):
        _fail("report.csv: cells differ from the score matrix")
    tol = 2 * CSV_HALF_ULP + 1e-12
    checks = (("row", row_avg, np.nanmean(cells, axis=1)),
              ("column", col_avg, np.nanmean(cells, axis=0)),
              ("grand", np.array([grand]), np.array([np.mean(row_avg)])))
    for kind, printed, mean in checks:
        if not np.all(np.abs(printed - mean) <= tol):
            _fail(f"report.csv: {kind} averages {printed.tolist()} != means {mean.tolist()}")
    return grand


def check_floor(grand: float) -> None:
    if not grand >= LINEAR_FLOOR:
        _fail(f"grand score {grand:.6f} below {LINEAR_FLOOR}")


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def check_rerun(cold_csv: bytes, warm_csv: bytes, manifest: dict, speakers) -> None:
    """The warm rerun reports the same bytes and serves every stage from cache."""
    if cold_csv != warm_csv:
        _fail("warm rerun report.csv differs from the cold run's")
    stages = {s["stage"]: s["cached"] for s in manifest["stages"]
              if s["stage"].split("/")[0] in ("prepare", "score")}
    want = {f"{k}/{spk}" for k in ("prepare", "score") for spk in speakers}
    if set(stages) != want or not all(stages.values()):
        _fail(f"warm rerun stages not all cached: {stages}")


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def curvature_energy(times: np.ndarray, vals: np.ndarray, method: str) -> float:
    """Integral of the squared second derivative of one dimension's spline,
    from the spline's own piecewise-polynomial coefficients."""
    from scipy.interpolate import CubicHermiteSpline, CubicSpline

    if method == "cubic_hermite":
        spl = CubicHermiteSpline(times, vals, np.zeros_like(vals))
    elif method == "natural_cubic":
        spl = CubicSpline(times, vals, bc_type="natural")
    else:
        raise ValueError(f"no curvature energy for method {method!r}")
    c3, c2 = spl.c[0], spl.c[1]  # g''(x) = 6 c3 x + 2 c2 on [0, h]
    h = np.diff(times)
    # integral over [0, h] of (6 c3 x + 2 c2)^2
    return float(np.sum(12.0 * c3 * c3 * h**3 + 12.0 * c3 * c2 * h**2 + 4.0 * c2 * c2 * h))


def reference_objective(t: np.ndarray, X: np.ndarray, X_orig: np.ndarray, lam: float,
                        method: str) -> float:
    """Curvature energy over all dimensions plus lambda times the squared
    offset of the specified inner targets from the original targets."""
    energy = 0.0
    for j in range(X.shape[1]):
        rows = np.union1d(np.flatnonzero(~np.isnan(X[:, j])), [0, X.shape[0] - 1])
        energy += curvature_energy(t[rows], X[rows, j], method)
    inner = ~np.isnan(X_orig[1:-1])
    offset = np.where(inner, X[1:-1] - X_orig[1:-1], 0.0)
    return energy + lam * float(np.sum(offset * offset))


def check_optimized(t0: np.ndarray, X0: np.ndarray, t: np.ndarray, X: np.ndarray,
                    lam: float, min_gap: float, method: str, what: str = "") -> bool:
    """Returned targets keep the frozen coordinates and do not raise the
    objective.  Returns whether they lower it."""
    if t.shape != t0.shape or X.shape != X0.shape:
        _fail(f"optimize {what}: shape changed")
    if not (np.array_equal(X[[0, -1]], X0[[0, -1]]) and t[0] == t0[0] and t[-1] == t0[-1]):
        _fail(f"optimize {what}: boundary rows or timings moved")
    if not np.array_equal(np.isnan(X), np.isnan(X0)):
        _fail(f"optimize {what}: unknown entries changed")
    if not np.all(np.diff(t) >= min_gap * (1 - 1e-9)):
        _fail(f"optimize {what}: timing gap {np.min(np.diff(t)):.3g} below min_gap {min_gap}")
    before = reference_objective(t0, X0, X0, lam, method)
    after = reference_objective(t, X, X0, lam, method)
    if not after <= before * (1 + 1e-9):
        _fail(f"optimize {what}: objective rose from {before:.9g} to {after:.9g}")
    return after < before * (1 - 1e-9)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def check_grid(grid: dict, dev_scores=None) -> None:
    """``best`` is the first point with the highest dev score; with
    ``dev_scores`` given, each point's dev score matches its recomputation."""
    points = grid["points"]
    scores = [p["dev_score"] for p in points]
    top = points[int(np.argmax(scores))]
    best = grid["best"]
    key = (best["timing_lr"], best["position_lr"], best["lam"])
    if key != (top["timing_lr"], top["position_lr"], top["lambda"]):
        _fail(f"grid.json best {key} is not the argmax of the dev scores {scores}")
    if dev_scores is not None:
        if len(dev_scores) != len(scores) or not np.allclose(dev_scores, scores, rtol=0,
                                                             atol=PEARSON_TOL):
            _fail(f"grid.json dev scores {scores} != recomputed {list(dev_scores)}")


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
