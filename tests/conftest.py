from pathlib import Path

import numpy as np

from phonotraj.alignment import FeaturalSegmentation
from phonotraj.cli import ExperimentConfig
from phonotraj.ema import CHANNELS, EmaRecord
from phonotraj.forward import InterpMethod, evaluate
from phonotraj.optimize import OptimConfig, gradients, objective


def featural(utt: str, X, Y, t, time_offset: float = 0.0) -> FeaturalSegmentation:
    """A segmentation whose ``X`` reads back as the explicit targets ``X``:
    its inner rows are the segmentation's own targets, one per phone, and its
    boundary rows must be zero."""
    X = np.asarray(X, dtype=float)
    assert np.all(X[[0, -1]] == 0.0), "boundary target rows must be zero"
    return FeaturalSegmentation(utt, X[1:-1], np.arange(len(X) - 2), Y, t, time_offset)


def random_fseg(
    rng: np.random.Generator,
    k: int | None = None,
    d: int | None = None,
    unknown_prob: float = 0.25,
    dur_range: tuple[float, float] = (0.03, 0.3),
    value_scale: float = 1.0,
    utt: str = "u",
) -> FeaturalSegmentation:
    """A structurally valid featural segmentation with a random unknown mask."""
    k = int(rng.integers(1, 9)) if k is None else k
    d = int(rng.integers(1, 7)) if d is None else d
    durs = rng.uniform(*dur_range, size=k)
    bounds = np.concatenate([[0.0], np.cumsum(durs)])
    Y = np.zeros((k + 2, 2))
    Y[1:-1, 0] = bounds[:-1]
    Y[1:-1, 1] = bounds[1:]
    Y[-1] = bounds[-1]
    t = Y.mean(axis=1)
    X = rng.normal(size=(k + 2, d)) * value_scale
    if unknown_prob > 0:
        X[rng.random((k + 2, d)) < unknown_prob] = np.nan
    X[0] = 0.0
    X[-1] = 0.0
    return featural(utt, X, Y, t)


def dimension_nodes(t: np.ndarray, X: np.ndarray):
    """Each dimension's nodes as ``forward.evaluate`` reads them: both
    boundary rows, valued 0, and the rows where ``X`` is specified.  Yields
    ``(j, rows, times, values)``."""
    mask = ~np.isnan(X)
    mask[[0, -1]] = True
    for j in range(X.shape[1]):
        rows = np.flatnonzero(mask[:, j])
        values = X[rows, j].copy()
        values[[0, -1]] = 0.0
        yield j, rows, t[rows], values


def column(t: np.ndarray, X: np.ndarray, j: int, method: InterpMethod, derivative: int = 0):
    """Dimension j's interpolant, or its second derivative, as a scalar
    function; ``evaluate`` reads column j of ``X`` alone."""
    Xj = X[:, [j]]
    return lambda x: float(evaluate(t, Xj, method, np.array([x], dtype=float), derivative)[0, 0])


def one_sided_derivative(f, x: float, h: float, side: int, order: int = 1) -> float:
    """Second-order one-sided finite difference that never crosses ``x``.

    ``side`` is +1 (use points at x, x+h, ...) or -1.  Needed at spline knots,
    where stencils straddling the knot pick up truncation error from the
    one-sided higher derivatives.
    """
    s = float(side)
    if order == 1:
        f0, f1, f2 = f(x), f(x + s * h), f(x + 2 * s * h)
        return s * (-3 * f0 + 4 * f1 - f2) / (2 * h)
    if order == 2:
        f0, f1, f2, f3 = f(x), f(x + s * h), f(x + 2 * s * h), f(x + 3 * s * h)
        return (2 * f0 - 5 * f1 + 4 * f2 - f3) / (h * h)
    raise ValueError(order)


def free_coordinates(fseg: FeaturalSegmentation) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of the free position entries and free timing rows."""
    mask = fseg.specified.copy()
    mask[0, :] = False
    mask[-1, :] = False
    pos = np.argwhere(mask)
    tim = np.arange(1, fseg.t.size - 1)
    return pos, tim


def gradient_check(
    fseg: FeaturalSegmentation,
    method: InterpMethod,
    cfg: OptimConfig,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error of analytic vs central-finite-difference gradients.

    Every free coordinate of (X', t') is perturbed; the error is relative to
    the larger gradient magnitude, floored at 1 so near-zero gradients are
    compared absolutely.
    """
    mask = fseg.specified
    X0 = fseg.X
    X = X0.copy()
    t = fseg.t.copy()
    gX, gt = gradients(t, X, mask, X0, cfg.lam, method)
    pos, tim = free_coordinates(fseg)

    def f(tv, xv):
        return objective(tv, xv, mask, X0, cfg.lam, method)

    worst = 0.0
    for k, j in pos:
        xp, xm = X.copy(), X.copy()
        xp[k, j] += epsilon
        xm[k, j] -= epsilon
        fd = (f(t, xp) - f(t, xm)) / (2 * epsilon)
        a = gX[k, j]
        worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    for k in tim:
        tp, tm = t.copy(), t.copy()
        tp[k] += epsilon
        tm[k] -= epsilon
        fd = (f(tp, X) - f(tm, X)) / (2 * epsilon)
        a = gt[k]
        worst = max(worst, abs(a - fd) / max(1.0, abs(a), abs(fd)))
    return worst


def synthetic_config(root, *, utterances: int = 56, speakers: int = 2,
                     seed: int = 0, method: str = "linear",
                     out_dir: str | None = None) -> ExperimentConfig:
    """Config matching generate_synthetic's layout: 40/8/8 splits per 56 utts."""
    n_test = max(utterances // 7, 1)
    n_dev = max(utterances // 7, 1)
    n_train = utterances - n_dev - n_test
    return ExperimentConfig(
        dataset_root=str(root),
        speakers=tuple(f"spk{s:02d}" for s in range(speakers)),
        feature_set="custom",
        feature_table_path="features.tsv",
        method=method,
        split_sizes=(n_train, n_dev, n_test),
        seed=seed,
        out_dir=out_dir or str(Path(root) / "out"),
    )


def dataset_loss(weight: np.ndarray, bias: np.ndarray, pairs) -> float:
    """Oracle of the probe's loss: the mean over utterances of the
    frame-mean squared reconstruction error, each pair truncated to its
    common length."""
    losses = []
    for traj, series in pairs:
        n = min(traj.frames.shape[0], series.Z.shape[0])
        err = traj.frames[:n] @ weight.T + bias - series.Z[:n]
        losses.append(np.mean(np.sum(err * err, axis=1)))
    return float(np.mean(losses))


def write_csv(path, rec: EmaRecord) -> None:
    """Write ``rec`` in the CSV layout ``ema.load_csv`` reads: a time column
    in seconds, then the channels."""
    n = rec.channels.shape[0]
    with open(path, "w", encoding="utf-8") as f:
        f.write("time," + ",".join(CHANNELS) + "\n")
        for i in range(n):
            f.write(f"{i / rec.sample_rate:.9g},"
                    + ",".join(f"{v:.9g}" for v in rec.channels[i]) + "\n")
