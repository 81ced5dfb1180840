"""Linear probing of synthesized trajectories against articulatory data.

A per-speaker affine map from trajectory space to the 6 articulatory
parameters is fitted by minimizing the frame-mean squared reconstruction
loss averaged over training utterances.  Evaluation concatenates test
predictions per speaker and reports one Pearson correlation per parameter;
the articulatory score is the grand average over parameters and speakers.

The loss is quadratic in the probe's parameters, so the fit is closed form:
with ``A = [F 1]`` and the parameters fused into ``theta = [W b]``, each
utterance reduces to ``G = AᵀA / n`` and ``C = ZᵀA / n``, and the loss is
minimized by ``theta = (Σ C)(Σ G)⁺``.  The pseudo-inverse gives the
minimum-norm minimizer: a feature that is zero on every training frame (a
phone that never occurs in training) makes ``Σ G`` singular and gets weight
0.  As the fit needs only these sums, the fit and the score each read their
pairs once, in order, and keep only sums or 6-column predictions: given a
split whose pairs are made when read, one train trajectory is held at a
time.  ``AdamState`` and ``adam_step`` are kept as the reference optimizer
the tests check the closed form against.
"""
from __future__ import annotations

import logging
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .ema import PARAMETERS, ArticulatorySeries
from .forward import Trajectory

log = logging.getLogger(__name__)

ADAM_LR = 1e-3
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class ProbeError(ValueError):
    """Invalid probing request."""


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter array."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = ADAM_LR
    betas: tuple[float, float] = ADAM_BETAS
    eps: float = ADAM_EPS

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = ADAM_LR) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(
    state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]
) -> list[np.ndarray]:
    """One bias-corrected Adam update; mutates ``state``, returns new params."""
    if len(params) != len(grads) or any(p.shape != g.shape for p, g in zip(params, grads)):
        raise ProbeError("parameter/gradient shape mismatch")
    if not all(np.isfinite(g).all() for g in grads):
        raise ProbeError("non-finite gradient")
    b1, b2 = state.betas
    state.step += 1
    c1, c2 = 1 - b1**state.step, 1 - b2**state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        m = state.m[i] = b1 * state.m[i] + (1 - b1) * g
        v = state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        out.append(p - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps))
    return out


@dataclass(frozen=True)
class ProbeModel:
    """Affine map: parameters = frames @ weight.T + bias."""

    weight: np.ndarray  # (6, d)
    bias: np.ndarray  # (6,)
    epochs_run: int = 0  # always 0 for the closed-form fit; the benchmark's trace sums it
    best_dev_loss: float = float("nan")

    def predict(self, frames: np.ndarray) -> np.ndarray:
        return frames @ self.weight.T + self.bias


Pair = tuple[Trajectory, ArticulatorySeries]


def _aligned(pair: Pair) -> tuple[np.ndarray, np.ndarray]:
    """Frame matrices of a pair, truncated to the common length (off by <= 1)."""
    traj, z = pair
    n_f, n_z = traj.frames.shape[0], z.Z.shape[0]
    if abs(n_f - n_z) > 1:
        raise ProbeError(
            f"{traj.utterance_id}: trajectory has {n_f} frames but articulatory "
            f"series has {n_z}"
        )
    n = min(n_f, n_z)
    if n == 0:
        raise ProbeError(f"{traj.utterance_id}: empty pair")
    return traj.frames[:n], z.Z[:n]


def _utterance_loss(weight, bias, F, Z) -> float:
    err = F @ weight.T + bias - Z
    return float(np.mean(np.sum(err * err, axis=1)))


def _statistics(F: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``G = AᵀA / n`` and ``C = ZᵀA / n`` with ``A = [F 1]``: the gradient of
    one utterance's loss at ``theta = [W b]`` is ``2 (theta G - C)``, so the
    summed loss is minimal where ``theta (Σ G) = Σ C``."""
    A = np.column_stack([F, np.ones(F.shape[0])])
    return A.T @ A / F.shape[0], Z.T @ A / F.shape[0]


def _widths(F: np.ndarray, Z: np.ndarray, G: np.ndarray, C: np.ndarray) -> None:
    if F.shape[1] + 1 != G.shape[0] or Z.shape[1] != C.shape[0]:
        raise ProbeError("inconsistent feature or parameter dimensions")


def train_probe(train: Iterable[Pair], dev: Iterable[Pair]) -> ProbeModel:
    """Fit the affine probe in closed form, reading each pair once.

    Each training utterance is reduced to its statistics ``G = AᵀA / n`` and
    ``C = ZᵀA / n`` with ``A = [F 1]``, summed in utterance order, and then
    dropped, so a lazy ``train`` holds one trajectory at a time; the
    parameters ``theta = [W b]`` are the minimum-norm solution of
    ``theta (Σ G) = Σ C``, one least-squares solve (``G`` is symmetric).
    The dev pairs do not enter the fit: they are read after it, for their
    loss under the fitted probe, returned as ``best_dev_loss``; the grid
    search scores its points on them.  Either set may be any iterable, and
    an empty one raises ProbeError.
    """
    G = C = lowest = highest = None
    for F, Z in map(_aligned, train):
        if G is None:
            G = np.zeros((F.shape[1] + 1, F.shape[1] + 1))
            C = np.zeros((Z.shape[1], F.shape[1] + 1))
            lowest, highest = np.full(Z.shape[1], np.inf), np.full(Z.shape[1], -np.inf)
        _widths(F, Z, G, C)
        g, c = _statistics(F, Z)
        G += g
        C += c
        lowest, highest = np.minimum(lowest, Z.min(axis=0)), np.maximum(highest, Z.max(axis=0))
    if G is None:
        raise ProbeError("need non-empty train and dev sets")
    for j in np.flatnonzero(lowest == highest):
        log.warning("training parameter %s is constant; fit is degenerate",
                    PARAMETERS[j] if j < len(PARAMETERS) else j)
    # A feature that is 0 on every training frame has a zero row and column in
    # G and a zero column in C: the minimum-norm solution gives it weight 0.
    live = np.flatnonzero(np.diag(G))
    theta = np.zeros_like(C)
    theta[:, live] = np.linalg.lstsq(G[np.ix_(live, live)], C[:, live].T, rcond=None)[0].T
    weight, bias = theta[:, :-1], theta[:, -1]
    dev_losses = []
    for F, Z in map(_aligned, dev):
        _widths(F, Z, G, C)
        dev_losses.append(_utterance_loss(weight, bias, F, Z))
    if not dev_losses:
        raise ProbeError("need non-empty train and dev sets")
    return ProbeModel(weight, bias, best_dev_loss=float(np.mean(dev_losses)))


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation coefficient of two equal-length series."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ProbeError("pearson needs two equal-length 1-D series of length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.sqrt(np.sum(xc * xc))
    sy = np.sqrt(np.sum(yc * yc))
    if sx == 0 or sy == 0:
        raise ProbeError("pearson undefined for a zero-variance series")
    return float(np.clip(np.sum(xc * yc) / (sx * sy), -1.0, 1.0))


def score(probe: ProbeModel, test: Iterable[Pair]) -> np.ndarray:
    """Per-parameter PCC over the concatenated test frames of one speaker.

    Each pair is read once and reduced to its predictions and true
    parameters.  Degenerate (zero-variance) parameters are returned as NaN
    with a logged warning and are excluded from downstream averages.
    """
    preds, truths = [], []
    for F, Z in map(_aligned, test):
        preds.append(probe.predict(F))
        truths.append(Z)
    if not preds:
        raise ProbeError("empty test set")
    pred = np.concatenate(preds, axis=0)
    truth = np.concatenate(truths, axis=0)
    out = np.empty(truth.shape[1])
    for j in range(truth.shape[1]):
        try:
            out[j] = pearson(pred[:, j], truth[:, j])
        except ProbeError:
            name = PARAMETERS[j] if j < len(PARAMETERS) else str(j)
            log.warning("parameter %s has zero variance; excluded from the score", name)
            out[j] = np.nan
    return out


@dataclass(frozen=True)
class ScoreReport:
    """Per-speaker, per-parameter PCC matrix with its averages."""

    speakers: tuple[str, ...]
    parameters: tuple[str, ...]
    matrix: np.ndarray  # (n_speakers, n_parameters), NaN = excluded
    per_speaker: np.ndarray
    per_parameter: np.ndarray
    grand: float
    stderr: float

    def _table(self, fmt) -> list[list[str]]:
        """The cells both formats print, values formatted by ``fmt``: the
        header, one row per speaker and the averages row, each row ending
        with its average."""
        rows = [["speaker", *self.parameters, "average"]]
        rows += [[spk, *map(fmt, self.matrix[i]), fmt(self.per_speaker[i])]
                 for i, spk in enumerate(self.speakers)]
        rows.append(["average", *map(fmt, self.per_parameter), fmt(self.grand)])
        return rows

    def to_csv(self) -> str:
        lines = [",".join(row) for row in self._table(_fmt)]
        return "\n".join([*lines, f"stderr,{_fmt(self.stderr)}"]) + "\n"

    def to_text(self) -> str:
        width = max(len(p) for p in self.parameters) + 2
        head, *speakers, average = [row[0].ljust(12) + "".join(c.rjust(width) for c in row[1:])
                                    for row in self._table(_fmt3)]
        rule = "-" * len(head)
        return "\n".join([head, rule, *speakers, rule, average,
                          f"standard error across speakers: {_fmt3(self.stderr)}"]) + "\n"


def _fmt(v: float) -> str:
    return "NA" if np.isnan(v) else f"{v:.6f}"


def _fmt3(v: float) -> str:
    return "NA" if np.isnan(v) else f"{v:.3f}"


def aggregate(
    matrix: np.ndarray,
    speakers: tuple[str, ...],
    parameters: tuple[str, ...] = PARAMETERS,
) -> ScoreReport:
    """Row/column/grand means of a complete PCC matrix, plus the standard
    error of the per-speaker averages over the speakers that have one (0
    when fewer than two do)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(speakers), len(parameters)):
        raise ProbeError(f"matrix shape {matrix.shape} does not match labels")
    if np.all(np.isnan(matrix)):
        raise ProbeError("score matrix is entirely undefined")
    if np.any(np.isnan(matrix)):
        log.warning("score matrix has %d excluded entries", int(np.isnan(matrix).sum()))
    per_speaker = np.nanmean(matrix, axis=1)
    per_parameter = np.nanmean(matrix, axis=0)
    grand = float(np.nanmean(per_speaker))
    defined = int(np.count_nonzero(~np.isnan(per_speaker)))
    stderr = float(np.nanstd(per_speaker, ddof=1) / np.sqrt(defined)) if defined > 1 else 0.0
    return ScoreReport(tuple(speakers), tuple(parameters), matrix,
                       per_speaker, per_parameter, grand, stderr)
