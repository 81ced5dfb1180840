"""On-utterance optimization of target positions and timings.

For the cubic forward models the target values X' and midpoint timings t'
are refined by plain gradient descent on

    L(X', t') = integral of ||g''(tau; X', t')||^2  +  lambda * sum_k ||x'_k - x_k||^2

where g is the interpolant through (X', t').  Because g interpolates its own
targets, the attainment term reduces exactly to the squared offset from the
original targets, restricted to specified entries.  The curvature integral
has a closed form: g'' is piecewise linear, so each segment contributes
h/3 * (A^2 + A*B + B^2) with A, B the curvature at its ends.

Gradients are analytic.  The Hermite case is local; the natural-cubic case
differentiates through the tridiagonal moment system with one adjoint solve
per node pattern (``forward.node_patterns``), shared by its dimensions.  Both are validated against central finite differences by
``gradient_check``.

Boundary rows are frozen (zero positions, fixed timings); unknown entries
have no node and are not variables.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .alignment import FeaturalSegmentation
from .forward import CUBIC_METHODS, InterpMethod, moment_bands, natural_moments, node_patterns

DEFAULT_MIN_GAP = 1e-3  # seconds between consecutive projected timings


class OptimizeError(ValueError):
    """Invalid optimization request."""


class DivergenceError(RuntimeError):
    """Objective became non-finite; carries the last finite iterate."""

    def __init__(self, message: str, last_iterate: "OptimizedTargets"):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class OptimConfig:
    timing_lr: float = 1e-5
    position_lr: float = 1e-2
    lam: float = 0.0
    max_steps: int = 200
    optimize_timing: bool = False
    optimize_position: bool = False
    min_gap: float = DEFAULT_MIN_GAP
    # early exit when the relative objective decrease over this many steps
    # stays below the threshold
    rel_tol: float = 1e-6
    rel_window: int = 10

    def __post_init__(self):
        if self.optimize_timing and self.timing_lr <= 0:
            raise OptimizeError("timing learning rate must be positive")
        if self.optimize_position and self.position_lr <= 0:
            raise OptimizeError("position learning rate must be positive")
        if self.lam < 0:
            raise OptimizeError("lambda must be non-negative")
        if self.min_gap <= 0:
            raise OptimizeError("min_gap must be positive")


@dataclass(frozen=True)
class OptimizedTargets:
    """Result of target optimization; NaN entries stay unknown."""

    utterance_id: str
    X: np.ndarray  # (K+2, d), NaN at unknown entries
    t: np.ndarray  # (K+2,)
    objective: float
    steps: int

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            d = self.X.shape[1]
            f.write("k,t," + ",".join(f"x{j}" for j in range(d)) + "\n")
            for k in range(self.X.shape[0]):
                cells = ["NA" if np.isnan(v) else f"{v:.9g}" for v in self.X[k]]
                f.write(f"{k + 1},{self.t[k]:.9g}," + ",".join(cells) + "\n")


def _segment_curvature_energy(h: np.ndarray, A: np.ndarray, B: np.ndarray) -> float:
    """Closed form of the integral of a piecewise-linear curvature squared."""
    return float(np.sum(h / 3.0 * (A * A + A * B + B * B)))


def smoothness_term(times: np.ndarray, values: np.ndarray, method: InterpMethod) -> float:
    """Exact integral of g''(tau)^2 over the node span, summed over the
    columns of ``values``, which may be (m,) or (m, c)."""
    if method not in CUBIC_METHODS:
        raise OptimizeError(f"smoothness objective defined for cubic methods, not {method.value}")
    if times.size < 2:
        return 0.0
    h = np.diff(times)
    if values.ndim == 2:
        h = h[:, None]
    if method is InterpMethod.CUBIC_HERMITE:
        dv = np.diff(values, axis=0)
        return float(np.sum(12.0 * dv * dv / h**3))
    M = natural_moments(times, values)
    return _segment_curvature_energy(h, M[:-1], M[1:])


def attainment_term(
    X_cand: np.ndarray, X_orig: np.ndarray, mask: np.ndarray
) -> float:
    """Sum of squared offsets from the original targets over specified entries.

    Equal to the interpolation-constraint form sum_k ||g(t'_k) - x_k||^2
    because g reproduces its own targets exactly.
    """
    inner = mask[1:-1]
    diff = np.where(inner, X_cand[1:-1] - X_orig[1:-1], 0.0)
    return float(np.sum(diff * diff))


def objective_terms(
    t: np.ndarray,
    X: np.ndarray,
    mask: np.ndarray,
    X_orig: np.ndarray,
    lam: float,
    method: InterpMethod,
) -> tuple[float, float]:
    smooth = sum((smoothness_term(times, values, method)
                  for _, _, times, values in node_patterns(t, X, mask)), 0.0)
    return smooth, lam * attainment_term(X, X_orig, mask)


def objective(
    t: np.ndarray,
    X: np.ndarray,
    mask: np.ndarray,
    X_orig: np.ndarray,
    lam: float,
    method: InterpMethod,
) -> float:
    """Smoothness-plus-attainment loss for candidate targets (X, t)."""
    smooth, attain = objective_terms(t, X, mask, X_orig, lam, method)
    return smooth + attain


def _smoothness_gradients(times: np.ndarray, values: np.ndarray, method: InterpMethod):
    """Gradients of the curvature integral of one node-pattern block.

    Returns d/d(values), shaped (m, c) like ``values``, and d/d(times), (m,),
    summed over the block's columns.  The natural-cubic case makes one
    adjoint solve for all columns.
    """
    m = times.size
    gv = np.zeros_like(values)
    gt = np.zeros(m)
    h = np.diff(times)
    hc = h[:, None]
    dv = np.diff(values, axis=0)
    if method is InterpMethod.CUBIC_HERMITE:
        gseg = 24.0 * dv / hc**3  # d(term_i)/d(v_{i+1})
        gv[1:] += gseg
        gv[:-1] -= gseg
        gh = -36.0 * dv * dv / hc**4  # d(term_i)/d(h_i)
    else:
        if m < 3:
            return gv, gt  # two nodes: the spline is a line, zero curvature
        M = natural_moments(times, values)
        # Adjoint solve: T w = d(phi)/dM_interior, same matrix as the moment system.
        b = hc[:-1] * (M[:-2] + 2.0 * M[1:-1]) / 3.0 + hc[1:] * (2.0 * M[1:-1] + M[2:]) / 3.0
        w = solve_banded((1, 1), moment_bands(h), b)

        # Value gradient: w^T dr/dv with r_j = 6*(slope_{j+1} - slope_j).
        gv[2:] += 6.0 * w / hc[1:]
        gv[1:-1] -= 6.0 * w / hc[1:] + 6.0 * w / hc[:-1]
        gv[:-2] += 6.0 * w / hc[:-1]

        # Timing gradient through h: explicit e_i plus w^T d(r - T M)/dh.
        gh = (M[:-1] ** 2 + M[:-1] * M[1:] + M[1:] ** 2) / 3.0
        gh[:-1] += w * (6.0 * dv[:-1] / hc[:-1] ** 2 - (M[:-2] + 2.0 * M[1:-1]))
        gh[1:] += w * (-6.0 * dv[1:] / hc[1:] ** 2 - (2.0 * M[1:-1] + M[2:]))
    gh = gh.sum(axis=1)
    gt[1:] += gh  # dh_i/dtau_{i+1} = +1
    gt[:-1] -= gh  # dh_i/dtau_i = -1
    return gv, gt


def gradients(
    t: np.ndarray,
    X: np.ndarray,
    mask: np.ndarray,
    X_orig: np.ndarray,
    lam: float,
    method: InterpMethod,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the objective w.r.t. positions and timings.

    Returns (gX, gt) shaped like X and t, with exact zeros at frozen
    coordinates (boundary rows, boundary timings) and at unknown entries.
    """
    if method not in CUBIC_METHODS:
        raise OptimizeError(f"gradients defined for cubic methods, not {method.value}")
    gX = np.zeros_like(X)
    gt = np.zeros_like(t)
    for rows, dims, times, values in node_patterns(t, X, mask):
        gv, gtau = _smoothness_gradients(times, values, method)
        inner = rows[1:-1]  # boundary rows are frozen
        gX[np.ix_(inner, dims)] = gv[1:-1]
        gt[inner] += gtau[1:-1]
    if lam > 0:
        inner = mask[1:-1]
        gX[1:-1] += np.where(inner, 2.0 * lam * (X[1:-1] - X_orig[1:-1]), 0.0)
    gX[np.isnan(X)] = 0.0
    return gX, gt


def project_timings(t: np.ndarray, min_gap: float) -> np.ndarray:
    """Order-preserving clamp of interior timings to gaps of at least min_gap.

    Boundary timings stay bitwise unchanged; raises if the span cannot fit
    K+1 gaps.
    """
    t = t.copy()
    n = t.size
    span = t[-1] - t[0]
    if span < (n - 1) * min_gap:
        raise OptimizeError(f"span {span} cannot fit {n - 1} gaps of {min_gap}")
    for k in range(1, n - 1):
        t[k] = max(t[k], t[k - 1] + min_gap)
    for k in range(n - 2, 0, -1):
        t[k] = min(t[k], t[k + 1] - min_gap)
    if not np.all(np.diff(t) > 0):
        raise OptimizeError("timing projection failed to restore ordering")
    return t


def optimize_targets(
    fseg: FeaturalSegmentation, method: InterpMethod, cfg: OptimConfig
) -> OptimizedTargets:
    """Gradient descent on enabled parameter blocks; returns the best iterate."""
    if method not in CUBIC_METHODS:
        raise OptimizeError(f"target optimization requires a cubic method, got {method.value}")
    if fseg.num_targets < 1:
        raise OptimizeError(f"{fseg.utterance_id}: no targets to optimize")
    mask = fseg.specified
    X0 = fseg.X
    X = X0.copy()
    t = fseg.t.copy()
    obj = objective(t, X, mask, X0, cfg.lam, method)
    best = OptimizedTargets(fseg.utterance_id, X.copy(), t.copy(), obj, 0)
    if not (cfg.optimize_timing or cfg.optimize_position):
        return best
    recent = [obj]
    for step in range(1, cfg.max_steps + 1):
        # overflow on a diverging iterate is expected and surfaces as inf
        with np.errstate(over="ignore", invalid="ignore"):
            gX, gt = gradients(t, X, mask, X0, cfg.lam, method)
            if cfg.optimize_position:
                X[1:-1] -= cfg.position_lr * gX[1:-1]
            if cfg.optimize_timing:
                t[1:-1] -= cfg.timing_lr * gt[1:-1]
                t = project_timings(t, cfg.min_gap)
            obj = objective(t, X, mask, X0, cfg.lam, method)
        if not np.isfinite(obj):
            raise DivergenceError(
                f"{fseg.utterance_id}: objective diverged at step {step}", best
            )
        if obj < best.objective:
            best = OptimizedTargets(fseg.utterance_id, X.copy(), t.copy(), obj, step)
        recent.append(obj)
        if len(recent) > cfg.rel_window:
            recent.pop(0)
            prev = recent[0]
            if prev > 0 and (prev - obj) / prev < cfg.rel_tol:
                break
            if prev <= 0 and abs(prev - obj) < cfg.rel_tol:
                break
    return best


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


def grid_configs(
    timing_lrs=(1e-6, 5e-6, 1e-5, 5e-5, 1e-4),
    position_lrs=(1e-3, 1e-2, 1e-1),
    lambdas=(0.0, 1e3, 1e4, 1e5, 1e6, 1e7),
    *,
    optimize_timing: bool = True,
    optimize_position: bool = True,
    max_steps: int = 200,
) -> list[OptimConfig]:
    """The hyper-parameter grid, restricted by the enabled blocks.

    Full grid order is deterministic: lambda varies slowest, then timing
    rate, then position rate, each ascending; ties in a downstream argmax
    therefore resolve to the smallest lambda, then smallest rates.
    """
    if not (optimize_timing or optimize_position):
        raise OptimizeError("grid requires at least one block to optimize")
    t_axis = tuple(sorted(timing_lrs)) if optimize_timing else (1e-5,)
    p_axis = tuple(sorted(position_lrs)) if optimize_position else (1e-2,)
    out = []
    for lam in sorted(lambdas):
        for tlr in t_axis:
            for plr in p_axis:
                out.append(
                    OptimConfig(
                        timing_lr=tlr,
                        position_lr=plr,
                        lam=lam,
                        max_steps=max_steps,
                        optimize_timing=optimize_timing,
                        optimize_position=optimize_position,
                    )
                )
    return out
