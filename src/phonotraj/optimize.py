"""On-utterance optimization of target positions and timings.

For the cubic forward models the target values X' and midpoint timings t'
are refined by monotone gradient descent on

    L(X', t') = integral of ||g''(tau; X', t')||^2  +  lambda * sum_k ||x'_k - x_k||^2

where g is the interpolant through (X', t').  Because g interpolates its own
targets, the attainment term reduces exactly to the squared offset from the
original targets, restricted to specified entries.  The curvature integral
has a closed form: g'' is linear on each segment, so a segment of length h
contributes 12 dv^2 / h^3 (Hermite, value step dv) or h/3 (A^2 + A B + B^2)
(natural cubic, end moments A, B from ``forward.moment_system``).

Gradients are analytic and read the same flat node list as synthesis
(``forward.flat_nodes``).  The Hermite case is local; the natural-cubic case
differentiates through the stacked moment system T M = r of all dimensions.
Its adjoint is M / 3 in closed form, because d(energy)/dM = T M / 3 and T is
symmetric, so a gradient makes one banded solve, the moment solve.  Both
are validated against central finite differences in the tests.

Boundary rows are frozen (zero positions, fixed timings); unknown entries
have no node and are not variables.

The descent keeps a fixed-rate step only if it lowers the objective by more
than the relative margin ``REL_TOL``, and stops at the first step it does
not keep.  A step that overflows (non-finite timings or objective) is such a
step, so the loop cannot diverge: it returns the last kept iterate, which is
the input when no step descends.
"""
from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, replace

import numpy as np

from .alignment import FeaturalSegmentation
from .forward import InterpMethod, flat_nodes, moment_system

REL_TOL = 1e-6  # a kept step lowers the objective by more than this fraction


class OptimizeError(ValueError):
    """Invalid optimization request."""


@dataclass(frozen=True)
class OptimConfig:
    """The settings of one descent, and the rules each of them must meet."""

    timing_lr: float = 1e-5
    position_lr: float = 1e-2
    lam: float = 0.0
    max_steps: int = 200
    optimize_timing: bool = False
    optimize_position: bool = False
    min_gap: float = 1e-3  # seconds between consecutive projected timings

    def __post_init__(self):
        for name in ("optimize_timing", "optimize_position"):
            if not isinstance(getattr(self, name), bool):
                raise OptimizeError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, int):
            raise OptimizeError(f"max_steps must be an integer, got {self.max_steps!r}")
        if self.max_steps < 0:
            raise OptimizeError(f"max_steps must be non-negative, got {self.max_steps}")
        for name in ("timing_lr", "position_lr", "lam", "min_gap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise OptimizeError(f"{name} = {value!r}: must be a number")
            if not abs(value) <= sys.float_info.max:  # also NaN and an int too large for a float
                raise OptimizeError(f"{name} = {value!r}: must be finite")
        for name, used in (("timing_lr", self.optimize_timing),
                           ("position_lr", self.optimize_position), ("min_gap", True)):
            if used and getattr(self, name) <= 0:
                raise OptimizeError(f"{name} = {getattr(self, name)!r}: must be positive")
        if self.lam < 0:
            raise OptimizeError(f"lam = {self.lam!r}: must be non-negative")


# Each grid axis of the config: the OptimConfig field it sets, the flag of the
# block whose rate it is (None: lambda, which every block uses) and its
# default values.  The grid varies the first axis slowest.
GRID_AXES = {
    "lambdas": ("lam", None, (0.0, 1e3, 1e4, 1e5, 1e6, 1e7)),
    "timing_lrs": ("timing_lr", "optimize_timing", (1e-6, 5e-6, 1e-5, 5e-5, 1e-4)),
    "position_lrs": ("position_lr", "optimize_position", (1e-3, 1e-2, 1e-1)),
}


def grid_fields(base: OptimConfig) -> list[str]:
    """The OptimConfig fields ``grid_configs(base, ...)`` searches: lambda and
    the rate of each enabled block."""
    return [name for name, block, _ in GRID_AXES.values() if block is None or getattr(base, block)]


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


def _curvature_energy(method: InterpMethod, times: np.ndarray, values: np.ndarray,
                      ends) -> float:
    """Exact integral of g''(tau)^2 over the segments of a flat node list:
    12 dv^2 / h^3 per segment for Hermite and h/3 (A^2 + A B + B^2) for
    natural cubic with end moments A, B.  A segment joining two dimensions
    runs between end nodes, whose values and moments are 0, so it adds 0.
    """
    if not method.is_cubic:
        raise OptimizeError(f"smoothness objective defined for cubic methods, not {method.value}")
    h, dv = times[1:] - times[:-1], values[1:] - values[:-1]
    if method is InterpMethod.CUBIC_HERMITE:
        return float(np.sum(12.0 * dv * dv / h**3))
    M = moment_system(h, dv, ends)
    return float(np.sum(h * (M[:-1] ** 2 + M[:-1] * M[1:] + M[1:] ** 2) / 3.0))


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
    _, _, times, values, first, last = flat_nodes(t, X, mask)
    smooth = _curvature_energy(method, times, values, np.concatenate((first, last)))
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
    coordinates (boundary rows, boundary timings) and at the entries
    outside ``mask``, which have no node.  The curvature term is
    differentiated over the flat node list; a segment joining two
    dimensions runs between end nodes, which are frozen.
    """
    if not method.is_cubic:
        raise OptimizeError(f"gradients defined for cubic methods, not {method.value}")
    rows, dims, times, values, first, last = flat_nodes(t, X, mask)
    h, dv = times[1:] - times[:-1], values[1:] - values[:-1]
    gv = np.zeros(values.size)
    if method is InterpMethod.CUBIC_HERMITE:
        gseg = 24.0 * dv / h**3  # d(term_i)/d(v_{i+1})
        gv[1:] += gseg
        gv[:-1] -= gseg
        gh = -36.0 * dv * dv / h**4  # d(term_i)/d(h_i)
    else:
        M = moment_system(h, dv, np.concatenate((first, last)))
        # The adjoint T w = d(energy)/dM = T M / 3 of the symmetric moment
        # matrix T needs no solve: w = M / 3 (0 at the end nodes).
        w = M[1:-1] / 3.0

        # Value gradient: w^T dr/dv with r_j = 6*(slope_j - slope_{j-1}).
        gv[2:] += 6.0 * w / h[1:]
        gv[1:-1] -= 6.0 * w / h[1:] + 6.0 * w / h[:-1]
        gv[:-2] += 6.0 * w / h[:-1]

        # Timing gradient through h: explicit e_i plus w^T d(r - T M)/dh.
        gh = (M[:-1] ** 2 + M[:-1] * M[1:] + M[1:] ** 2) / 3.0
        gh[:-1] += w * (6.0 * dv[:-1] / h[:-1] ** 2 - (M[:-2] + 2.0 * M[1:-1]))
        gh[1:] += w * (-6.0 * dv[1:] / h[1:] ** 2 - (2.0 * M[1:-1] + M[2:]))
    gtau = np.zeros(values.size)
    gtau[1:] += gh  # dh_i/dtau_{i+1} = +1
    gtau[:-1] -= gh  # dh_i/dtau_i = -1
    gX = np.zeros_like(X)
    gX[rows, dims] = gv
    gt = np.bincount(rows, weights=gtau, minlength=t.size)
    gX[[0, -1]] = gt[[0, -1]] = 0.0  # boundary rows are frozen
    if lam > 0:
        inner = mask[1:-1]
        gX[1:-1] += np.where(inner, 2.0 * lam * (X[1:-1] - X_orig[1:-1]), 0.0)
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
    """Monotone gradient descent on the enabled parameter blocks.

    A step is kept only if its objective is below ``(1 - REL_TOL)`` times the
    current one; the loop stops at the first step it does not keep, or after
    ``max_steps``.  Returns the last kept iterate; ``steps`` counts the kept
    steps.
    """
    if not method.is_cubic:
        raise OptimizeError(f"target optimization requires a cubic method, got {method.value}")
    if fseg.num_targets < 1:
        raise OptimizeError(f"{fseg.utterance_id}: no targets to optimize")
    mask = fseg.specified
    X0 = fseg.X
    X, t = X0, fseg.t
    obj = objective(t, X, mask, X0, cfg.lam, method)
    steps = 0
    while steps < cfg.max_steps and (cfg.optimize_timing or cfg.optimize_position):
        # an overshooting step may overflow; it then fails the descent test
        with np.errstate(over="ignore", invalid="ignore"):
            gX, gt = gradients(t, X, mask, X0, cfg.lam, method)
            # the gradients are exact zeros at the frozen rows and timings
            X_new = X - cfg.position_lr * gX if cfg.optimize_position else X
            t_new = t
            if cfg.optimize_timing:
                t_new = t - cfg.timing_lr * gt
                if not np.all(np.isfinite(t_new)):
                    break
                try:
                    t_new = project_timings(t_new, cfg.min_gap)
                except OptimizeError as exc:
                    raise OptimizeError(f"{fseg.utterance_id}: {exc}") from exc
            new = objective(t_new, X_new, mask, X0, cfg.lam, method)
        if not new < obj * (1.0 - REL_TOL):  # also stops at a NaN objective
            break
        X, t, obj = X_new, t_new, new
        steps += 1
    return OptimizedTargets(fseg.utterance_id, X.copy(), t.copy(), obj, steps)


def grid_configs(base: OptimConfig, grid: dict | None = None) -> list[OptimConfig]:
    """The hyper-parameter grid around ``base``: one OptimConfig per point.

    ``grid`` maps axes of ``GRID_AXES`` to their values; an axis it leaves out
    takes its default values.  The rate axis of a disabled block is not
    searched and keeps ``base``'s rate; naming it in ``grid`` is an error, as
    is a grid when both blocks are disabled.  Values are sorted ascending and
    lambda varies slowest, then the timing rate, then the position rate, so
    ties in a downstream argmax resolve to the smallest lambda, then the
    smallest rates.
    """
    grid = {} if grid is None else grid
    if not isinstance(grid, dict):
        raise OptimizeError(f"grid must be an object of axis lists, got {grid!r}")
    unknown = set(grid) - set(GRID_AXES)
    if unknown:
        raise OptimizeError(f"unknown grid axes {sorted(unknown)}; known: {', '.join(GRID_AXES)}")
    if not (base.optimize_timing or base.optimize_position):
        ignored = f"grid axes {sorted(grid)} would be ignored: " if grid else ""
        raise OptimizeError(ignored + "optimize_timing and optimize_position are both false")
    searched, axes = grid_fields(base), []
    for axis, (name, block, default) in GRID_AXES.items():
        if name not in searched:
            if axis in grid:
                raise OptimizeError(f"grid axis {axis} would be ignored: {block} is false")
            continue
        values = grid.get(axis, default)
        try:
            if not (isinstance(values, (list, tuple)) and values):
                raise OptimizeError("must be a non-empty list of numbers")
            for v in values:  # OptimConfig holds the rules for each value
                replace(base, **{name: v})
            if len(set(values)) < len(values):
                raise OptimizeError("a value is repeated")
        except OptimizeError as exc:
            raise OptimizeError(f"grid axis {axis} = {values!r}: {exc}") from exc
        axes.append([(name, v) for v in sorted(values)])
    return [replace(base, **dict(point)) for point in itertools.product(*axes)]
