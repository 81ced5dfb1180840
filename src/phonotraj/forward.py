"""Forward models: discrete feature targets -> continuous trajectories.

Four interpolation methods generate a d-dimensional trajectory through the
targets of a featural segmentation, sampled on a fixed frame grid (frame k
at k/frame_rate, k = 1..n, n = floor(duration * frame_rate)):

    piecewise_constant  holds each phone's target over its own interval
    linear              straight lines between consecutive targets
    cubic_hermite       piecewise cubic with zero velocity at every target
    natural_cubic       C2 cubic spline, zero curvature at both boundaries

Unknown feature entries have no node: each dimension interpolates through
its specified targets only, so the interpolant supplies context-dependent
values.  The zero boundary targets act as nodes in every dimension.
``node_patterns`` groups the dimensions that share a node mask into one
block; synthesis, the optimizer and ``select_nodes`` all read those blocks.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

from .alignment import FeaturalSegmentation

_FLOOR_EPS = 1e-9  # guards n = floor(duration * rate) against float dust

TRAJECTORY_MAGIC = b"FTRJ"


class ForwardError(ValueError):
    """Invalid interpolation request."""


class InterpMethod(Enum):
    PIECEWISE_CONSTANT = "piecewise_constant"
    LINEAR = "linear"
    CUBIC_HERMITE = "cubic_hermite"
    NATURAL_CUBIC = "natural_cubic"

    @classmethod
    def from_id(cls, name: str) -> "InterpMethod":
        key = name.strip().lower().replace("-", "_")
        for m in cls:
            if m.value == key:
                return m
        raise ForwardError(f"unknown interpolation method {name!r}")

    @property
    def is_cubic(self) -> bool:
        return self in (InterpMethod.CUBIC_HERMITE, InterpMethod.NATURAL_CUBIC)


CUBIC_METHODS = (InterpMethod.CUBIC_HERMITE, InterpMethod.NATURAL_CUBIC)


@dataclass(frozen=True)
class DimensionNodes:
    """Interpolation nodes of one feature dimension.

    ``rows`` are the segmentation row indices the nodes came from; the two
    boundary rows are always present.  ``intervals`` carries the matching
    target time intervals, needed only by piecewise-constant evaluation.
    """

    dim: int
    times: np.ndarray  # (m,)
    values: np.ndarray  # (m,)
    rows: np.ndarray  # (m,) int
    intervals: np.ndarray | None = None  # (m, 2)

    def __post_init__(self):
        if self.times.size < 2:
            raise ForwardError(f"dimension {self.dim}: needs at least the 2 boundary nodes")
        if not np.all(np.diff(self.times) > 0):
            raise ForwardError(f"dimension {self.dim}: node times not strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ForwardError(f"dimension {self.dim}: non-finite node value")


@dataclass(frozen=True)
class Trajectory:
    """Frames of a synthesized trajectory; frame k (0-based) is at (k+1)/frame_rate."""

    utterance_id: str
    frame_rate: float
    frames: np.ndarray  # (n, d)

    @property
    def times(self) -> np.ndarray:
        return (np.arange(self.frames.shape[0]) + 1) / self.frame_rate

    def to_csv(self, path: str | Path) -> None:
        n, d = self.frames.shape
        with open(path, "w", encoding="utf-8") as f:
            f.write("frame," + ",".join(f"f{j}" for j in range(d)) + "\n")
            for k in range(n):
                f.write(str(k + 1) + "," + ",".join(f"{v:.9g}" for v in self.frames[k]) + "\n")

    def save_binary(self, path: str | Path) -> None:
        """Write magic 'FTRJ', uint32 n, uint32 d, then n*d little-endian f64."""
        n, d = self.frames.shape
        with open(path, "wb") as f:
            f.write(TRAJECTORY_MAGIC)
            f.write(struct.pack("<II", n, d))
            f.write(np.ascontiguousarray(self.frames, dtype="<f8").tobytes())


def load_binary(path: str | Path, utterance_id: str = "", frame_rate: float = 100.0) -> Trajectory:
    raw = Path(path).read_bytes()
    if raw[:4] != TRAJECTORY_MAGIC:
        raise ForwardError(f"{path}: bad magic {raw[:4]!r}")
    n, d = struct.unpack("<II", raw[4:12])
    frames = np.frombuffer(raw[12:], dtype="<f8", count=n * d).reshape(n, d).copy()
    return Trajectory(utterance_id or Path(path).stem, frame_rate, frames)


def frame_count(duration: float, frame_rate: float) -> int:
    return int(np.floor(duration * frame_rate + _FLOOR_EPS))


def frame_times(duration: float, frame_rate: float) -> np.ndarray:
    n = frame_count(duration, frame_rate)
    return np.minimum((np.arange(n) + 1) / frame_rate, duration)


def node_patterns(t: np.ndarray, X: np.ndarray, specified: np.ndarray):
    """Group the dimensions of targets (t, X) by their node mask.

    A dimension's nodes are both boundary rows plus its specified rows.
    Yields ``(rows, dims, times, values)`` per distinct mask, where
    ``values`` is the (m, c) block ``X[rows][:, dims]`` with the boundary
    rows set to 0, their target by construction.
    """
    mask = specified.copy()
    mask[0, :] = True
    mask[-1, :] = True
    groups: dict[bytes, list[int]] = {}
    for j in range(X.shape[1]):
        groups.setdefault(mask[:, j].tobytes(), []).append(j)
    for key, dims in groups.items():
        rows = np.flatnonzero(np.frombuffer(key, dtype=bool))
        values = X[np.ix_(rows, dims)]
        values[0] = 0.0
        values[-1] = 0.0
        yield rows, np.asarray(dims), t[rows], values


def select_nodes(fseg: FeaturalSegmentation) -> list[DimensionNodes]:
    """Per-dimension nodes: one column of each ``node_patterns`` block."""
    nodes = {}
    for rows, dims, times, values in node_patterns(fseg.t, fseg.X, fseg.specified):
        intervals = fseg.Y[rows]
        for j, column in zip(dims.tolist(), values.T.copy()):
            nodes[j] = DimensionNodes(j, times, column, rows, intervals)
    return [nodes[j] for j in range(fseg.dimension)]


def _segment_index(times: np.ndarray, taus: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(times, taus, side="right") - 1
    return np.minimum(np.maximum(idx, 0), times.size - 2)  # np.clip, without its overhead


def moment_bands(h: np.ndarray) -> np.ndarray:
    """Tridiagonal matrix of the natural-spline moment system for segment
    lengths ``h``, in ``solve_banded((1, 1), ...)`` layout."""
    q = h.size - 1
    ab = np.zeros((3, q))
    ab[1, :] = 2.0 * (h[:-1] + h[1:])
    if q > 1:
        ab[0, 1:] = h[1:q]
        ab[2, :-1] = h[1:q]
    return ab


def natural_moments(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline at the nodes.

    ``values`` may be (m,) or (m, c); the boundary moments are zero.
    """
    out = np.zeros_like(values, dtype=float)
    if times.size < 3:
        return out
    h = np.diff(times)
    dv = np.diff(values, axis=0)
    slope = dv / (h if values.ndim == 1 else h[:, None])
    r = 6.0 * np.diff(slope, axis=0)
    out[1:-1] = solve_banded((1, 1), moment_bands(h), r)
    return out


def _piecewise_constant(intervals: np.ndarray, values: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Value of the target whose interval holds each tau, the last one closed
    at its end.  Degenerate intervals, such as the boundary rows', hold none."""
    live = intervals[:, 1] > intervals[:, 0]
    if not np.any(live):
        raise ForwardError("piecewise-constant needs at least one non-degenerate interval")
    starts = intervals[live, 0]
    idx = np.clip(np.searchsorted(starts, taus, side="right") - 1, 0, starts.size - 1)
    return values[live][idx]


def _evaluate(
    method: InterpMethod,
    times: np.ndarray,
    values: np.ndarray,
    taus: np.ndarray,
    intervals: np.ndarray | None = None,
) -> np.ndarray:
    """The interpolant through nodes (times, values) at ``taus``.

    ``values`` may be (m,) or (m, c).  Piecewise-constant reads the nodes'
    target ``intervals`` instead of their times.
    """
    if method is InterpMethod.PIECEWISE_CONSTANT:
        if intervals is None:
            raise ForwardError("piecewise-constant evaluation needs target intervals")
        return _piecewise_constant(intervals, values, taus)
    idx = _segment_index(times, taus)
    ta, tb = times[idx], times[idx + 1]
    h = tb - ta
    va, vb = values[idx], values[idx + 1]
    if method is InterpMethod.NATURAL_CUBIC:
        M = natural_moments(times, values)
        Ma, Mb = M[idx], M[idx + 1]
        a, b = taus - ta, tb - taus
        if values.ndim == 2:
            h, a, b = h[:, None], a[:, None], b[:, None]
        return (
            Ma * b**3 / (6.0 * h)
            + Mb * a**3 / (6.0 * h)
            + (va - Ma * h * h / 6.0) * (b / h)
            + (vb - Mb * h * h / 6.0) * (a / h)
        )
    s = (taus - ta) / h
    if method is InterpMethod.CUBIC_HERMITE:
        s = 3.0 * s**2 - 2.0 * s**3
    elif method is not InterpMethod.LINEAR:
        raise ForwardError(f"unknown method {method}")
    return va + (vb - va) * (s if values.ndim == 1 else s[:, None])


def _check_range(times: np.ndarray, taus: np.ndarray) -> None:
    if np.any(taus < times[0] - 1e-12) or np.any(taus > times[-1] + 1e-12):
        raise ForwardError(
            f"evaluation time outside [{times[0]}, {times[-1]}]"
        )


def interpolate(nodes: DimensionNodes, method: InterpMethod, tau) -> float | np.ndarray:
    """Value of the interpolant for one dimension at time(s) ``tau``.

    Exactly reproduces the node values at node times for every method except
    piecewise-constant, which returns the value of the phone interval
    containing tau instead.
    """
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_range(nodes.times, taus)
    out = _evaluate(method, nodes.times, nodes.values, taus, nodes.intervals)
    return float(out[0]) if np.ndim(tau) == 0 else out


def second_derivative(nodes: DimensionNodes, method: InterpMethod, tau) -> float | np.ndarray:
    """Analytic second derivative of the cubic interpolants.

    At interior knots of the Hermite spline the curvature is discontinuous;
    the value of the right-hand segment is returned there.
    """
    if method not in CUBIC_METHODS:
        raise ForwardError(f"second derivative undefined for {method.value}")
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    _check_range(nodes.times, taus)
    times, values = nodes.times, nodes.values
    idx = _segment_index(times, taus)
    h = times[idx + 1] - times[idx]
    s = (taus - times[idx]) / h
    if method is InterpMethod.CUBIC_HERMITE:
        out = (values[idx + 1] - values[idx]) * (6.0 - 12.0 * s) / h**2
    else:
        M = natural_moments(times, values)
        out = M[idx] * (1.0 - s) + M[idx + 1] * s
    return float(out[0]) if np.ndim(tau) == 0 else out


def _trajectory(
    utterance_id: str,
    t: np.ndarray,
    X: np.ndarray,
    specified: np.ndarray,
    method: InterpMethod,
    frame_rate: float,
    Y: np.ndarray | None = None,
) -> Trajectory:
    """Evaluate every node-pattern block of the targets on the frame grid."""
    taus = frame_times(float(t[-1]), frame_rate)
    if taus.size == 0:
        raise ForwardError(f"{utterance_id}: utterance shorter than one frame")
    frames = np.empty((taus.size, X.shape[1]))
    for rows, dims, times, values in node_patterns(t, X, specified):
        frames[:, dims] = _evaluate(method, times, values, taus, None if Y is None else Y[rows])
    if not np.all(np.isfinite(frames)):
        raise ForwardError(f"{utterance_id}: non-finite trajectory values")
    return Trajectory(utterance_id, frame_rate, frames)


def synthesize(
    fseg: FeaturalSegmentation, method: InterpMethod, frame_rate: float = 100.0
) -> Trajectory:
    """Sample the interpolant of every dimension on the fixed frame grid."""
    if fseg.num_targets < 1:
        raise ForwardError(f"{fseg.utterance_id}: segmentation has no targets")
    if method is InterpMethod.PIECEWISE_CONSTANT and not np.all(fseg.specified):
        raise ForwardError(
            f"{fseg.utterance_id}: piecewise-constant requires a fully specified feature set"
        )
    return _trajectory(fseg.utterance_id, fseg.t, fseg.X, fseg.specified, method,
                       frame_rate, fseg.Y)


def synthesize_targets(
    utterance_id: str,
    t: np.ndarray,
    X: np.ndarray,
    method: InterpMethod,
    frame_rate: float = 100.0,
) -> Trajectory:
    """Synthesize from explicit (possibly optimized) targets and timings.

    Timings need not be interval midpoints here; piecewise-constant is not
    supported because it is defined on intervals, not timings.
    """
    if method is InterpMethod.PIECEWISE_CONSTANT:
        raise ForwardError("piecewise-constant needs a featural segmentation with intervals")
    return _trajectory(utterance_id, t, X, ~np.isnan(X), method, frame_rate)
