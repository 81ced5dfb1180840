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
``flat_nodes`` lists every dimension's nodes in one flat array, which the
optimizer and ``evaluate``, the one evaluation core, read.  ``evaluate``
builds one flat table per utterance, each segment's polynomial
coefficients (the pp-form) for every dimension, with all natural-cubic
moments from one tridiagonal solve: LAPACK ``dgtsv``, loaded from scipy's
compiled ``_flapack`` by ``_scipy_extension`` without importing
``scipy.linalg``, at the first natural-cubic solve, so a linear or Hermite
run never loads it.  Synthesis is ``evaluate`` on the frame grid.
"""
from __future__ import annotations

import functools
import importlib
import importlib.machinery
import importlib.util
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy

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


@dataclass(frozen=True)
class Trajectory:
    """Frames of a synthesized trajectory; frame k (0-based) is at (k+1)/frame_rate."""

    utterance_id: str
    frame_rate: float
    frames: np.ndarray  # (n, d)

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


def frame_count(duration: float, frame_rate: float) -> int:
    return int(np.floor(duration * frame_rate + _FLOOR_EPS))


def frame_times(duration: float, frame_rate: float) -> np.ndarray:
    n = frame_count(duration, frame_rate)
    return np.minimum((np.arange(n) + 1) / frame_rate, duration)


def _node_mask(specified: np.ndarray) -> np.ndarray:
    """Every dimension's nodes: both boundary rows plus its specified rows."""
    mask = specified.copy()
    mask[0, :] = True
    mask[-1, :] = True
    return mask


def flat_nodes(t: np.ndarray, X: np.ndarray, specified: np.ndarray):
    """Every dimension's nodes (``_node_mask``) in one flat list, dimension-major.

    Returns ``(rows, dims, times, values, first, last)``: per node its row,
    dimension, time and value, with each boundary value set to 0, its target
    by construction; ``first`` and ``last`` give each dimension's first and
    last flat index, its nodes on the two boundary rows.
    """
    dims, rows = np.nonzero(_node_mask(specified).T)
    first, last = np.flatnonzero(rows == 0), np.flatnonzero(rows == X.shape[0] - 1)
    values = X[rows, dims]
    values[first] = values[last] = 0.0
    return rows, dims, t[rows], values, first, last


def _scipy_extension(subpackage: str, name: str):
    """scipy's compiled extension module ``scipy.<subpackage>.<name>``.

    It is loaded from its file, so the subpackage's ``__init__`` never runs:
    ``scipy.linalg`` costs a process about 0.25 s and 20 MB of imports and
    ``scipy.signal`` about a second and 47 MB, for one compiled routine each.
    Where the file is not found, the module is imported the usual way.
    """
    directory = Path(scipy.__file__).parent / subpackage
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if (path := directory / f"{name}{suffix}").is_file():
            spec = importlib.util.spec_from_file_location(f"scipy.{subpackage}.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(f"scipy.{subpackage}.{name}")


@functools.cache
def _lapack():
    """scipy's compiled LAPACK ``_flapack``, loaded on first use: only
    natural-cubic solves need its 2.6 MB."""
    return _scipy_extension("linalg", "_flapack")


def solve_tridiagonal(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_banded((1, 1), ab, b, check_finite=False)`` for a tridiagonal
    ``ab`` in that layout, leaving ``ab`` and ``b`` as they were.

    It calls LAPACK ``dgtsv`` from scipy's compiled ``_flapack``, the routine
    ``solve_banded`` calls, and keeps its contract: a singular matrix raises
    ``LinAlgError`` and a 1 x 1 system, which ``dgtsv`` rejects, is a
    division.
    """
    if ab.shape[1] == 1:
        return b / ab[1, 0]
    *_, x, info = _lapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def moment_system(h: np.ndarray, dv: np.ndarray, ends) -> np.ndarray:
    """The natural-cubic moments of a flat node list.

    ``h`` and ``dv`` are the segment lengths and value steps and ``ends``
    indexes every dimension's first and last node.  Each dimension's
    tridiagonal system is stacked with zero coupling between dimensions, in
    the ``solve_banded((1, 1), ...)`` layout that ``solve_tridiagonal``
    takes; the matrix is symmetric.  An end node's row is M = 0, so LAPACK's
    ``gtsv`` never pivots across it and eliminates with multiplier 0: each
    dimension gets the moments its own system would give.
    """
    inner = np.ones(h.size + 1, dtype=bool)
    inner[ends] = False
    ab = np.zeros((3, h.size + 1))
    ab[0, 1:] = ab[2, :-1] = np.where(inner[:-1] & inner[1:], h, 0.0)
    ab[1] = 1.0
    ab[1, 1:-1] = np.where(inner[1:-1], 2.0 * (h[:-1] + h[1:]), 1.0)
    r = np.zeros(h.size + 1)
    r[1:-1] = np.where(inner[1:-1], 6.0 * np.diff(dv / h), 0.0)
    # Callers check what they compute from the moments for non-finite values.
    return solve_tridiagonal(ab, r)


def segment_table(method: InterpMethod, times: np.ndarray, values: np.ndarray,
                  ends) -> tuple:
    """Segment lengths and polynomial coefficients (pp-form) of the
    interpolant through a flat list of nodes.

    Entry p of the coefficients holds, per segment i (node i to node i + 1),
    the coefficient of s**p in s = (tau - t_i) / h_i, or None where it is 0
    for every segment.  Dimensions may follow one another in the list;
    ``ends`` indexes their first and last nodes, and the segments joining
    two dimensions are never read.
    """
    h, dv = times[1:] - times[:-1], values[1:] - values[:-1]
    if method is InterpMethod.LINEAR:
        return h, (values, dv)
    if method is InterpMethod.CUBIC_HERMITE:
        return h, (values, None, 3.0 * dv, -2.0 * dv)
    M = moment_system(h, dv, ends)
    hh, Ma, Mb = h * h, M[:-1], M[1:]
    return h, (values, dv - hh * (2.0 * Ma + Mb) / 6.0, hh * Ma / 2.0, hh * (Mb - Ma) / 6.0)


def _horner(table: tuple, idx: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The pieces ``idx`` of a segment table at their local coordinates ``s``."""
    out = table[-1].take(idx)
    for c in reversed(table[:-1]):
        out *= s
        if c is not None:
            out += c.take(idx)
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


def evaluate(t: np.ndarray, X: np.ndarray, method: InterpMethod, taus: np.ndarray,
             derivative: int = 0) -> np.ndarray:
    """Every dimension's interpolant through the targets ``(t, X)`` at the
    times ``taus``, or with ``derivative=2`` its second derivative, as a
    ``(len(taus), d)`` array.

    The NaN entries of ``X`` have no node, and both boundary rows are nodes
    valued 0.  At a knot the segment that starts there is read, so a Hermite
    second derivative takes its right-hand value.
    """
    if method is InterpMethod.PIECEWISE_CONSTANT:
        raise ForwardError("piecewise-constant needs a featural segmentation with intervals")
    if derivative not in (0, 2) or (derivative and not method.is_cubic):
        raise ForwardError(f"derivative {derivative} undefined for {method.value}")
    if t.size < 2 or not (t[1:] > t[:-1]).all():
        raise ForwardError("timings need at least 2 entries, strictly increasing")
    if X.shape[0] != t.size:
        raise ForwardError(f"{X.shape[0]} target rows for {t.size} timings")
    if (taus < t[0] - 1e-12).any() or (taus > t[-1] + 1e-12).any():
        raise ForwardError(f"evaluation time outside [{t[0]}, {t[-1]}]")
    mask = _node_mask(~np.isnan(X))
    rows, dims, times, values, first, last = flat_nodes(t, X, mask)
    if not np.isfinite(values).all():
        raise ForwardError("non-finite node value")
    h, table = segment_table(method, times, values, np.concatenate((first, last)))
    # Flat segment of each (row, dim), clipped to the dimension's own
    # segments; then one row gather by the row that holds each tau.
    seg = np.minimum(np.cumsum(mask, axis=0) - 1 + first, last - 1)
    row = np.maximum(np.searchsorted(t, taus, side="right") - 1, 0)
    idx = seg[row]
    s = (taus[:, None] - times.take(idx)) / h.take(idx)
    if derivative:
        hk = h.take(idx)
        return (2.0 * table[2].take(idx) + 6.0 * table[3].take(idx) * s) / (hk * hk)
    return _horner(table, idx, s)


def _trajectory(
    utterance_id: str,
    t: np.ndarray,
    X: np.ndarray,
    method: InterpMethod,
    frame_rate: float,
    Y: np.ndarray | None = None,
) -> Trajectory:
    """Sample every dimension on the frame grid: ``evaluate``, or for
    piecewise-constant the targets over their intervals ``Y``."""
    taus = frame_times(float(t[-1]), frame_rate)
    if taus.size == 0:
        raise ForwardError(f"{utterance_id}: utterance shorter than one frame")
    try:
        if method is InterpMethod.PIECEWISE_CONSTANT and Y is not None:
            frames = _piecewise_constant(Y, X, taus)
        else:
            frames = evaluate(t, X, method, taus)
    except ForwardError as e:
        raise ForwardError(f"{utterance_id}: {e}") from None
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
    return _trajectory(fseg.utterance_id, fseg.t, fseg.X, method, frame_rate, fseg.Y)


def synthesize_targets(
    utterance_id: str,
    t: np.ndarray,
    X: np.ndarray,
    method: InterpMethod,
    frame_rate: float = 100.0,
) -> Trajectory:
    """Synthesize from explicit (possibly optimized) targets and timings.

    Timings need not be interval midpoints here, but must increase strictly;
    piecewise-constant is not supported because it is defined on intervals,
    not timings.
    """
    return _trajectory(utterance_id, t, X, method, frame_rate)
