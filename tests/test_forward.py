import importlib.machinery
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import solve_banded

from conftest import column, dimension_nodes, featural, one_sided_derivative, random_fseg
from phonotraj import forward
from phonotraj.alignment import Phone, PhoneSegmentation, build_featural
from phonotraj.forward import (
    ForwardError,
    InterpMethod,
    evaluate,
    flat_nodes,
    frame_count,
    frame_times,
    synthesize,
    synthesize_targets,
)
from phonotraj.phonology import get_table

L, H, N, PC = (InterpMethod.LINEAR, InterpMethod.CUBIC_HERMITE,
               InterpMethod.NATURAL_CUBIC, InterpMethod.PIECEWISE_CONSTANT)
INTERPOLATING = (L, H, N)

# One dimension through (0, 0), (1, 1), (2, 0): on [0, 1] the Hermite spline
# is the smoothstep 3s^2 - 2s^3, and the natural cubic's interior moment is -3.
T3 = np.array([0.0, 1.0, 2.0])
X3 = np.array([[0.0], [1.0], [0.0]])


def at(t, X, method, tau, derivative=0):
    """Column 0 of ``evaluate`` at the time(s) ``tau``."""
    return evaluate(t, X, method, np.atleast_1d(np.asarray(tau, dtype=float)), derivative)[:, 0]


# ---------------------------------------------------------------------------
# node selection
# ---------------------------------------------------------------------------


def test_flat_nodes_fully_specified():
    rng = np.random.default_rng(0)
    fseg = random_fseg(rng, k=4, d=3, unknown_prob=0.0)
    rows, dims, *_ = flat_nodes(fseg.t, fseg.X, fseg.specified)
    for j in range(3):
        np.testing.assert_array_equal(rows[dims == j], np.arange(6))


def test_unknowns_have_no_node():
    rng = np.random.default_rng(1)
    fseg = random_fseg(rng, k=3, d=2, unknown_prob=0.0)
    X = fseg.X.copy()
    X[2, 0] = np.nan          # one unknown in dim 0
    X[1:-1, 1] = np.nan       # all intermediates unknown in dim 1
    _, dims, *_ = flat_nodes(fseg.t, X, ~np.isnan(X))
    assert np.sum(dims == 0) == 4   # K+1
    assert np.sum(dims == 1) == 2   # boundary nodes only
    for m in INTERPOLATING:
        assert evaluate(fseg.t, X, m, fseg.t[2:3])[0, 1] == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# interpolation values (frozen expectations)
# ---------------------------------------------------------------------------


def test_linear_midpoint():
    assert at(T3, X3, L, 0.5)[0] == pytest.approx(0.5)


def test_hermite_smoothstep_values():
    assert at(T3, X3, H, 0.5)[0] == pytest.approx(0.5)
    assert at(T3, X3, H, 0.25)[0] == pytest.approx(0.15625, abs=1e-12)


def test_natural_cubic_three_node_value():
    # Interior moment solves to -3 for these nodes; value follows in closed form.
    assert at(T3, X3, N, 0.5)[0] == pytest.approx(0.6875, abs=1e-12)


def test_equal_targets_hold_a_constant_between_them():
    t = np.array([0.0, 0.4, 0.7, 1.3, 1.6])
    X = np.array([[0.0], [2.5], [2.5], [2.5], [0.0]])
    taus = np.linspace(0.4, 1.3, 27)
    for m in (L, H):
        np.testing.assert_allclose(at(t, X, m, taus), 2.5, atol=1e-12)


def test_node_reproduction_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        fseg = random_fseg(rng)
        for m in INTERPOLATING:
            got = evaluate(fseg.t, fseg.X, m, fseg.t)
            for j, rows, _, values in dimension_nodes(fseg.t, fseg.X):
                np.testing.assert_allclose(got[rows, j], values, atol=1e-9)


def test_out_of_range_tau_rejected():
    for m in INTERPOLATING:
        with pytest.raises(ForwardError, match="outside"):
            at(T3, X3, m, 2.5)
        with pytest.raises(ForwardError, match="outside"):
            at(T3, X3, m, [0.5, -0.1])


@pytest.mark.parametrize("t", [[0.0, 0.2, 0.1, 0.4], [0.0, 0.2, 0.2, 0.4], [0.4]])
def test_timings_that_do_not_increase_strictly_are_rejected(t):
    t = np.array(t)
    X = np.zeros((t.size, 2))
    X[1:-1] = 2.0
    for m in INTERPOLATING:
        with pytest.raises(ForwardError, match="strictly increasing"):
            evaluate(t, X, m, np.array([0.0]))
        with pytest.raises(ForwardError, match="u7: .*strictly increasing"):
            synthesize_targets("u7", t, X, m, 100.0)


@pytest.mark.parametrize("timings, rows", [(4, 3), (3, 4)])
def test_targets_need_one_row_per_timing(timings, rows):
    # A row count off by one used to raise a bare IndexError from the
    # segment lookup.
    t = np.linspace(0.0, 0.3, timings)
    X = np.ones((rows, 2))
    for m in INTERPOLATING:
        with pytest.raises(ForwardError, match=f"{rows} target rows for {timings} timings"):
            evaluate(t, X, m, np.array([0.1]))
        with pytest.raises(ForwardError, match=f"u: {rows} target rows for {timings} timings"):
            synthesize_targets("u", t, X, m, 100.0)


def test_first_timing_after_the_first_frame_is_rejected():
    # The frame grid starts at 1/frame_rate; a later first timing used to
    # extrapolate the first segment.
    t = np.array([0.05, 0.2, 0.4])
    X = np.array([[0.0], [1.0], [0.0]])
    with pytest.raises(ForwardError, match="u: evaluation time outside"):
        synthesize_targets("u", t, X, L, 100.0)


def test_non_finite_target_rejected():
    X = X3.copy()
    X[1, 0] = np.inf
    for m in INTERPOLATING:
        with pytest.raises(ForwardError, match="non-finite node value"):
            at(T3, X, m, 0.5)


def test_piecewise_constant_is_not_evaluated_at_timings():
    with pytest.raises(ForwardError, match="intervals"):
        at(T3, X3, PC, 0.5)
    with pytest.raises(ForwardError, match="intervals"):
        synthesize_targets("u", T3, X3, PC, 100.0)


# ---------------------------------------------------------------------------
# second derivative
# ---------------------------------------------------------------------------


def test_hermite_second_derivative_closed_form():
    for tau in (0.0, 0.25, 0.5, 0.9):
        assert at(T3, X3, H, tau, 2)[0] == pytest.approx(6 - 12 * tau)


def test_hermite_second_derivative_takes_the_right_hand_segment_at_a_knot():
    # Left of t = 1 the curvature tends to -6; the shorter segment to the
    # right starts at -24.
    t = np.array([0.0, 1.0, 1.5])
    X = np.array([[0.0], [1.0], [0.0]])
    assert at(t, X, H, 1.0, 2)[0] == pytest.approx(-6.0 / 0.25)


def test_natural_second_derivative_zero_at_ends():
    assert at(T3, X3, N, 0.0, 2)[0] == 0.0
    assert at(T3, X3, N, 2.0, 2)[0] == 0.0
    assert at(T3, X3, N, 1.0, 2)[0] == pytest.approx(-3.0)


def test_hermite_second_derivative_zero_between_equal_targets():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    X = np.array([[0.0], [4.0], [4.0], [4.0], [0.0]])
    np.testing.assert_allclose(at(t, X, H, np.linspace(1, 2.9, 9), 2), 0.0, atol=1e-12)


def test_second_derivative_rejects_non_cubic():
    for m, d in ((L, 2), (PC, 2), (H, 1), (N, 3)):
        with pytest.raises(ForwardError):
            at(T3, X3, m, 0.5, d)


def test_second_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-4
    for _ in range(10):
        fseg = random_fseg(rng, k=4, d=2)
        for j, _, times, _ in dimension_nodes(fseg.t, fseg.X):
            taus = rng.uniform(h, times[-1] - h, size=5)
            # keep away from Hermite knots where curvature jumps
            for m in (H, N):
                f, f2 = column(fseg.t, fseg.X, j, m), column(fseg.t, fseg.X, j, m, 2)
                for tau in taus:
                    if m is H and np.min(np.abs(times - tau)) < 10 * h:
                        continue
                    fd = (f(tau + h) - 2 * f(tau) + f(tau - h)) / h**2
                    assert f2(tau) == pytest.approx(fd, abs=1e-3, rel=1e-3)


def test_hermite_zero_velocity_at_nodes():
    # One-sided stencils: the Hermite spline is C1 only, so a stencil that
    # straddles a knot picks up the curvature jump at O(h).
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(10):
        fseg = random_fseg(rng, k=5, d=2, dur_range=(0.2, 0.5))
        for j, _, times, values in dimension_nodes(fseg.t, fseg.X):
            f = column(fseg.t, fseg.X, j, H)
            scale = max(1.0, np.max(np.abs(values)))
            for i, tk in enumerate(times):
                sides = [1] if i == 0 else [-1] if i == times.size - 1 else [-1, 1]
                for side in sides:
                    vel = one_sided_derivative(f, tk, h, side)
                    assert abs(vel) / scale < 1e-6


def test_natural_c2_continuity_at_knots():
    # Jumps of value/velocity/acceleration across each knot, measured with
    # one-sided stencils meeting at the knot.
    rng = np.random.default_rng(5)
    for _ in range(10):
        fseg = random_fseg(rng, k=5, d=2, dur_range=(0.2, 0.5))
        for j, _, times, _ in dimension_nodes(fseg.t, fseg.X):
            f = column(fseg.t, fseg.X, j, N)
            for tk in times[1:-1]:
                pos = abs(f(tk - 1e-9) - f(tk + 1e-9))
                vel = abs(one_sided_derivative(f, tk, 1e-5, -1)
                          - one_sided_derivative(f, tk, 1e-5, +1))
                acc = abs(one_sided_derivative(f, tk, 5e-4, -1, order=2)
                          - one_sided_derivative(f, tk, 5e-4, +1, order=2))
                assert pos < 1e-6
                assert vel < 1e-6
                assert acc < 1e-6


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

TABLE = get_table("gp_unknown")


def _fseg_of(*phones):
    return build_featural(
        PhoneSegmentation("u", tuple(Phone(*p) for p in phones)), TABLE
    )


def test_synthesize_frame_count():
    fseg = _fseg_of(("aa", 0.0, 0.4))
    traj = synthesize(fseg, L, 100.0)
    assert traj.frames.shape == (40, 26)
    times = frame_times(fseg.duration, traj.frame_rate)
    assert times[0] == pytest.approx(0.01)
    assert times[-1] == pytest.approx(0.4)


def test_frame_count_floor():
    assert frame_count(0.4, 100.0) == 40
    assert frame_count(0.289, 100.0) == 28
    assert frame_count(0.29, 100.0) == 29


def test_linear_synthesis_hits_targets_at_grid():
    rng = np.random.default_rng(6)
    fseg = random_fseg(rng, k=4, d=3, unknown_prob=0.0)
    traj = synthesize(fseg, L, 100.0)
    for k in range(1, fseg.X.shape[0] - 1):
        frame = int(round(fseg.t[k] * 100)) - 1
        frame = min(max(frame, 0), traj.frames.shape[0] - 1)
        # off by at most one frame-quantization of t_k
        slopes = np.nanmax(np.abs(np.diff(fseg.X[:, :], axis=0))) / np.min(np.diff(fseg.t))
        tol = 2.0 * slopes / 100.0
        spec = fseg.specified[k]
        assert np.all(np.abs(traj.frames[frame][spec] - fseg.X[k][spec]) <= tol + 1e-9)


def test_piecewise_constant_requires_fully_specified():
    with pytest.raises(ForwardError, match="fully specified"):
        synthesize(_fseg_of(("p", 0.0, 0.4)), PC, 100.0)  # gp_unknown has unknowns


def test_piecewise_constant_holds_phone_intervals():
    binary = get_table("gp_binary")
    seg = PhoneSegmentation("u", (Phone("aa", 0.0, 0.2), Phone("p", 0.2, 0.5)))
    fseg = build_featural(seg, binary)
    traj = synthesize(fseg, PC, 100.0)
    aa, p = binary.matrix[binary.row("aa")], binary.matrix[binary.row("p")]
    np.testing.assert_array_equal(traj.frames[0], aa)
    np.testing.assert_array_equal(traj.frames[18], aa)
    np.testing.assert_array_equal(traj.frames[20], p)
    np.testing.assert_array_equal(traj.frames[-1], p)


def test_synthesis_is_finite_for_random_masks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        fseg = random_fseg(rng, unknown_prob=0.4)
        for m in INTERPOLATING:
            traj = synthesize(fseg, m, 100.0)
            assert np.all(np.isfinite(traj.frames))
            assert traj.frames.shape[0] == frame_count(fseg.duration, 100.0)


def test_each_column_evaluates_as_if_alone():
    # One stacked table and one moment solve for all dimensions give each
    # column what evaluating it alone gives.
    rng = np.random.default_rng(10)
    for _ in range(20):
        fseg = random_fseg(rng, k=int(rng.integers(1, 12)), d=int(rng.integers(1, 12)),
                           unknown_prob=0.4)
        taus = frame_times(fseg.duration, 100.0)
        for m in INTERPOLATING:
            frames = synthesize(fseg, m, 100.0).frames
            for j in range(fseg.X.shape[1]):
                np.testing.assert_allclose(frames[:, j], at(fseg.t, fseg.X[:, [j]], m, taus),
                                           rtol=0, atol=1e-12)


def test_evaluate_is_linear_in_fully_specified_node_values():
    rng = np.random.default_rng(13)
    for _ in range(20):
        fseg = random_fseg(rng, k=int(rng.integers(1, 12)), d=int(rng.integers(1, 9)),
                           unknown_prob=0.0)
        T = rng.normal(size=(fseg.X.shape[1], int(rng.integers(1, 9))))
        taus = np.concatenate((fseg.t, rng.uniform(0.0, fseg.duration, size=30)))
        for m in INTERPOLATING:
            for derivative in (0, 2) if m.is_cubic else (0,):
                a = evaluate(fseg.t, fseg.X @ T, m, taus, derivative)
                b = evaluate(fseg.t, fseg.X, m, taus, derivative) @ T
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))


def test_synthesize_targets_matches_synthesize_at_midpoints():
    rng = np.random.default_rng(8)
    fseg = random_fseg(rng, k=4, d=3)
    for m in INTERPOLATING:
        a = synthesize(fseg, m, 100.0)
        b = synthesize_targets("u", fseg.t, fseg.X, m, 100.0)
        np.testing.assert_allclose(a.frames, b.frames, atol=1e-12)


def _reference(method, times, values):
    if method is L:
        return lambda x: np.interp(x, times, values)
    if method is H:
        return CubicHermiteSpline(times, values, np.zeros_like(values))
    return CubicSpline(times, values, bc_type="natural")


def test_synthesis_matches_numpy_and_scipy_interpolants():
    # An oracle that shares no code with the segment table that synthesis
    # and evaluate read.  Column 0 keeps only its boundary nodes, column 1
    # has exactly three nodes; every fourth case has one target; odd cases
    # move the timings off the interval midpoints.  The cubics' second
    # derivatives are checked against scipy's as well.
    rng = np.random.default_rng(11)
    for case in range(40):
        k = 1 if case % 4 == 0 else int(rng.integers(2, 12))
        fseg = random_fseg(rng, k=k, d=int(rng.integers(2, 9)), unknown_prob=0.4)
        X = fseg.X.copy()
        X[1:-1, :2] = np.nan
        X[int(rng.integers(1, k + 1)), 1] = rng.normal()
        t = fseg.t.copy()
        if case % 2:
            gap = np.minimum(np.diff(t)[:-1], np.diff(t)[1:])
            t[1:-1] += rng.uniform(-0.4, 0.4, size=k) * gap
        taus = frame_times(t[-1], 100.0)
        for m in INTERPOLATING:
            if case % 2:
                frames = synthesize_targets("u", t, X, m, 100.0).frames
            else:
                frames = synthesize(featural("u", X, fseg.Y, t), m, 100.0).frames
            curvature = evaluate(t, X, m, taus, 2) if m.is_cubic else None
            for j in range(X.shape[1]):
                rows = np.flatnonzero(~np.isnan(X[:, j]))
                ref = _reference(m, t[rows], X[rows, j])
                np.testing.assert_allclose(frames[:, j], ref(taus), rtol=0, atol=1e-9)
                if m.is_cubic:
                    ref2 = ref(taus, 2)
                    np.testing.assert_allclose(curvature[:, j], ref2, rtol=1e-9,
                                               atol=1e-9 * max(1.0, np.max(np.abs(ref2))))


def test_one_banded_solve_per_evaluation_and_per_utterance(monkeypatch):
    solves = []
    real = forward.solve_tridiagonal
    monkeypatch.setattr(forward, "solve_tridiagonal",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    fseg = random_fseg(np.random.default_rng(12), k=10, d=12, unknown_prob=0.4)
    assert np.unique(fseg.specified, axis=1).shape[1] > 1  # several node masks
    taus = np.linspace(0.0, fseg.duration, 50)
    for derivative in (0, 2):
        evaluate(fseg.t, fseg.X, N, taus, derivative)
        assert len(solves) == 1
        solves.clear()
    synthesize(fseg, N, 100.0)
    assert len(solves) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 50, 2000])
def test_tridiagonal_solve_equals_solve_banded(n):
    rng = np.random.default_rng(n)
    ab, b = rng.normal(size=(3, n)), rng.normal(size=n)
    ab[1] += 4.0 * np.sign(ab[1])  # diagonally dominant
    ab0, b0 = ab.copy(), b.copy()
    x = forward.solve_tridiagonal(ab, b)
    assert np.array_equal(x, solve_banded((1, 1), ab, b, check_finite=False))
    assert x.shape == (n,)
    assert np.array_equal(ab, ab0) and np.array_equal(b, b0)


def test_tridiagonal_solve_rejects_a_singular_matrix():
    ab = np.zeros((3, 4))
    ab[1] = [1.0, 0.0, 1.0, 1.0]
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        forward.solve_tridiagonal(ab, np.ones(4))


def test_moments_without_the_compiled_extension_fall_back_to_solve_banded(monkeypatch):
    """Where no extension file is found, ``dgtsv`` comes from the module that
    ``solve_banded`` imports, and the moments come out the same bits."""
    rng = np.random.default_rng(14)
    h, dv = rng.uniform(0.05, 0.3, size=39), rng.normal(size=39)
    ends = [0, 17, 18, 39]  # two dimensions of 18 and 22 nodes
    expected = forward.moment_system(h, dv, ends)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    flapack = forward._scipy_extension("linalg", "_flapack")
    assert flapack is sys.modules["scipy.linalg._flapack"]
    monkeypatch.setattr(forward, "_lapack", lambda: flapack)
    assert np.array_equal(forward.moment_system(h, dv, ends), expected)
    ab = np.zeros((3, 40))  # a diagonally dominant tridiagonal system
    ab[0, 1:] = ab[2, :-1] = rng.uniform(0.05, 0.3, size=39)
    ab[1] = 1.0 + rng.uniform(0.0, 1.0, size=40)
    b = rng.normal(size=40)
    assert np.array_equal(forward.solve_tridiagonal(ab, b),
                          solve_banded((1, 1), ab, b, check_finite=False))


def test_lapack_is_loaded_at_the_first_natural_cubic_solve(tmp_path):
    """Linear and Hermite runs never load scipy's 2.6 MB ``_flapack``; a
    natural-cubic synthesis loads it once and solves as ``solve_banded``."""
    code = f"""
import sys
import numpy as np
import phonotraj.cli as cli
from conftest import random_fseg, synthetic_config
from phonotraj import forward
root = cli.generate_synthetic({str(tmp_path)!r}, speakers=1, utterances=14, dim=4, seed=1)
for method in ("linear", "cubic_hermite"):
    cli.run_experiment(synthetic_config(root, utterances=14, speakers=1, method=method,
                                        out_dir={str(tmp_path / "out")!r} + method))
assert "scipy.linalg._flapack" not in sys.modules
fseg = random_fseg(np.random.default_rng(3), k=6, d=5, unknown_prob=0.4)
for _ in range(2):
    forward.synthesize(fseg, forward.InterpMethod.NATURAL_CUBIC)
assert "scipy.linalg._flapack" in sys.modules
assert forward._lapack.cache_info().misses == 1
from scipy.linalg import solve_banded
ab, b = np.random.default_rng(4).normal(size=(3, 30)), np.arange(30.0)
ab[1] += 4.0 * np.sign(ab[1])
assert np.array_equal(forward.solve_tridiagonal(ab, b),
                      solve_banded((1, 1), ab, b, check_finite=False))
"""
    path = os.pathsep.join([str(Path(forward.__file__).resolve().parents[1]),
                            str(Path(__file__).parent)])
    subprocess.run([sys.executable, "-c", code], check=True, cwd=tmp_path,
                   env={**os.environ, "PYTHONPATH": path})


def load_binary(path: Path) -> np.ndarray:
    """The frames of an FTRJ file, read as README's format section lays it
    out: magic ``FTRJ``, little-endian uint32 ``n`` and ``d``, then ``n*d``
    row-major float64 values."""
    raw = path.read_bytes()
    assert raw[:4] == b"FTRJ"
    n, d = struct.unpack("<II", raw[4:12])
    assert len(raw) == 12 + 8 * n * d
    return np.frombuffer(raw[12:], dtype="<f8").reshape(n, d)


def test_trajectory_binary_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    fseg = random_fseg(rng, k=3, d=4)
    traj = synthesize(fseg, L, 100.0)
    path = tmp_path / "u.traj"
    traj.save_binary(path)
    np.testing.assert_array_equal(load_binary(path), traj.frames)


def test_trajectory_csv(tmp_path):
    traj = synthesize(_fseg_of(("aa", 0.0, 0.1)), L, 100.0)
    path = tmp_path / "u.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("frame,")
    assert len(lines) == 1 + traj.frames.shape[0]
