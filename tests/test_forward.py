import importlib.machinery
import sys

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.linalg import solve_banded

from conftest import featural, one_sided_derivative, random_fseg
from phonotraj import forward
from phonotraj.alignment import Phone, PhoneSegmentation, build_featural
from phonotraj.forward import (
    DimensionNodes,
    ForwardError,
    InterpMethod,
    frame_count,
    frame_times,
    interpolate,
    load_binary,
    second_derivative,
    select_nodes,
    synthesize,
    synthesize_targets,
)
from phonotraj.phonology import get_table

L, H, N, PC = (InterpMethod.LINEAR, InterpMethod.CUBIC_HERMITE,
               InterpMethod.NATURAL_CUBIC, InterpMethod.PIECEWISE_CONSTANT)
INTERPOLATING = (L, H, N)


def nodes(times, values):
    times = np.asarray(times, dtype=float)
    return DimensionNodes(0, times, np.asarray(values, dtype=float),
                          np.arange(times.size))


# ---------------------------------------------------------------------------
# node selection
# ---------------------------------------------------------------------------


def test_select_nodes_fully_specified():
    rng = np.random.default_rng(0)
    fseg = random_fseg(rng, k=4, d=3, unknown_prob=0.0)
    for dn in select_nodes(fseg):
        assert dn.times.size == 6
        np.testing.assert_array_equal(dn.rows, np.arange(6))


def test_select_nodes_drops_unknowns():
    rng = np.random.default_rng(1)
    fseg = random_fseg(rng, k=3, d=2, unknown_prob=0.0)
    X = fseg.X.copy()
    X[2, 0] = np.nan          # one unknown in dim 0
    X[1:-1, 1] = np.nan       # all intermediates unknown in dim 1
    fseg = featural("u", X, fseg.Y, fseg.t)
    dims = select_nodes(fseg)
    assert dims[0].times.size == 4   # K+1
    assert dims[1].times.size == 2   # boundary nodes only
    for m in INTERPOLATING:
        assert interpolate(dims[1], m, fseg.t[2]) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# interpolation values (frozen expectations)
# ---------------------------------------------------------------------------


def test_linear_midpoint():
    assert interpolate(nodes([0, 1], [0, 1]), L, 0.5) == pytest.approx(0.5)


def test_hermite_smoothstep_values():
    n2 = nodes([0, 1], [0, 1])
    assert interpolate(n2, H, 0.5) == pytest.approx(0.5)
    assert interpolate(n2, H, 0.25) == pytest.approx(0.15625, abs=1e-12)


def test_natural_cubic_three_node_value():
    # Interior moment solves to -3 for these nodes; value follows in closed form.
    n3 = nodes([0, 1, 2], [0, 1, 0])
    assert interpolate(n3, N, 0.5) == pytest.approx(0.6875, abs=1e-12)


def test_constant_nodes_reproduce_constant():
    n3 = nodes([0.0, 0.7, 1.3], [2.5, 2.5, 2.5])
    taus = np.linspace(0, 1.3, 27)
    for m in INTERPOLATING:
        np.testing.assert_allclose(interpolate(n3, m, taus), 2.5, atol=1e-12)


def test_two_node_natural_is_linear_hermite_is_not():
    n2 = nodes([0, 1], [0, 1])
    taus = np.linspace(0, 1, 11)
    np.testing.assert_allclose(interpolate(n2, N, taus), taus, atol=1e-12)
    assert interpolate(n2, H, 0.5) == pytest.approx(0.5)  # mean of endpoints
    assert interpolate(n2, H, 0.25) != pytest.approx(0.25)


def test_node_reproduction_random():
    rng = np.random.default_rng(2)
    for _ in range(30):
        fseg = random_fseg(rng)
        for dn in select_nodes(fseg):
            for m in INTERPOLATING:
                got = interpolate(dn, m, dn.times)
                np.testing.assert_allclose(got, dn.values, atol=1e-9)


def test_out_of_range_tau_rejected():
    n2 = nodes([0, 1], [0, 1])
    for m in INTERPOLATING:
        with pytest.raises(ForwardError):
            interpolate(n2, m, 1.5)
        with pytest.raises(ForwardError):
            interpolate(n2, m, -0.1)


# ---------------------------------------------------------------------------
# second derivative
# ---------------------------------------------------------------------------


def test_hermite_second_derivative_closed_form():
    n2 = nodes([0, 1], [0, 1])
    for tau in (0.0, 0.25, 0.5, 0.9):
        assert second_derivative(n2, H, tau) == pytest.approx(6 - 12 * tau)


def test_natural_second_derivative_zero_at_ends():
    n3 = nodes([0, 1, 2], [0, 1, 0])
    assert second_derivative(n3, N, 0.0) == 0.0
    assert second_derivative(n3, N, 2.0) == 0.0
    assert second_derivative(n3, N, 1.0) == pytest.approx(-3.0)


def test_second_derivative_constant_nodes_zero():
    n3 = nodes([0, 1, 2], [4, 4, 4])
    for m in (H, N):
        np.testing.assert_allclose(
            second_derivative(n3, m, np.linspace(0, 2, 9)), 0.0, atol=1e-12
        )


def test_second_derivative_rejects_non_cubic():
    n2 = nodes([0, 1], [0, 1])
    with pytest.raises(ForwardError):
        second_derivative(n2, L, 0.5)
    with pytest.raises(ForwardError):
        second_derivative(n2, PC, 0.5)


def test_second_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-4
    for _ in range(10):
        fseg = random_fseg(rng, k=4, d=2)
        for dn in select_nodes(fseg):
            taus = rng.uniform(h, dn.times[-1] - h, size=5)
            # keep away from Hermite knots where curvature jumps
            for m in (H, N):
                for tau in taus:
                    if m is H and np.min(np.abs(dn.times - tau)) < 10 * h:
                        continue
                    fd = (
                        interpolate(dn, m, tau + h)
                        - 2 * interpolate(dn, m, tau)
                        + interpolate(dn, m, tau - h)
                    ) / h**2
                    assert second_derivative(dn, m, tau) == pytest.approx(fd, abs=1e-3, rel=1e-3)


def test_hermite_zero_velocity_at_nodes():
    # One-sided stencils: the Hermite spline is C1 only, so a stencil that
    # straddles a knot picks up the curvature jump at O(h).
    rng = np.random.default_rng(4)
    h = 1e-5
    for _ in range(10):
        fseg = random_fseg(rng, k=5, d=2, dur_range=(0.2, 0.5))
        for dn in select_nodes(fseg):
            f = lambda x: interpolate(dn, H, x)
            scale = max(1.0, np.max(np.abs(dn.values)))
            for i, tk in enumerate(dn.times):
                sides = [1] if i == 0 else [-1] if i == dn.times.size - 1 else [-1, 1]
                for side in sides:
                    vel = one_sided_derivative(f, tk, h, side)
                    assert abs(vel) / scale < 1e-6


def test_natural_c2_continuity_at_knots():
    # Jumps of value/velocity/acceleration across each knot, measured with
    # one-sided stencils meeting at the knot.
    rng = np.random.default_rng(5)
    for _ in range(10):
        fseg = random_fseg(rng, k=5, d=2, dur_range=(0.2, 0.5))
        for dn in select_nodes(fseg):
            f = lambda x: interpolate(dn, N, x)
            for tk in dn.times[1:-1]:
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
    assert traj.times[0] == pytest.approx(0.01)
    assert traj.times[-1] == pytest.approx(0.4)


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


def test_piecewise_constant_through_interpolate():
    binary = get_table("gp_binary")
    seg = PhoneSegmentation("u", (Phone("aa", 0.0, 0.2), Phone("p", 0.2, 0.5)))
    fseg = build_featural(seg, binary)
    dn = select_nodes(fseg)[0]
    from phonotraj.phonology import encode_target

    aa0, p0 = encode_target(binary, "aa")[0], encode_target(binary, "p")[0]
    assert interpolate(dn, PC, 0.0) == aa0
    assert interpolate(dn, PC, 0.19) == aa0
    assert interpolate(dn, PC, 0.3) == p0
    assert interpolate(dn, PC, 0.5) == p0  # last interval closed at the end
    with pytest.raises(ForwardError):
        interpolate(dn, PC, 0.6)


def test_piecewise_constant_holds_phone_intervals():
    binary = get_table("gp_binary")
    seg = PhoneSegmentation("u", (Phone("aa", 0.0, 0.2), Phone("p", 0.2, 0.5)))
    fseg = build_featural(seg, binary)
    traj = synthesize(fseg, PC, 100.0)
    from phonotraj.phonology import encode_target

    np.testing.assert_array_equal(traj.frames[0], encode_target(binary, "aa"))
    np.testing.assert_array_equal(traj.frames[18], encode_target(binary, "aa"))
    np.testing.assert_array_equal(traj.frames[20], encode_target(binary, "p"))
    np.testing.assert_array_equal(traj.frames[-1], encode_target(binary, "p"))


def test_synthesis_is_finite_for_random_masks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        fseg = random_fseg(rng, unknown_prob=0.4)
        for m in INTERPOLATING:
            traj = synthesize(fseg, m, 100.0)
            assert np.all(np.isfinite(traj.frames))
            assert traj.frames.shape[0] == frame_count(fseg.duration, 100.0)


def test_synthesis_columns_equal_single_dimension_interpolants():
    # The batched node-pattern path and the per-dimension API agree.
    rng = np.random.default_rng(10)
    for _ in range(20):
        fseg = random_fseg(rng, k=int(rng.integers(1, 12)), d=int(rng.integers(1, 12)),
                           unknown_prob=0.4)
        taus = frame_times(fseg.duration, 100.0)
        dims = select_nodes(fseg)
        for m in INTERPOLATING:
            frames = synthesize(fseg, m, 100.0).frames
            for j, dn in enumerate(dims):
                np.testing.assert_allclose(frames[:, j], interpolate(dn, m, taus),
                                           rtol=0, atol=1e-12)


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
    # and interpolate both read.  Column 0 keeps only its boundary nodes,
    # column 1 has exactly three nodes; every fourth case has one target;
    # odd cases move the timings off the interval midpoints.
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
            for j in range(X.shape[1]):
                rows = np.flatnonzero(~np.isnan(X[:, j]))
                ref = _reference(m, t[rows], X[rows, j])(taus)
                np.testing.assert_allclose(frames[:, j], ref, rtol=0, atol=1e-9)


def test_one_banded_solve_per_node_set_and_per_utterance(monkeypatch):
    solves = []
    real = forward.solve_tridiagonal
    monkeypatch.setattr(forward, "solve_tridiagonal",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    dn = nodes([0.0, 0.3, 0.5, 0.9, 1.2], [0.0, 1.0, -0.5, 0.25, 0.0])
    for tau in np.linspace(0.0, 1.2, 50):
        interpolate(dn, N, tau)
        second_derivative(dn, N, tau)
    assert len(solves) == 1
    solves.clear()
    fseg = random_fseg(np.random.default_rng(12), k=10, d=12, unknown_prob=0.4)
    assert np.unique(fseg.specified, axis=1).shape[1] > 1  # several node masks
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
    monkeypatch.setattr(forward, "_flapack", flapack)
    assert np.array_equal(forward.moment_system(h, dv, ends), expected)
    ab = np.zeros((3, 40))  # a diagonally dominant tridiagonal system
    ab[0, 1:] = ab[2, :-1] = rng.uniform(0.05, 0.3, size=39)
    ab[1] = 1.0 + rng.uniform(0.0, 1.0, size=40)
    b = rng.normal(size=40)
    assert np.array_equal(forward.solve_tridiagonal(ab, b),
                          solve_banded((1, 1), ab, b, check_finite=False))


def test_trajectory_binary_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    fseg = random_fseg(rng, k=3, d=4)
    traj = synthesize(fseg, L, 100.0)
    path = tmp_path / "u.traj"
    traj.save_binary(path)
    back = load_binary(path, "u")
    np.testing.assert_array_equal(back.frames, traj.frames)
    raw = path.read_bytes()
    assert raw[:4] == b"FTRJ"


def test_trajectory_csv(tmp_path):
    traj = synthesize(_fseg_of(("aa", 0.0, 0.1)), L, 100.0)
    path = tmp_path / "u.csv"
    traj.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("frame,")
    assert len(lines) == 1 + traj.frames.shape[0]
