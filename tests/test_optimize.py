import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from conftest import column, dimension_nodes, featural, gradient_check, random_fseg
from phonotraj import forward, optimize
from phonotraj.forward import InterpMethod, evaluate
from phonotraj.optimize import (REL_TOL, OptimConfig, OptimizeError, attainment_term,
                                grid_configs, gradients, objective, objective_terms,
                                optimize_targets, project_timings)

H, N = InterpMethod.CUBIC_HERMITE, InterpMethod.NATURAL_CUBIC


def three_node_fseg(middle=1.0):
    """Targets (0,0), (1,middle), (2,0) in one dimension."""
    X = np.array([[0.0], [middle], [0.0]])
    Y = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    t = Y.mean(axis=1)
    return featural("u", X, Y, t)


def quad_smoothness(fseg, method, t=None, X=None):
    """Independent curvature-energy oracle: per-segment adaptive quadrature."""
    t = fseg.t if t is None else t
    X = fseg.X if X is None else X
    total = 0.0
    for j, _, times, _ in dimension_nodes(t, X):
        curvature = column(t, X, j, method, 2)
        for a, b in zip(times[:-1], times[1:]):
            total += quad(lambda x: curvature(x) ** 2, a, b, limit=200)[0]
    return total


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_hermite_unit_step_smoothness_is_12():
    s = optimize._curvature_energy(H, np.array([0.0, 1.0]), np.array([0.0, 1.0]), [0, -1])
    assert s == pytest.approx(12.0, abs=1e-12)


def test_straight_line_nodes_have_zero_smoothness():
    times = np.array([0.0, 0.5, 1.5, 2.0])
    values = 3.0 * times + 1.0
    assert optimize._curvature_energy(N, times, values, [0, -1]) == pytest.approx(0.0, abs=1e-12)


def test_smoothness_invariant_under_value_shift():
    rng = np.random.default_rng(0)
    for m in (H, N):
        for _ in range(20):
            k = int(rng.integers(3, 9))
            times = np.sort(rng.uniform(0, 2, size=k))
            while np.min(np.diff(times)) < 1e-2:
                times = np.sort(rng.uniform(0, 2, size=k))
            values = rng.normal(size=k)
            a = optimize._curvature_energy(m, times, values, [0, -1])
            b = optimize._curvature_energy(m, times, values + 17.3, [0, -1])
            assert a == pytest.approx(b, abs=1e-12 * max(1.0, a))


def test_closed_form_matches_quadrature():
    rng = np.random.default_rng(1)
    for m in (H, N):
        for _ in range(10):
            fseg = random_fseg(rng, k=4, d=2)
            smooth, _ = objective_terms(fseg.t, fseg.X, fseg.specified,
                                        fseg.X, 0.0, m)
            oracle = quad_smoothness(fseg, m)
            assert smooth == pytest.approx(oracle, rel=1e-6)


def scipy_smoothness(t, X, method):
    """Curvature energy of scipy's own splines, independent of phonotraj:
    g'' = 6 a (tau - t_i) + 2 b from each segment's coefficients a, b of
    (tau - t_i)^3 and (tau - t_i)^2, integrated over the segment."""
    total = 0.0
    last = X.shape[0] - 1
    for j in range(X.shape[1]):
        rows = np.flatnonzero(~np.isnan(X[:, j]) | np.isin(np.arange(last + 1), (0, last)))
        x = t[rows]
        y = np.where((rows == 0) | (rows == last), 0.0, X[rows, j])
        spl = (CubicSpline(x, y, bc_type="natural") if method is N
               else CubicHermiteSpline(x, y, np.zeros_like(y)))
        a, b, h = spl.c[0], spl.c[1], np.diff(x)
        total += np.sum(12.0 * a * a * h**3 + 12.0 * a * b * h**2 + 4.0 * b * b * h)
    return total


def test_objective_matches_scipy_spline_energy():
    rng = np.random.default_rng(12)
    for case in range(40):
        k = int(rng.integers(2, 12))
        fseg = random_fseg(rng, k=k, d=int(rng.integers(2, 9)), unknown_prob=0.4)
        X = fseg.X.copy()
        X[1:-1, :2] = np.nan  # dimension 0 has only the boundary nodes
        X[int(rng.integers(1, k + 1)), 1] = rng.normal()  # dimension 1 has three
        t = fseg.t.copy()
        gap = np.minimum(np.diff(t)[:-1], np.diff(t)[1:])
        t[1:-1] += rng.uniform(-0.4, 0.4, size=k) * gap
        for m in (H, N):
            smooth, _ = objective_terms(t, X, ~np.isnan(X), X, 0.0, m)
            assert smooth == pytest.approx(scipy_smoothness(t, X, m), rel=1e-9)


def test_one_banded_solve_per_objective_and_per_gradient(monkeypatch):
    # the gradient's adjoint is M / 3 in closed form: its only solve is the moments'
    solves, lapack = [], forward._lapack()
    counting = SimpleNamespace(dgtsv=lambda *a: solves.append(1) or lapack.dgtsv(*a))
    monkeypatch.setattr(forward, "_lapack", lambda: counting)
    fseg = random_fseg(np.random.default_rng(13), k=10, d=12, unknown_prob=0.4)
    assert np.unique(fseg.specified, axis=1).shape[1] > 1  # several node masks
    args = (fseg.t, fseg.X, fseg.specified, fseg.X, 1e3, N)
    objective(*args)
    assert len(solves) == 1
    solves.clear()
    gradients(*args)
    assert len(solves) == 1


def test_smoothness_rejects_non_cubic():
    with pytest.raises(OptimizeError):
        optimize._curvature_energy(InterpMethod.LINEAR, np.array([0.0, 1.0]),
                                   np.array([0.0, 1.0]), [0, -1])


def test_attainment_identity_with_interpolation_constraint():
    # The attainment term written with g(t'_k) must equal the direct squared
    # offset because g interpolates its own targets.
    rng = np.random.default_rng(2)
    for m in (H, N):
        for _ in range(10):
            fseg = random_fseg(rng, k=5, d=3)
            Xp = fseg.X + rng.normal(scale=0.1, size=fseg.X.shape)
            Xp[0] = Xp[-1] = 0.0
            tp = fseg.t.copy()
            tp[1:-1] += rng.uniform(-0.01, 0.01, size=tp.size - 2)
            direct = attainment_term(Xp, fseg.X, fseg.specified)
            g = evaluate(tp, Xp, m, tp[1:-1])
            inner = fseg.specified[1:-1]
            via_g = float(np.sum((g[inner] - fseg.X[1:-1][inner]) ** 2))
            assert direct == pytest.approx(via_g, abs=1e-12 * max(1.0, direct))


def test_timing_only_optimization_has_zero_attainment():
    rng = np.random.default_rng(3)
    fseg = random_fseg(rng, k=5, d=3)
    cfg = OptimConfig(optimize_timing=True, timing_lr=1e-5, lam=1e4, max_steps=30)
    out = optimize_targets(fseg, N, cfg)
    np.testing.assert_array_equal(
        np.where(fseg.specified, out.X, 0.0), np.where(fseg.specified, fseg.X, 0.0)
    )
    assert attainment_term(out.X, fseg.X, fseg.specified) == 0.0


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def test_gradient_check_on_random_instances():
    rng = np.random.default_rng(4)
    for m in (H, N):
        for lam in (0.0, 1e3):
            for _ in range(5):
                fseg = random_fseg(rng, k=5, d=3)
                err = gradient_check(fseg, m, OptimConfig(lam=lam), 1e-5)
                assert err < 1e-4


def test_gradient_check_flat_objective():
    X = np.zeros((5, 2))
    Y = np.zeros((5, 2))
    bounds = np.array([0.0, 0.2, 0.5, 0.8])
    Y[1:-1, 0] = bounds[:-1]
    Y[1:-1, 1] = bounds[1:]
    Y[-1] = bounds[-1]
    fseg = featural("u", X, Y, Y.mean(axis=1))
    gX, gt = gradients(fseg.t, fseg.X, fseg.specified, fseg.X, 0.0, N)
    np.testing.assert_array_equal(gX, 0.0)
    np.testing.assert_array_equal(gt, 0.0)
    assert gradient_check(fseg, N, OptimConfig(), 1e-5) < 1e-7


def test_pattern_blocks_equal_per_dimension_sums():
    # One column at a time is one node pattern at a time: the batched
    # objective and gradients are the sums of the per-dimension ones, up to
    # the order in which the timing terms and smoothness are summed.
    rng = np.random.default_rng(11)
    for m in (H, N):
        for _ in range(10):
            fseg = random_fseg(rng, k=8, d=12, unknown_prob=0.4)
            X = fseg.X + rng.normal(scale=0.1, size=fseg.X.shape)
            args = (fseg.specified, fseg.X, 1e2, m)
            gX, gt = gradients(fseg.t, X, *args)
            cols = [gradients(fseg.t, X[:, [j]], fseg.specified[:, [j]], fseg.X[:, [j]],
                              1e2, m) for j in range(X.shape[1])]
            np.testing.assert_array_equal(gX, np.hstack([c[0] for c in cols]))
            np.testing.assert_allclose(gt, sum(c[1] for c in cols), rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(gt)))
            smooth, _ = objective_terms(fseg.t, X, *args)
            per_dim = sum(objective_terms(fseg.t, X[:, [j]], fseg.specified[:, [j]],
                                          fseg.X[:, [j]], 1e2, m)[0]
                          for j in range(X.shape[1]))
            assert smooth == pytest.approx(per_dim, rel=1e-12)


def test_frozen_coordinates_report_zero_gradient():
    rng = np.random.default_rng(5)
    fseg = random_fseg(rng, k=4, d=3)
    for m in (H, N):
        gX, gt = gradients(fseg.t, fseg.X, fseg.specified, fseg.X, 1e3, m)
        np.testing.assert_array_equal(gX[0], 0.0)
        np.testing.assert_array_equal(gX[-1], 0.0)
        assert gt[0] == 0.0 and gt[-1] == 0.0
        assert np.all(gX[np.isnan(fseg.X)] == 0.0)


def test_attainment_gradient_away_from_initialization():
    rng = np.random.default_rng(6)
    fseg = random_fseg(rng, k=3, d=2, unknown_prob=0.0)
    Xp = fseg.X + 0.3
    Xp[0] = Xp[-1] = 0.0
    lam = 1e2
    gX, _ = gradients(fseg.t, Xp, fseg.specified, fseg.X, lam, H)
    eps = 1e-6
    for (k, j) in [(1, 0), (2, 1)]:
        xp, xm = Xp.copy(), Xp.copy()
        xp[k, j] += eps
        xm[k, j] -= eps
        fd = (objective(fseg.t, xp, fseg.specified, fseg.X, lam, H)
              - objective(fseg.t, xm, fseg.specified, fseg.X, lam, H)) / (2 * eps)
        assert gX[k, j] == pytest.approx(fd, rel=1e-5, abs=1e-6)


# ---------------------------------------------------------------------------
# timing projection
# ---------------------------------------------------------------------------


def test_config_rejects_non_finite_values():
    for bad in ({"lam": np.inf}, {"timing_lr": np.nan}, {"position_lr": np.inf},
                {"min_gap": np.inf}, {"lam": 10**400}):
        with pytest.raises(OptimizeError, match="finite"):
            OptimConfig(**bad)


@pytest.mark.parametrize("bad, message", [
    ({"max_steps": 2.5}, "max_steps must be an integer, got 2.5"),
    ({"max_steps": "5"}, "max_steps must be an integer, got '5'"),
    ({"max_steps": -1}, "max_steps must be non-negative, got -1"),
    ({"optimize_timing": "no"}, "optimize_timing must be true or false, got 'no'"),
    ({"optimize_position": 1}, "optimize_position must be true or false, got 1"),
    ({"lam": "1e3"}, "lam = '1e3': must be a number"),
])
def test_config_rejects_mistyped_settings(bad, message):
    # max_steps=2.5 used to run 3 steps, max_steps="5" raised TypeError inside
    # the loop and optimize_timing="no" optimized the timings.
    with pytest.raises(OptimizeError, match=re.escape(message)):
        OptimConfig(**bad)


def test_projection_repairs_ordering():
    t = np.array([0.0, 0.30, 0.10, 0.20, 0.5])
    out = project_timings(t, 0.001)
    assert np.all(np.diff(out) >= 0.001 - 1e-15)
    assert out[0] == 0.0 and out[-1] == 0.5


def test_projection_preserves_feasible_input():
    t = np.array([0.0, 0.1, 0.2, 0.5])
    np.testing.assert_array_equal(project_timings(t, 0.001), t)


def test_projection_infeasible_span_rejected():
    with pytest.raises(OptimizeError):
        project_timings(np.array([0.0, 0.5, 1.0]), 0.6)


def test_projection_random_inputs_stay_ordered():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        t = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, size=n - 2)), [1.0]])
        t[1:-1] += rng.normal(scale=0.05, size=n - 2)
        out = project_timings(t, 1e-3)
        assert np.all(np.diff(out) >= 1e-3 - 1e-12)
        assert out[0] == 0.0 and out[-1] == 1.0


# ---------------------------------------------------------------------------
# optimization loop
# ---------------------------------------------------------------------------


def test_disabled_optimization_returns_input():
    rng = np.random.default_rng(8)
    fseg = random_fseg(rng, k=4, d=2)
    out = optimize_targets(fseg, N, OptimConfig())
    np.testing.assert_array_equal(
        np.where(fseg.specified, out.X, 0.0), np.where(fseg.specified, fseg.X, 0.0)
    )
    np.testing.assert_array_equal(out.t, fseg.t)
    smooth, _ = objective_terms(fseg.t, fseg.X, fseg.specified, fseg.X, 0.0, N)
    assert out.objective == pytest.approx(smooth)
    assert out.steps == 0


def _golden_section(f, lo, hi, tol=1e-10):
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    while abs(b - a) > tol:
        if f(c) < f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


def test_position_descent_matches_golden_section_oracle():
    fseg = three_node_fseg(1.0)
    cfg = OptimConfig(optimize_position=True, position_lr=1e-2, lam=0.0,
                      max_steps=100)
    out = optimize_targets(fseg, N, cfg)

    def f(v):
        return objective(fseg.t, np.array([[0.0], [v], [0.0]]),
                         fseg.specified, fseg.X, 0.0, N)

    v_star = _golden_section(f, -2.0, 2.0)
    assert abs(out.X[1, 0]) < 1.0
    assert out.objective < f(1.0)
    assert abs(out.X[1, 0] - v_star) < 1e-3


def test_objective_never_increases_at_return():
    rng = np.random.default_rng(9)
    for m in (H, N):
        for _ in range(20):
            fseg = random_fseg(rng, k=5, d=3)
            cfg = OptimConfig(optimize_timing=True, optimize_position=True,
                              timing_lr=1e-5, position_lr=1e-2,
                              lam=float(rng.choice([0.0, 1e3, 1e5])), max_steps=40)
            init, _ = objective_terms(fseg.t, fseg.X, fseg.specified, fseg.X,
                                      cfg.lam, m)
            out = optimize_targets(fseg, m, cfg)
            assert out.objective <= init + 1e-12
            assert np.all(np.diff(out.t) > 0)
            assert out.t[0] == fseg.t[0] and out.t[-1] == fseg.t[-1]
            np.testing.assert_array_equal(out.X[0], fseg.X[0])
            np.testing.assert_array_equal(out.X[-1], fseg.X[-1])


@pytest.mark.parametrize("rate", [1e150, 1e308])
def test_overshooting_position_rate_keeps_the_input(rate):
    # The first step overflows the objective (1e150) or a position (1e308);
    # it is not kept, so the input comes back and nothing is raised.
    fseg = three_node_fseg(1.0)
    for m in (H, N):
        out = optimize_targets(fseg, m, OptimConfig(optimize_position=True, position_lr=rate,
                                                    max_steps=50))
        assert out.steps == 0
        np.testing.assert_array_equal(out.X, fseg.X)
        np.testing.assert_array_equal(out.t, fseg.t)
        assert out.objective == objective(fseg.t, fseg.X, fseg.specified, fseg.X, 0.0, m)


def _descending_prefix(fseg, m, cfg):
    """Objectives of plain fixed-rate steps from the input, up to the first
    that does not lower the objective by the relative margin REL_TOL."""
    X, t = fseg.X, fseg.t
    objs = [objective(t, X, fseg.specified, fseg.X, cfg.lam, m)]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(objs) <= cfg.max_steps:
            gX, gt = gradients(t, X, fseg.specified, fseg.X, cfg.lam, m)
            X = X - cfg.position_lr * gX
            t = t - cfg.timing_lr * gt
            if not np.all(np.isfinite(t)):
                break
            t = project_timings(t, cfg.min_gap)
            new = objective(t, X, fseg.specified, fseg.X, cfg.lam, m)
            if not new < objs[-1] * (1 - REL_TOL):
                break
            objs.append(new)
    return objs


def test_steps_count_the_strictly_descending_iterates():
    rng = np.random.default_rng(12)
    cases = [(random_fseg(rng, k=5, d=3),
              OptimConfig(optimize_timing=True, optimize_position=True, timing_lr=1e-8,
                          position_lr=lr, lam=1e3, max_steps=30))
             for lr in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)]
    # converges until a step lowers the objective by less than REL_TOL
    cases.append((three_node_fseg(1.0),
                  OptimConfig(optimize_position=True, position_lr=1e-2, lam=1.0, max_steps=200)))
    seen = set()
    for m in (H, N):
        for fseg, cfg in cases:
            objs = _descending_prefix(fseg, m, cfg)
            out = optimize_targets(fseg, m, cfg)
            assert out.steps == len(objs) - 1
            assert out.objective == objs[-1]
            seen.add("none" if out.steps == 0 else "all" if out.steps == cfg.max_steps
                     else "some")
    assert seen == {"none", "some", "all"}


def test_non_cubic_method_rejected():
    rng = np.random.default_rng(10)
    fseg = random_fseg(rng)
    with pytest.raises(OptimizeError):
        optimize_targets(fseg, InterpMethod.LINEAR,
                         OptimConfig(optimize_position=True))


def test_optimized_targets_csv_marks_unknowns(tmp_path):
    rng = np.random.default_rng(11)
    fseg = random_fseg(rng, k=3, d=2, unknown_prob=0.6)
    out = optimize_targets(fseg, N, OptimConfig())
    path = tmp_path / "targets.csv"
    out.to_csv(path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "k,t,x0,x1"
    assert len(lines) == 1 + fseg.X.shape[0]
    if np.isnan(fseg.X).any():
        assert "NA" in text
    assert "nan" not in text


# ---------------------------------------------------------------------------
# hyper-parameter grid
# ---------------------------------------------------------------------------


BOTH_BLOCKS = OptimConfig(optimize_timing=True, optimize_position=True)


def test_replication_grid_has_90_points():
    grid = grid_configs(BOTH_BLOCKS)
    assert len(grid) == 90
    assert len({(c.timing_lr, c.position_lr, c.lam) for c in grid}) == 90
    assert {c.timing_lr for c in grid} == {1e-6, 5e-6, 1e-5, 5e-5, 1e-4}
    assert {c.position_lr for c in grid} == {1e-3, 1e-2, 1e-1}
    assert {c.lam for c in grid} == {0.0, 1e3, 1e4, 1e5, 1e6, 1e7}


def test_grid_order_breaks_ties_toward_small_lambda_and_rates():
    grid = grid_configs(BOTH_BLOCKS)
    assert grid[0].lam == 0.0
    assert grid[0].timing_lr == 1e-6
    assert grid[0].position_lr == 1e-3
    lams = [c.lam for c in grid]
    assert lams == sorted(lams)


def test_grid_restricted_by_flags():
    grid = grid_configs(OptimConfig(optimize_position=True))
    assert len(grid) == 18  # 6 lambdas x 3 position rates
    assert all(not c.optimize_timing for c in grid)


def test_grid_keeps_the_base_settings_and_the_disabled_blocks_rate():
    base = OptimConfig(timing_lr=3e-5, max_steps=7, optimize_position=True, min_gap=0.004)
    grid = grid_configs(base, {"lambdas": [1e3, 0.0], "position_lrs": [1e-1, 1e-3]})
    assert [(c.lam, c.position_lr) for c in grid] == [(0.0, 1e-3), (0.0, 1e-1),
                                                      (1e3, 1e-3), (1e3, 1e-1)]
    assert {(c.timing_lr, c.max_steps, c.min_gap, c.optimize_timing) for c in grid} == {
        (3e-5, 7, 0.004, False)}


@pytest.mark.parametrize("base, grid, message", [
    (OptimConfig(optimize_position=True), {"timing_lrs": [1e-4]},
     "grid axis timing_lrs would be ignored: optimize_timing is false"),
    (OptimConfig(), {"lambdas": [0.0]}, "grid axes ['lambdas'] would be ignored"),
    (OptimConfig(), None, "optimize_timing and optimize_position are both false"),
    (BOTH_BLOCKS, {"lambdas": [1e3, 1e3]}, "grid axis lambdas = [1000.0, 1000.0]: a value is repeated"),
    (BOTH_BLOCKS, {"lam": [0.0]}, "unknown grid axes ['lam']"),
    (BOTH_BLOCKS, {"position_lrs": [0.0]}, "grid axis position_lrs = [0.0]: position_lr = 0.0"),
])
def test_grid_rejects_axes_it_would_ignore_or_repeat(base, grid, message):
    with pytest.raises(OptimizeError, match=re.escape(message)):
        grid_configs(base, grid)
