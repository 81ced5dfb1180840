import numpy as np
import pytest
from scipy.integrate import quad

from conftest import random_fseg
from phonotraj.alignment import FeaturalSegmentation
from phonotraj.forward import (DimensionNodes, InterpMethod, interpolate,
                               second_derivative)
from phonotraj.optimize import (DivergenceError, OptimConfig, OptimizeError,
                                attainment_term, grid_configs, gradient_check,
                                gradients, objective, objective_terms,
                                optimize_targets, project_timings,
                                smoothness_term)

H, N = InterpMethod.CUBIC_HERMITE, InterpMethod.NATURAL_CUBIC


def three_node_fseg(middle=1.0):
    """Targets (0,0), (1,middle), (2,0) in one dimension."""
    X = np.array([[0.0], [middle], [0.0]])
    Y = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    t = Y.mean(axis=1)
    return FeaturalSegmentation("u", X, Y, t)


def quad_smoothness(fseg, method, t=None, X=None):
    """Independent curvature-energy oracle: per-segment adaptive quadrature."""
    t = fseg.t if t is None else t
    X = fseg.X if X is None else X
    total = 0.0
    mask = ~np.isnan(X)
    mask[0, :] = mask[-1, :] = True
    last = X.shape[0] - 1
    for j in range(X.shape[1]):
        rows = np.flatnonzero(mask[:, j])
        values = X[rows, j].copy()
        values[rows == 0] = 0.0
        values[rows == last] = 0.0
        dn = DimensionNodes(j, t[rows], values, rows)
        for a, b in zip(dn.times[:-1], dn.times[1:]):
            total += quad(lambda x: second_derivative(dn, method, x) ** 2, a, b,
                          limit=200)[0]
    return total


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_hermite_unit_step_smoothness_is_12():
    s = smoothness_term(np.array([0.0, 1.0]), np.array([0.0, 1.0]), H)
    assert s == pytest.approx(12.0, abs=1e-12)


def test_straight_line_nodes_have_zero_smoothness():
    times = np.array([0.0, 0.5, 1.5, 2.0])
    values = 3.0 * times + 1.0
    assert smoothness_term(times, values, N) == pytest.approx(0.0, abs=1e-12)


def test_smoothness_invariant_under_value_shift():
    rng = np.random.default_rng(0)
    for m in (H, N):
        for _ in range(20):
            k = int(rng.integers(3, 9))
            times = np.sort(rng.uniform(0, 2, size=k))
            while np.min(np.diff(times)) < 1e-2:
                times = np.sort(rng.uniform(0, 2, size=k))
            values = rng.normal(size=k)
            a = smoothness_term(times, values, m)
            b = smoothness_term(times, values + 17.3, m)
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


def test_smoothness_rejects_non_cubic():
    with pytest.raises(OptimizeError):
        smoothness_term(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                        InterpMethod.LINEAR)


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
            via_g = 0.0
            mask = fseg.specified.copy()
            mask[0, :] = mask[-1, :] = True
            last = Xp.shape[0] - 1
            for j in range(Xp.shape[1]):
                rows = np.flatnonzero(mask[:, j])
                values = Xp[rows, j].copy()
                values[rows == 0] = 0.0
                values[rows == last] = 0.0
                dn = DimensionNodes(j, tp[rows], values, rows)
                for idx, k in enumerate(rows):
                    if k in (0, last):
                        continue
                    g = interpolate(dn, m, tp[k])
                    via_g += (g - fseg.X[k, j]) ** 2
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
    fseg = FeaturalSegmentation("u", X, Y, Y.mean(axis=1))
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
                      max_steps=100, rel_tol=0.0)
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


def test_divergence_raises_with_last_finite_iterate():
    fseg = three_node_fseg(1.0)
    cfg = OptimConfig(optimize_position=True, position_lr=1e150, lam=0.0,
                      max_steps=50)
    with pytest.raises(DivergenceError) as exc:
        optimize_targets(fseg, H, cfg)
    last = exc.value.last_iterate
    assert np.all(np.isfinite(last.X))
    assert np.isfinite(last.objective)


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


def test_replication_grid_has_90_points():
    grid = grid_configs()
    assert len(grid) == 90
    assert len({(c.timing_lr, c.position_lr, c.lam) for c in grid}) == 90
    assert {c.timing_lr for c in grid} == {1e-6, 5e-6, 1e-5, 5e-5, 1e-4}
    assert {c.position_lr for c in grid} == {1e-3, 1e-2, 1e-1}
    assert {c.lam for c in grid} == {0.0, 1e3, 1e4, 1e5, 1e6, 1e7}


def test_grid_order_breaks_ties_toward_small_lambda_and_rates():
    grid = grid_configs()
    assert grid[0].lam == 0.0
    assert grid[0].timing_lr == 1e-6
    assert grid[0].position_lr == 1e-3
    lams = [c.lam for c in grid]
    assert lams == sorted(lams)


def test_grid_restricted_by_flags():
    grid = grid_configs(optimize_timing=False)
    assert len(grid) == 18  # 6 lambdas x 3 position rates
    assert all(not c.optimize_timing for c in grid)
