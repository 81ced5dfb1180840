import logging
import warnings

import numpy as np
import pytest

from conftest import dataset_loss
from phonotraj.alignment import Phone, PhoneSegmentation, build_featural
from phonotraj.cli import _LazySequence
from phonotraj.ema import ArticulatorySeries
from phonotraj.forward import InterpMethod, Trajectory, frame_count, synthesize
from phonotraj.phonology import SILENCE, get_table
from phonotraj.probe import (ADAM_BETAS, ADAM_EPS, ADAM_LR, AdamState,
                             ProbeError, ProbeModel, _statistics, adam_step,
                             aggregate, pearson, score, train_probe)


def make_pairs(rng, A, b, n_utt, frames=(30, 60), noise=0.0):
    d = A.shape[1]
    pairs = []
    for u in range(n_utt):
        n = int(rng.integers(*frames))
        F = rng.normal(size=(n, d))
        Z = F @ A.T + b
        if noise:
            Z = Z + rng.normal(scale=noise, size=Z.shape)
        pairs.append((Trajectory(f"u{u}", 100.0, F), ArticulatorySeries(f"u{u}", Z)))
    return pairs


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_is_fixed_point():
    p = [np.array([1.5, -2.0])]
    state = AdamState.for_params(p)
    out = adam_step(state, p, [np.zeros(2)])
    np.testing.assert_array_equal(out[0], p[0])
    np.testing.assert_array_equal(state.m[0], 0.0)
    np.testing.assert_array_equal(state.v[0], 0.0)


def test_adam_moments_decay_under_zero_gradients():
    p = [np.array([0.0])]
    state = AdamState.for_params(p)
    p = adam_step(state, p, [np.array([1.0])])
    m_prev, v_prev = abs(state.m[0][0]), state.v[0][0]
    for _ in range(5):
        p = adam_step(state, p, [np.zeros(1)])
        assert abs(state.m[0][0]) < m_prev
        assert state.v[0][0] < v_prev
        m_prev, v_prev = abs(state.m[0][0]), state.v[0][0]


def test_adam_first_step_closed_form():
    p = [np.array([0.0])]
    state = AdamState.for_params(p)
    out = adam_step(state, p, [np.array([1.0])])
    expected = -ADAM_LR / (1.0 + ADAM_EPS)  # bias correction cancels at t=1
    assert out[0][0] == pytest.approx(expected, abs=1e-15)


def test_adam_two_identical_steps_closed_form():
    b1, b2 = ADAM_BETAS
    p = [np.array([0.0])]
    state = AdamState.for_params(p)
    p = adam_step(state, p, [np.array([1.0])])
    p = adam_step(state, p, [np.array([1.0])])
    # independent evaluation of the bias-corrected formulas at t = 2
    m2 = (b1 * (1 - b1) + (1 - b1)) / (1 - b1**2)
    v2 = (b2 * (1 - b2) + (1 - b2)) / (1 - b2**2)
    step2 = -ADAM_LR * m2 / (np.sqrt(v2) + ADAM_EPS)
    expected = -ADAM_LR / (1.0 + ADAM_EPS) + step2
    assert p[0][0] == pytest.approx(expected, abs=1e-15)


def _assert_rejected_without_update(grads):
    p = [np.array([[0.5, -0.5]])]
    state = AdamState.for_params(p)
    p = adam_step(state, p, [np.array([[1.0, 2.0]])])
    m, v = state.m[0].copy(), state.v[0].copy()
    with pytest.raises(ProbeError):
        adam_step(state, p, grads)
    assert state.step == 1
    np.testing.assert_array_equal(state.m[0], m)
    np.testing.assert_array_equal(state.v[0], v)


def test_adam_shape_mismatch_rejected():
    _assert_rejected_without_update([np.zeros((1, 3))])
    _assert_rejected_without_update([np.zeros((1, 2)), np.zeros((1, 2))])


def test_adam_non_finite_gradient_rejected():
    _assert_rejected_without_update([np.array([[1.0, np.inf]])])
    _assert_rejected_without_update([np.array([[np.nan, 0.0]])])


# ---------------------------------------------------------------------------
# probe training
# ---------------------------------------------------------------------------


def test_probe_recovers_noiseless_affine_map():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 5)) * 0.5
    b = rng.normal(size=6)
    train = make_pairs(rng, A, b, 40)
    dev = make_pairs(rng, A, b, 6)
    test = make_pairs(rng, A, b, 6)
    probe = train_probe(train, dev)
    assert dataset_loss(probe.weight, probe.bias, test) < 1e-6
    assert np.all(score(probe, test) > 0.999)
    np.testing.assert_allclose(probe.weight, A, rtol=0, atol=1e-9)
    np.testing.assert_allclose(probe.bias, b, rtol=0, atol=1e-9)

    # closed-form weighted least-squares oracle agrees
    oracle_loss = dataset_loss(*_weighted_lstsq(train), test)
    scale = dataset_loss(np.zeros_like(probe.weight), np.zeros(6), test)  # target energy
    assert abs(dataset_loss(probe.weight, probe.bias, test) - oracle_loss) <= 1e-9 * scale


@pytest.fixture(scope="module")
def random_corpus():
    """60 random segmentations over the shipped inventory, each with random
    6-D targets on its frame grid: 50 to train on, 10 for dev."""
    rng = np.random.default_rng(31)
    labels = [p for p in get_table("phoneme_onehot").inventory if p != SILENCE]
    corpus = []
    for u in range(60):
        ends = np.cumsum(rng.uniform(0.05, 0.15, size=int(rng.integers(3, 13))))
        seg = PhoneSegmentation(f"u{u}", tuple(
            Phone(str(rng.choice(labels)), float(a), float(b))
            for a, b in zip(np.r_[0.0, ends[:-1]], ends)))
        Z = rng.normal(size=(frame_count(ends[-1], 100.0), 6))
        corpus.append((seg, ArticulatorySeries(f"u{u}", Z)))
    return corpus


@pytest.mark.parametrize("method", [InterpMethod.LINEAR, InterpMethod.CUBIC_HERMITE,
                                    InterpMethod.NATURAL_CUBIC], ids=lambda m: m.value)
def test_phoneme_onehot_is_the_ceiling_of_fully_specified_sets(random_corpus, method):
    # A fully specified table T gives the trajectory F1 @ T of the one-hot
    # set's F1 (evaluate is linear in the node values), so its probe fits a
    # subset of the one-hot probe's maps; a table with unknown entries has
    # other nodes and may fit better.
    def train_loss(set_id):
        table = get_table(set_id)
        pairs = [(synthesize(build_featural(seg, table), method), z) for seg, z in random_corpus]
        probe = train_probe(pairs[:50], pairs[50:])
        return dataset_loss(probe.weight, probe.bias, pairs[:50])

    ceiling = train_loss("phoneme_onehot")
    for set_id in ("gp_binary", "ap_onehot", "ap_scalar"):
        assert train_loss(set_id) >= ceiling - 1e-9, set_id
    assert train_loss("gp_binary_phoneme") == pytest.approx(ceiling, rel=0, abs=1e-9)
    assert train_loss("gp_unknown_phoneme") < ceiling - 1e-3


def test_statistics_gradient_equals_frame_gradient():
    rng = np.random.default_rng(8)
    for n, d in [(1, 3), (37, 5), (240, 73)]:
        F = rng.normal(size=(n, d))
        Z = rng.normal(size=(n, 6))
        theta = rng.normal(size=(6, d + 1))
        err = F @ theta[:, :d].T + theta[:, d] - Z
        frame_grad = 2.0 * err.T @ np.column_stack([F, np.ones(n)]) / n
        G, C = _statistics(F, Z)
        np.testing.assert_allclose(2.0 * (theta @ G - C), frame_grad, rtol=1e-12,
                                   atol=1e-12 * np.abs(frame_grad).max())


def _weighted_lstsq(pairs):
    """Oracle: ``dataset_loss`` minimized as frame least squares with weight
    1 / (utterances x frames of the utterance); returns (weight, bias)."""
    Fs, Zs, w = [], [], []
    for tr, z in pairs:
        n = tr.frames.shape[0]
        Fs.append(tr.frames)
        Zs.append(z.Z)
        w.append(np.full(n, 1.0 / (len(pairs) * n)))
    F, Z = np.vstack(Fs), np.vstack(Zs)
    sw = np.sqrt(np.concatenate(w))[:, None]
    Fb = np.column_stack([F, np.ones(len(F))])
    W, *_ = np.linalg.lstsq(Fb * sw, Z * sw, rcond=None)
    return W[:-1].T, W[-1]


def _frame_reference_probe(train, seed, epochs):
    """Adam on the frames, with separate weight and bias arrays, one step per
    utterance in a reshuffled order, no early stopping; returns the training
    loss after each epoch."""
    rng = np.random.default_rng(seed)
    d = train[0][0].frames.shape[1]
    weight, bias = np.zeros((6, d)), np.zeros(6)
    state = AdamState.for_params([weight, bias])
    losses = []
    for _ in range(epochs):
        for i in rng.permutation(len(train)):
            F, Z = train[i][0].frames, train[i][1].Z
            err = F @ weight.T + bias - Z
            gw = 2.0 * err.T @ F / F.shape[0]
            gb = 2.0 * err.mean(axis=0)
            weight, bias = adam_step(state, [weight, bias], [gw, gb])
        losses.append(dataset_loss(weight, bias, train))
    return np.array(losses)


def test_closed_form_is_the_limit_of_adam():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(6, 7))
    b = rng.normal(size=6)
    train = make_pairs(rng, A, b, 36, noise=0.5)
    dev = make_pairs(rng, A, b, 4, noise=0.5)
    probe = train_probe(train, dev)
    closed = dataset_loss(probe.weight, probe.bias, train)
    assert closed == pytest.approx(dataset_loss(*_weighted_lstsq(train), train), rel=1e-9)
    adam = _frame_reference_probe(train, seed=4, epochs=250)
    assert np.all(adam >= closed - 1e-12)
    gap = adam / closed - 1.0
    assert gap[9] > 1.0  # far above the optimum early on
    assert gap[-1] < 1e-3  # and close to it after many epochs


def test_unseen_feature_gets_zero_weight():
    # A feature that is 0 on every training frame (a phone that never occurs
    # in training) makes the normal matrix singular; the minimum-norm fit
    # gives it weight 0 and still reaches the least-squares loss.
    rng = np.random.default_rng(12)
    A = rng.normal(size=(6, 8))
    b = rng.normal(size=6)
    train = make_pairs(rng, A, b, 30, noise=0.3)
    for tr, _ in train:
        tr.frames[:, 5] = 0.0
    dev = make_pairs(rng, A, b, 4, noise=0.3)
    probe = train_probe(train, dev)
    assert np.isfinite(probe.weight).all() and np.isfinite(probe.bias).all()
    assert np.all(probe.weight[:, 5] == 0.0)
    oracle = dataset_loss(*_weighted_lstsq(train), train)
    assert dataset_loss(probe.weight, probe.bias, train) == pytest.approx(oracle, rel=1e-9)


def test_best_dev_parameters_returned():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(6, 4))
    b = rng.normal(size=6)
    train = make_pairs(rng, A, b, 10)
    dev = make_pairs(rng, A, b, 3, noise=0.05)
    probe = train_probe(train, dev)
    dev_loss = dataset_loss(probe.weight, probe.bias, dev)
    assert dev_loss == pytest.approx(probe.best_dev_loss, rel=1e-12)


def test_single_frame_exact_fit():
    # Underdetermined: any parameters interpolating the one frame are exact.
    F = np.ones((1, 6))
    Z = (np.arange(6.0) / 10.0).reshape(1, 6)
    pairs = [(Trajectory("u", 100.0, F), ArticulatorySeries("u", Z))]
    probe = train_probe(pairs, pairs)
    assert dataset_loss(probe.weight, probe.bias, pairs) < 1e-20


def test_mismatched_pair_rejected():
    F = np.zeros((10, 3))
    Z = np.zeros((14, 6))
    pairs = [(Trajectory("u", 100.0, F), ArticulatorySeries("u", Z))]
    with pytest.raises(ProbeError, match="frames"):
        train_probe(pairs, pairs)


def lazy(pairs):
    """``pairs`` as the pipeline passes a split: a sequence that makes each
    pair when it is read."""
    return _LazySequence(tuple(range(len(pairs))), pairs.__getitem__)


def generator(pairs):
    return (p for p in pairs)


@pytest.mark.parametrize("kind", [list, generator, lazy])
def test_empty_sets_rejected(kind):
    # A generator used to pass the emptiness check: an empty train then
    # failed with an IndexError, and an empty dev gave a NaN dev loss.
    pairs = make_pairs(np.random.default_rng(2), np.ones((6, 3)), np.zeros(6), 3)
    for train, dev in (([], []), ([], pairs), (pairs, [])):
        with pytest.raises(ProbeError, match="non-empty"):
            train_probe(kind(train), kind(dev))


@pytest.mark.parametrize("kind", [list, generator, lazy])
def test_empty_test_set_rejected(kind):
    with pytest.raises(ProbeError, match="empty test set"):
        score(ProbeModel(np.ones((6, 3)), np.zeros(6)), kind([]))


@pytest.mark.parametrize("where", ["train", "dev"])
def test_inconsistent_widths_rejected_in_either_set(where):
    rng = np.random.default_rng(8)
    pairs = make_pairs(rng, np.ones((6, 3)), np.zeros(6), 4)
    wide = make_pairs(rng, np.ones((6, 4)), np.zeros(6), 1)
    train, dev = (pairs[:3] + wide, pairs[3:]) if where == "train" else (pairs[:3], wide)
    with pytest.raises(ProbeError, match="inconsistent"):
        train_probe(generator(train), generator(dev))


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------


def test_pearson_perfect_relations():
    assert pearson(np.array([1.0, 2, 3]), np.array([2.0, 4, 6])) == pytest.approx(1.0)
    assert pearson(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == pytest.approx(-1.0)


def test_pearson_against_direct_formula():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 2.0, 3.0, 100.0])
    n = len(x)
    cov = np.sum((x - x.mean()) * (y - y.mean())) / n
    expected = cov / (x.std() * y.std())
    assert pearson(x, y) == pytest.approx(expected, abs=1e-12)


def test_pearson_zero_variance_rejected():
    with pytest.raises(ProbeError):
        pearson(np.ones(5), np.arange(5.0))


def test_pearson_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        a = rng.normal()
        if a == 0:
            continue
        b = rng.normal()
        lhs = pearson(a * x + b, y)
        rhs = np.sign(a) * pearson(x, y)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# scoring and aggregation
# ---------------------------------------------------------------------------


def test_score_exact_probe_is_one():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(6, 5))
    b = rng.normal(size=6)
    test = make_pairs(rng, A, b, 5)
    probe = ProbeModel(A, b)
    np.testing.assert_allclose(score(probe, test), 1.0, atol=1e-9)


def test_constant_training_parameter_warns_only_when_constant_over_all_frames(caplog):
    rng = np.random.default_rng(6)
    pairs = make_pairs(rng, rng.normal(size=(6, 4)), rng.normal(size=6), 5)
    train = []
    for u, (traj, z) in enumerate(pairs[:4]):
        Z = z.Z.copy()
        Z[:, 0] = 2.5  # constant over every training frame
        Z[:, 1] = float(u)  # constant within each utterance only
        train.append((traj, ArticulatorySeries(z.utterance_id, Z)))
    with caplog.at_level(logging.WARNING, logger="phonotraj.probe"):
        train_probe(train, pairs[4:])
    assert [r.getMessage() for r in caplog.records] == [
        "training parameter jaw_height is constant; fit is degenerate"]


def test_score_zero_probe_excluded_with_warning(caplog):
    rng = np.random.default_rng(5)
    test = make_pairs(rng, np.ones((6, 3)), np.zeros(6), 3)
    probe = ProbeModel(np.zeros((6, 3)), np.zeros(6))
    with caplog.at_level(logging.WARNING):
        out = score(probe, test)
    assert np.all(np.isnan(out))
    assert "zero variance" in caplog.text


def test_score_equals_manual_concatenation():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(6, 4))
    pairs = make_pairs(rng, A, np.zeros(6), 2, noise=0.3)
    probe = ProbeModel(A, np.zeros(6))
    got = score(probe, pairs)
    pred = np.vstack([p[0].frames @ A.T for p in pairs])
    truth = np.vstack([p[1].Z for p in pairs])
    for j in range(6):
        assert got[j] == pytest.approx(pearson(pred[:, j], truth[:, j]), abs=1e-12)


def test_score_empty_test_rejected():
    with pytest.raises(ProbeError):
        score(ProbeModel(np.zeros((6, 2)), np.zeros(6)), [])


def test_aggregate_constant_matrix():
    rep = aggregate(np.full((4, 6), 0.5), ("a", "b", "c", "d"))
    assert rep.grand == pytest.approx(0.5)
    assert rep.stderr == pytest.approx(0.0)
    np.testing.assert_allclose(rep.per_speaker, 0.5)
    np.testing.assert_allclose(rep.per_parameter, 0.5)


def test_aggregate_consistency():
    rng = np.random.default_rng(7)
    m = rng.uniform(-1, 1, size=(6, 6))
    rep = aggregate(m, tuple("abcdef"))
    np.testing.assert_allclose(rep.per_speaker, m.mean(axis=1), atol=1e-12)
    np.testing.assert_allclose(rep.per_parameter, m.mean(axis=0), atol=1e-12)
    assert rep.grand == pytest.approx(rep.per_speaker.mean(), abs=1e-12)


def test_aggregate_shape_mismatch_rejected():
    with pytest.raises(ProbeError):
        aggregate(np.zeros((2, 6)), ("a",))


def test_aggregate_all_nan_rejected():
    with pytest.raises(ProbeError):
        aggregate(np.full((2, 6), np.nan), ("a", "b"))


def test_aggregate_stderr_counts_only_speakers_with_a_defined_average():
    # The standard error used to divide by the square root of every
    # speaker's count: 0.081650 for these rows, and NaN with one defined row.
    rows = np.array([np.full(6, 0.5), np.full(6, 0.7), np.full(6, np.nan)])
    names = ("a", "b", "c")
    assert aggregate(rows, names).stderr == pytest.approx(0.1, rel=1e-12)
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="Degrees of freedom")
        assert aggregate(rows[[0, 2]], names[:2]).stderr == 0.0


def test_report_serialization_is_stable():
    rep = aggregate(np.full((2, 6), 0.25), ("a", "b"))
    assert rep.to_csv() == rep.to_csv()
    assert "0.250" in rep.to_text()
    assert rep.to_csv().startswith("speaker,")


def test_report_formats_print_the_same_table():
    m = np.array([[0.9, 0.8, 0.7, 0.6, 0.5, 0.4], [0.95, np.nan, 0.75, 0.65, 0.55, 0.25]])
    rep = aggregate(m, ("spk00", "spk01"))
    assert rep.to_csv() == (
        "speaker,jaw_height,tongue_body,tongue_dorsum,tongue_tip,lip_protrusion,lip_height,"
        "average\n"
        "spk00,0.900000,0.800000,0.700000,0.600000,0.500000,0.400000,0.650000\n"
        "spk01,0.950000,NA,0.750000,0.650000,0.550000,0.250000,0.630000\n"
        "average,0.925000,0.800000,0.725000,0.625000,0.525000,0.325000,0.640000\n"
        "stderr,0.010000\n"
    )
    rule = "-" * 124 + "\n"
    assert rep.to_text() == (
        "speaker           jaw_height     tongue_body   tongue_dorsum"
        "      tongue_tip  lip_protrusion      lip_height         average\n"
        + rule
        + "spk00                  0.900           0.800           0.700"
        "           0.600           0.500           0.400           0.650\n"
        "spk01                  0.950              NA           0.750"
        "           0.650           0.550           0.250           0.630\n"
        + rule
        + "average                0.925           0.800           0.725"
        "           0.625           0.525           0.325           0.640\n"
        "standard error across speakers: 0.010\n"
    )
