import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import butter, filtfilt, lfilter_zi

from conftest import featural
from phonotraj import ema
from phonotraj.ema import (CHANNELS, PARAMETERS, ArticulatorySeries, EmaError,
                           EmaRecord, align_frames, filter_and_downsample,
                           fit_guided_pca, load_csv, load_ema, load_est_track,
                           project, write_csv, write_est_track)

IDX = {c: i for i, c in enumerate(CHANNELS)}


def make_record(n=2500, rate=500, seed=0, utt="u"):
    rng = np.random.default_rng(seed)
    return EmaRecord(utt, rate, rng.normal(size=(n, 12)))


def embed_params(P, beta, offsets):
    """12 channels carrying 6 parameters through a fixed rank-structured map."""
    m = P.shape[0]
    ch = np.tile(offsets, (m, 1))
    jaw = P[:, 0]
    ch[:, IDX["li_x"]] += jaw * 0.6
    ch[:, IDX["li_y"]] += jaw * 0.8
    axes = {"tb": (0.8, -0.6), "td": (-0.6, 0.8), "tt": (0.8, 0.6)}
    for gi, g in enumerate(("tb", "td", "tt"), start=1):
        ax = axes[g]
        ch[:, IDX[f"{g}_x"]] += beta[IDX[f"{g}_x"]] * jaw + P[:, gi] * ax[0]
        ch[:, IDX[f"{g}_y"]] += beta[IDX[f"{g}_y"]] * jaw + P[:, gi] * ax[1]
    ch[:, IDX["ul_x"]] += beta[IDX["ul_x"]] * jaw + P[:, 4] * 4 / np.sqrt(17)
    ch[:, IDX["ul_y"]] += beta[IDX["ul_y"]] * jaw + P[:, 4] * 1 / np.sqrt(17)
    ch[:, IDX["ll_x"]] += beta[IDX["ll_x"]] * jaw
    ch[:, IDX["ll_y"]] += beta[IDX["ll_y"]] * jaw + P[:, 5]
    return ch


def fitted_model(seed=0, m=3000):
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(m, 6))
    beta = rng.normal(0, 0.3, size=12)
    offsets = rng.normal(size=12)
    ch = embed_params(P, beta, offsets)
    recs = [EmaRecord(f"u{i}", 100, ch[i * 1000 : (i + 1) * 1000]) for i in range(m // 1000)]
    return fit_guided_pca(recs), ch, P


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_est_track_round_trip(tmp_path):
    rec = make_record()
    path = tmp_path / "u.ema"
    write_est_track(path, rec)
    back = load_est_track(path)
    assert back.sample_rate == 500
    np.testing.assert_allclose(back.channels, rec.channels, atol=1e-5)


def test_est_rate_inferred_from_time_column(tmp_path):
    rec = make_record(n=100)
    path = tmp_path / "u.ema"
    write_est_track(path, rec)
    raw = path.read_bytes()
    head, _, tail = raw.partition(b"EST_Header_End")
    head = head.replace(b"SampleRate 500\n", b"")
    path.write_bytes(head + b"EST_Header_End" + tail)
    back = load_est_track(path)
    assert back.sample_rate == 500


def test_est_and_csv_agree(tmp_path):
    rec = make_record(seed=1)
    est, csv = tmp_path / "u.ema", tmp_path / "u.csv"
    write_est_track(est, rec)
    write_csv(csv, rec)
    a = load_ema(est)
    b = load_ema(csv)
    assert a.sample_rate == b.sample_rate == 500
    np.testing.assert_allclose(a.channels, b.channels, atol=1e-5)
    # any other suffix is rejected, not read as an EST track
    with pytest.raises(EmaError, match="unknown EMA suffix '.dat'"):
        load_ema(est.rename(tmp_path / "u.dat"))


def test_missing_channel_rejected(tmp_path):
    path = tmp_path / "bad.ema"
    n = 10
    header = ["EST_File Track", "DataType binary", "ByteOrder 01",
              f"NumFrames {n}", "NumChannels 11", "SampleRate 500"]
    header += [f"Channel_{i} {name}" for i, name in enumerate(CHANNELS[:11])]
    header.append("EST_Header_End")
    frames = np.zeros((n, 13), dtype="<f4")
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(frames.tobytes())
    with pytest.raises(EmaError, match="missing"):
        load_est_track(path)


def test_not_an_est_file(tmp_path):
    path = tmp_path / "junk.ema"
    path.write_bytes(b"this is not a track")
    with pytest.raises(EmaError, match="not an EST"):
        load_est_track(path)


@pytest.mark.parametrize("corrupt, message", [
    (lambda raw: raw[:-64], "truncated frame data"),
    (lambda raw: raw.replace(b"DataType binary", b"DataType ascii"),
     "only binary tracks supported, DataType is 'ascii'"),
    (lambda raw: raw.replace(b"NumFrames 100", b"NumFrames many"), "bad header value"),
], ids=["truncated", "ascii", "bad-frame-count"])
def test_est_track_rejects_unreadable_data(tmp_path, corrupt, message):
    path = tmp_path / "u.ema"
    write_est_track(path, make_record(n=100))
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(EmaError, match=message):
        load_est_track(path)


@pytest.mark.parametrize("corrupt, message", [
    (lambda row: "0.5x," + row.split(",", 1)[1], "'0.5x'"),
    (lambda row: row.rsplit(",", 1)[0], "ragged CSV rows"),
], ids=["non-numeric", "ragged"])
def test_csv_rejects_unreadable_rows(tmp_path, corrupt, message):
    path = tmp_path / "u.csv"
    write_csv(path, make_record(n=20))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = corrupt(lines[3])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(EmaError, match=message):
        load_csv(path)


def test_nan_repair_and_limit(tmp_path):
    rec = make_record(n=1000)
    ch = rec.channels.copy()
    ch[100, 0] = np.nan
    ch[500:503, 3] = np.nan
    repaired = EmaRecord("u", 500, ch)  # validation happens in the loaders
    csv = tmp_path / "u.csv"
    write_csv(csv, repaired)
    back = load_csv(csv)
    assert back.nan_repairs == 4
    assert np.all(np.isfinite(back.channels))
    # isolated NaN is filled with the neighbour average
    assert back.channels[100, 0] == pytest.approx(
        0.5 * (rec.channels[99, 0] + rec.channels[101, 0]), abs=1e-5
    )
    ch[:, 5] = np.nan
    ch[: len(ch) // 2, 5] = 1.0  # 50% NaN
    write_csv(csv, EmaRecord("u", 500, ch))
    with pytest.raises(EmaError, match="NaN"):
        load_csv(csv)


def test_clean_track_loads_unchanged_with_no_repairs(tmp_path):
    rec = make_record(n=300)
    path = tmp_path / "u.ema"
    write_est_track(path, rec)
    back = load_est_track(path)
    assert back.nan_repairs == 0
    assert np.array_equal(back.channels, rec.channels.astype("<f4").astype(float))


# ---------------------------------------------------------------------------
# filtering and decimation
# ---------------------------------------------------------------------------


def test_filter_requires_500hz():
    with pytest.raises(EmaError, match="500"):
        filter_and_downsample(make_record(n=500, rate=100))


def test_filter_output_rate_and_length():
    rec = make_record(n=2503)
    out = filter_and_downsample(rec)
    assert out.sample_rate == 100
    assert out.channels.shape[0] == 2503 // 5


def filtfilt_reference(ch):
    """scipy's filtfilt with its defaults around the channel means, decimated."""
    b, a = butter(5, 50.0, btype="low", fs=500)
    means = ch.mean(axis=0, keepdims=True)
    return (filtfilt(b, a, ch - means, axis=0) + means)[: len(ch) // 5 * 5 : 5]


@pytest.mark.parametrize("n", [19, 20, 37, 1572])
def test_filter_equals_scipy_filtfilt(n):
    ch = make_record(n=n, seed=n).channels
    ch[:, 7] = 2.5  # a constant channel
    out = filter_and_downsample(EmaRecord("u", 500, ch))
    assert np.array_equal(out.channels, filtfilt_reference(ch))


def test_filter_equals_scipy_filtfilt_on_a_repaired_track(tmp_path):
    ch = make_record(n=1000, seed=3).channels
    ch[200:230, 2] = np.nan
    path = tmp_path / "u.ema"
    write_est_track(path, EmaRecord("u", 500, ch))
    rec = load_est_track(path)
    assert rec.nan_repairs == 30
    out = filter_and_downsample(rec)
    assert out.nan_repairs == 30
    assert np.array_equal(out.channels, filtfilt_reference(rec.channels))


def test_decimated_record_owns_its_frames():
    # a view would keep the whole 500 Hz filtered array alive with the record
    out = filter_and_downsample(make_record(n=2500))
    assert out.channels.base is None


def test_filter_state_designed_once(monkeypatch):
    calls = []
    real = ema._butterworth

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ema, "_butterworth", counting)
    ema._lowpass.cache_clear()
    try:
        for seed in range(3):
            filter_and_downsample(make_record(n=500, seed=seed))
    finally:
        ema._lowpass.cache_clear()
    assert len(calls) == 1


def test_lowpass_design_equals_scipy():
    b, a, zi = ema._lowpass()
    B, A = butter(5, 50.0, btype="low", fs=500)
    assert np.array_equal(b, B) and np.array_equal(a, A)
    assert np.array_equal(zi, lfilter_zi(B, A)[:, None])


def _import_leaves_out(package):
    src = Path(ema.__file__).resolve().parents[1]
    code = f"import sys, phonotraj.cli; assert {package!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_import_leaves_scipy_signal_out():
    _import_leaves_out("scipy.signal")


def test_import_leaves_scipy_linalg_out():
    _import_leaves_out("scipy.linalg")


def test_filter_without_the_compiled_extension_falls_back_to_lfilter(monkeypatch):
    """Where no extension file is found, the filter comes from the module that
    ``scipy.signal.lfilter`` imports, and it computes the same bits."""
    rec = make_record(n=1572, seed=5)
    expected = filter_and_downsample(rec).channels
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    sigtools = ema._scipy_extension("signal", "_sigtools")
    assert sigtools is sys.modules["scipy.signal._sigtools"]
    monkeypatch.setattr(ema, "_linear_filter", sigtools._linear_filter)
    assert np.array_equal(filter_and_downsample(rec).channels, expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [0, 18])
def test_short_track_rejected(n):
    with pytest.raises(EmaError, match=rf"short_utt: {n} samples at 500 Hz.*more than 18"):
        filter_and_downsample(make_record(n=n, utt="short_utt"))


def test_constant_channel_is_preserved_exactly():
    ch = np.full((2500, 12), 3.25)
    ch[:, 4] = -17.0
    out = filter_and_downsample(EmaRecord("u", 500, ch))
    assert np.array_equal(out.channels[:, 0], np.full(500, 3.25))
    assert np.array_equal(out.channels[:, 4], np.full(500, -17.0))


def test_passband_sinusoid_amplitude_preserved():
    t = np.arange(5000) / 500.0
    ch = np.zeros((5000, 12))
    ch[:, 0] = np.sin(2 * np.pi * 10.0 * t)
    out = filter_and_downsample(EmaRecord("u", 500, ch))
    rms_in = np.sqrt(np.mean(ch[:, 0] ** 2))
    rms_out = np.sqrt(np.mean(out.channels[:, 0] ** 2))
    assert abs(rms_out - rms_in) / rms_in < 0.01


def test_stopband_tone_attenuated_40db():
    t = np.arange(5000) / 500.0
    ch = np.zeros((5000, 12))
    ch[:, 0] = np.sin(2 * np.pi * 120.0 * t)
    out = filter_and_downsample(EmaRecord("u", 500, ch))
    ratio = np.sqrt(np.mean(out.channels[:, 0] ** 2)) / np.sqrt(np.mean(ch[:, 0] ** 2))
    assert 20 * np.log10(ratio) <= -40.0


def test_filter_is_linear():
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(2000, 12))
    x2 = rng.normal(size=(2000, 12))
    a, b = 2.3, -0.7
    f = lambda ch: filter_and_downsample(EmaRecord("u", 500, ch)).channels
    lhs = f(a * x1 + b * x2)
    rhs = a * f(x1) + b * f(x2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


# ---------------------------------------------------------------------------
# guided PCA
# ---------------------------------------------------------------------------


def test_jaw_axis_recovered_from_rank_one_incisor():
    rng = np.random.default_rng(3)
    m = 2000
    ch = rng.normal(size=(m, 12))
    jaw = rng.normal(size=m) * 2.0
    ch[:, IDX["li_x"]] = 0.0
    ch[:, IDX["li_y"]] = jaw  # motion along (0, 1)
    model = fit_guided_pca([EmaRecord("a", 100, ch[:1000]),
                            EmaRecord("b", 100, ch[1000:])])
    np.testing.assert_allclose(model.jaw_axis, [0.0, 1.0], atol=1e-9)


def test_axes_unit_norm_and_jaw_residual_orthogonality():
    model, ch, _ = fitted_model()
    assert np.linalg.norm(model.jaw_axis) == pytest.approx(1.0, abs=1e-12)
    for ax in model.axes.values():
        assert np.linalg.norm(ax) == pytest.approx(1.0, abs=1e-12)
    raw = model.raw_parameters(ch)
    jaw = raw[:, 0]
    for j in range(1, 6):
        cov = np.mean((raw[:, j] - raw[:, j].mean()) * (jaw - jaw.mean()))
        assert abs(cov) < 1e-9


def test_regression_removes_jaw_component():
    rng = np.random.default_rng(4)
    m = 3000
    jaw = rng.normal(size=m)
    noise = rng.normal(size=(m, 12)) * 0.5
    ch = noise + np.outer(jaw, rng.normal(size=12))
    ch[:, IDX["li_x"]] = 0.3 * jaw
    ch[:, IDX["li_y"]] = 0.95 * jaw
    model = fit_guided_pca([EmaRecord("a", 100, ch[:1500]),
                            EmaRecord("b", 100, ch[1500:])])
    raw = model.raw_parameters(ch)
    for j in range(1, 6):
        r = np.corrcoef(raw[:, j], raw[:, 0])[0, 1]
        assert abs(r) < 1e-6


def test_pooling_duplicates_is_idempotent():
    rec = make_record(n=1200, rate=100, seed=5)
    m2 = fit_guided_pca([rec, rec])
    m3 = fit_guided_pca([rec, rec, rec])
    np.testing.assert_allclose(m2.matrix, m3.matrix, atol=1e-12)
    np.testing.assert_allclose(m2.z_std, m3.z_std, atol=1e-12)


def test_degenerate_coil_pair_rejected():
    rec = make_record(n=1200, rate=100)
    ch = rec.channels.copy()
    ch[:, IDX["li_x"]] = 4.2
    ch[:, IDX["li_y"]] = -1.0
    with pytest.raises(EmaError, match="degenerate"):
        fit_guided_pca([EmaRecord("a", 100, ch[:600]), EmaRecord("b", 100, ch[600:])])


def test_projection_is_linear_pre_zscore():
    model, _, _ = fitted_model(seed=6)
    rng = np.random.default_rng(7)
    r1 = rng.normal(size=(400, 12))
    r2 = rng.normal(size=(400, 12))
    a, b = 1.7, -2.2
    lhs = model.raw_parameters(a * r1 + b * r2 + model.channel_means * (1 - a - b))
    rhs = a * model.raw_parameters(r1) + b * model.raw_parameters(r2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_training_projection_is_zscored():
    model, ch, _ = fitted_model(seed=8)
    recs = [EmaRecord(f"u{i}", 100, ch[i * 1000 : (i + 1) * 1000]) for i in range(3)]
    Z = np.concatenate([project(model, r).Z for r in recs])
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)


def _pooled_reference_fit(records):
    """The guided PCA computed on pooled copies of the frames: concatenated,
    centered, jaw-regressed residuals and projected parameters.  Returns
    ``(channel_means, jaw_axis, jaw_coef, axes, matrix, z_mean, z_std)``."""

    def first_axis(xy):
        vals, vecs = np.linalg.eigh(xy.T @ xy / xy.shape[0])
        axis = vecs[:, np.argmax(vals)]
        return -axis if axis[np.argmax(np.abs(axis))] < 0 else axis

    li = [IDX["li_x"], IDX["li_y"]]
    groups = {"tongue_body": "tb", "tongue_dorsum": "td", "tongue_tip": "tt",
              "lip_protrusion": "ul"}
    groups = {name: [IDX[f"{g}_x"], IDX[f"{g}_y"]] for name, g in groups.items()}
    pooled = np.concatenate([r.channels for r in records], axis=0)
    means = pooled.mean(axis=0)
    centered = pooled - means
    jaw_axis = first_axis(centered[:, li])
    jaw = centered[:, li] @ jaw_axis
    jaw_coef = np.zeros(12)
    for j in range(12):
        if j not in li:
            jaw_coef[j] = float(jaw @ centered[:, j]) / float(jaw @ jaw)
    residual = centered - np.outer(jaw, jaw_coef)
    axes = {name: first_axis(residual[:, cols]) for name, cols in groups.items()}
    matrix = np.zeros((12, 6))
    matrix[li, 0] = jaw_axis
    loadings = [dict(zip(groups[name], axes[name])) for name in PARAMETERS[1:5]]
    loadings.append({IDX["ll_y"]: 1 / np.sqrt(2.0), IDX["ul_y"]: -1 / np.sqrt(2.0)})
    for col, loading in enumerate(loadings, start=1):
        for ch, w in loading.items():
            matrix[ch, col] += w
        matrix[li, col] -= sum(w * jaw_coef[ch] for ch, w in loading.items()) * jaw_axis
    raw = centered @ matrix
    return means, jaw_axis, jaw_coef, axes, matrix, raw.mean(axis=0), raw.std(axis=0)


def _assert_relative(actual, expected, rel):
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e5])
def test_covariance_fit_equals_the_pooled_reference(offset):
    rng = np.random.default_rng(11)
    P = rng.normal(size=(2400, 6)) * rng.uniform(0.5, 3.0, size=6)
    ch = embed_params(P, rng.normal(0, 0.3, size=12), offset * rng.uniform(1, 3, size=12))
    ch += rng.normal(scale=0.2, size=ch.shape)  # every 2 x 2 block full rank
    cuts = np.cumsum(rng.integers(150, 400, size=20))
    cuts = cuts[cuts < len(ch)]
    records = [EmaRecord(f"u{i}", 100, part) for i, part in enumerate(np.split(ch, cuts))]
    model = fit_guided_pca(records)
    means, jaw_axis, jaw_coef, axes, matrix, z_mean, z_std = _pooled_reference_fit(records)
    np.testing.assert_allclose(model.channel_means, means, rtol=1e-12, atol=0)
    _assert_relative(model.jaw_axis, jaw_axis, 1e-12)
    _assert_relative(model.jaw_coef, jaw_coef, 1e-12)
    for name, axis in axes.items():
        _assert_relative(model.axes[name], axis, 1e-12)
    _assert_relative(model.matrix, matrix, 1e-12)
    _assert_relative(model.z_std, z_std, 1e-12)
    for rec in records:
        expected = ((rec.channels - means) @ matrix - z_mean) / z_std
        np.testing.assert_allclose(project(model, rec).Z, expected, rtol=0, atol=1e-9)


def test_fit_holds_no_pooled_copy_of_the_frames():
    rng = np.random.default_rng(12)
    records = [EmaRecord(f"u{i}", 100, rng.normal(size=(500, 12)) + 100.0)
               for i in range(200)]
    pooled_bytes = sum(r.channels.nbytes for r in records)  # 100 000 frames, 9.6 MB
    tracemalloc.start()
    try:
        fit_guided_pca(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pooled_bytes, (peak, pooled_bytes)


def _model_arrays(model):
    return [model.channel_means, model.jaw_axis, model.jaw_coef, *model.axes.values(),
            model.matrix, model.z_std]


class _CountingRecords:
    """Records that count the passes made over them and the reads of each."""

    def __init__(self, records):
        self.records, self.passes, self.reads = records, 0, []

    def __iter__(self):
        self.passes += 1
        for rec in self.records:
            self.reads.append(rec.utterance_id)
            yield rec


def test_fit_reads_each_record_once_and_equals_the_fit_on_the_list():
    rng = np.random.default_rng(13)
    records = [EmaRecord(f"u{i}", 100, rng.normal(size=(int(n), 12)) + 50.0)
               for i, n in enumerate(rng.integers(200, 600, size=8))]
    counting = _CountingRecords(records)
    streamed = fit_guided_pca(counting)
    assert counting.passes == 1
    assert counting.reads == [r.utterance_id for r in records]
    for actual, expected in zip(_model_arrays(streamed), _model_arrays(fit_guided_pca(records))):
        _assert_relative(actual, expected, 1e-15)
    for actual, expected in zip(_model_arrays(fit_guided_pca(r for r in records)),
                                _model_arrays(streamed)):
        _assert_relative(actual, expected, 1e-15)


def test_fit_skips_a_record_without_frames():
    records = [make_record(n=700, rate=100, seed=s, utt=f"u{s}") for s in range(2)]
    empty = EmaRecord("empty", 100, np.zeros((0, 12)))
    for actual, expected in zip(_model_arrays(fit_guided_pca([empty, *records])),
                                _model_arrays(fit_guided_pca(records))):
        _assert_relative(actual, expected, 1e-15)


@pytest.mark.parametrize("records, message", [
    ([make_record(n=1200, rate=100)], "at least 2 training records"),
    ([make_record(n=400, rate=100, utt="a"), make_record(n=500, rate=100, utt="b")],
     ">= 1000 pooled frames, got 900"),
    ([make_record(n=1200, rate=100, utt="a"), make_record(n=1200, rate=500, utt="b")],
     "b: guided PCA expects 100 Hz records"),
], ids=["one-record", "too-few-frames", "500hz"])
def test_fit_on_a_generator_raises_what_the_fit_on_its_list_raises(records, message):
    with pytest.raises(EmaError, match=message) as from_list:
        fit_guided_pca(records)
    with pytest.raises(EmaError) as from_generator:
        fit_guided_pca(rec for rec in records)
    assert str(from_generator.value) == str(from_list.value)


def test_synthetic_rank_structure_recovered_exactly():
    model, ch, P = fitted_model(seed=9)
    raw = model.raw_parameters(ch)
    # recovered parameters are an affine image of the generating ones
    design = np.column_stack([P, np.ones(P.shape[0])])
    coef, *_ = np.linalg.lstsq(design, raw, rcond=None)
    np.testing.assert_allclose(design @ coef, raw, atol=1e-9)


def test_project_requires_100hz():
    model, _, _ = fitted_model(seed=10)
    with pytest.raises(EmaError, match="100"):
        project(model, make_record(n=500, rate=500))


# ---------------------------------------------------------------------------
# frame alignment
# ---------------------------------------------------------------------------


def _fseg_span(duration, offset):
    X = np.zeros((3, 1))
    Y = np.array([[0.0, 0.0], [0.0, duration], [duration, duration]])
    return featural("u", X, Y, Y.mean(axis=1), time_offset=offset)


def test_align_crops_at_trim_offset():
    z = ArticulatorySeries("u", np.arange(200, dtype=float).reshape(-1, 1) * np.ones((1, 6)))
    out = align_frames(z, _fseg_span(0.4, 0.5))
    assert out.Z.shape[0] == 40
    assert out.Z[0, 0] == 50.0  # crop starts at frame 50


def test_align_tolerates_one_frame_shortfall():
    z = ArticulatorySeries("u", np.zeros((39, 6)))
    out = align_frames(z, _fseg_span(0.4, 0.0))
    assert out.Z.shape[0] == 39


def test_align_caps_at_trajectory_length():
    z = ArticulatorySeries("u", np.zeros((41, 6)))
    out = align_frames(z, _fseg_span(0.4, 0.0))
    assert out.Z.shape[0] == 40


def test_align_rejects_short_series():
    z = ArticulatorySeries("u", np.zeros((30, 6)))
    with pytest.raises(EmaError, match="ends before"):
        align_frames(z, _fseg_span(0.4, 0.0))


def test_parameter_names():
    assert PARAMETERS == ("jaw_height", "tongue_body", "tongue_dorsum",
                          "tongue_tip", "lip_protrusion", "lip_height")
