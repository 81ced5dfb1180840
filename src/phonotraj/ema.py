"""EMA ingestion and articulatory-parameter extraction.

Recordings carry 12 channels (2D midsagittal x/y for tongue tip, tongue
body, tongue dorsum, lower incisor, upper lip, lower lip) at 500 Hz.  They
are low-pass filtered at 50 Hz with a zero-phase 5th-order Butterworth,
decimated to 100 Hz, and decomposed into 6 articulatory parameters with a
jaw-first linear decomposition:

    1. jaw height        first principal axis of the lower-incisor coil
    2-4. tongue body / dorsum / tip
                         first principal axis of each coil's residual after
                         regressing out the jaw parameter
    5. lip protrusion    first principal axis of the upper-lip residual
    6. lip height        vertical lower-minus-upper lip aperture residual

Every axis is oriented so its largest-magnitude loading is positive, and
parameters are z-scored with training-partition statistics.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
from scipy.signal import butter, lfilter, lfilter_zi

from .alignment import FeaturalSegmentation
from .forward import frame_count

CHANNELS = (
    "tt_x", "tt_y", "tb_x", "tb_y", "td_x", "td_y",
    "li_x", "li_y", "ul_x", "ul_y", "ll_x", "ll_y",
)
PARAMETERS = (
    "jaw_height", "tongue_body", "tongue_dorsum",
    "tongue_tip", "lip_protrusion", "lip_height",
)
VALID_RATES = (500, 100)
NAN_FRACTION_LIMIT = 0.05
FILTER_ORDER = 5
CUTOFF_HZ = 50.0
DECIMATION = 5


class EmaError(ValueError):
    """Unreadable or inconsistent EMA data."""


@dataclass(frozen=True)
class EmaRecord:
    utterance_id: str
    sample_rate: int
    channels: np.ndarray  # (n, 12) in CHANNELS order
    nan_repairs: int = 0

    def __post_init__(self):
        if self.channels.ndim != 2 or self.channels.shape[1] != len(CHANNELS):
            raise EmaError(
                f"{self.utterance_id}: expected {len(CHANNELS)} channels, "
                f"got shape {self.channels.shape}"
            )
        if self.sample_rate not in VALID_RATES:
            raise EmaError(f"{self.utterance_id}: unsupported sample rate {self.sample_rate}")

    @property
    def duration(self) -> float:
        return self.channels.shape[0] / self.sample_rate

    @property
    def channel_names(self) -> tuple[str, ...]:
        return CHANNELS


@dataclass(frozen=True)
class ArticulatorySeries:
    utterance_id: str
    Z: np.ndarray  # (n, 6) in PARAMETERS order
    frame_rate: float = 100.0

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(PARAMETERS) + "\n")
            for row in self.Z:
                f.write(",".join(f"{v:.9g}" for v in row) + "\n")


def _repair_nans(channels: np.ndarray, utt: str) -> tuple[np.ndarray, int]:
    """Linearly interpolate NaN runs per channel; reject heavy corruption.

    A track with no missing value is returned as it is."""
    finite = np.isfinite(channels)
    if finite.all():
        return channels, 0
    out = channels.copy()
    repairs = 0
    for j in range(out.shape[1]):
        bad = ~finite[:, j]
        if not bad.any():
            continue
        frac = bad.mean()
        if frac > NAN_FRACTION_LIMIT:
            raise EmaError(f"{utt}: channel {CHANNELS[j]} is {frac:.1%} NaN")
        good = np.flatnonzero(~bad)
        if good.size == 0:
            raise EmaError(f"{utt}: channel {CHANNELS[j]} entirely NaN")
        out[bad, j] = np.interp(np.flatnonzero(bad), good, out[good, j])
        repairs += int(bad.sum())
    if not np.all(np.isfinite(out)):
        raise EmaError(f"{utt}: NaN repair failed")
    return out, repairs


def _parse_est_header(raw: bytes, path) -> tuple[dict, int]:
    end = raw.find(b"EST_Header_End")
    if not raw.startswith(b"EST_File") or end < 0:
        raise EmaError(f"{path}: not an EST track file")
    end = raw.index(b"\n", end) + 1
    fields: dict[str, str] = {}
    for line in raw[:end].decode("ascii", errors="replace").splitlines():
        parts = line.split(None, 1)
        if len(parts) == 2:
            fields[parts[0]] = parts[1].strip()
    return fields, end


def load_est_track(path) -> EmaRecord:
    """Read an EST binary track: ASCII header, then f32 frames of
    (time, flag, channel values)."""
    path = Path(path)
    raw = path.read_bytes()
    fields, offset = _parse_est_header(raw, path)
    try:
        n_frames = int(fields["NumFrames"])
        n_channels = int(fields["NumChannels"])
        rate = round(float(fields["SampleRate"])) if "SampleRate" in fields else None
    except KeyError as exc:
        raise EmaError(f"{path}: header missing {exc}") from exc
    except (ValueError, OverflowError) as exc:
        raise EmaError(f"{path}: bad header value: {exc}") from exc
    if fields.get("DataType") != "binary":
        raise EmaError(f"{path}: only binary tracks supported, "
                       f"DataType is {fields.get('DataType')!r}")
    if fields.get("ByteOrder", "01") != "01":
        raise EmaError(f"{path}: only little-endian tracks supported")
    names = []
    for c in range(n_channels):
        key = f"Channel_{c}"
        if key not in fields:
            raise EmaError(f"{path}: header missing {key}")
        names.append(fields[key].strip().lower())
    missing = [c for c in CHANNELS if c not in names]
    if missing:
        raise EmaError(f"{path}: channels missing from track: {missing}")
    width = n_channels + 2
    if n_frames < 0 or len(raw) - offset < 4 * n_frames * width:
        raise EmaError(f"{path}: truncated frame data")
    data = np.frombuffer(raw, dtype="<f4", count=n_frames * width, offset=offset)
    data = data.reshape(n_frames, width)
    if rate is None:
        dt = np.median(np.diff(data[:, 0].astype(float))) if n_frames > 1 else 0.0
        if not dt > 0:
            raise EmaError(f"{path}: cannot infer sample rate")
        rate = int(round(1.0 / dt))
    cols = [names.index(c) + 2 for c in CHANNELS]
    channels, repairs = _repair_nans(data[:, cols].astype(float), path.stem)
    return EmaRecord(path.stem, rate, channels, repairs)


def write_est_track(path, rec: EmaRecord) -> None:
    """Serialize an EmaRecord in the EST binary track layout."""
    n = rec.channels.shape[0]
    header = ["EST_File Track", "DataType binary", "ByteOrder 01",
              f"NumFrames {n}", f"NumChannels {len(CHANNELS)}",
              f"SampleRate {rec.sample_rate}", "EqualSpace t"]
    header += [f"Channel_{i} {name}" for i, name in enumerate(CHANNELS)]
    header.append("EST_Header_End")
    times = np.arange(n) / rec.sample_rate
    frames = np.empty((n, len(CHANNELS) + 2), dtype="<f4")
    frames[:, 0] = times
    frames[:, 1] = 1.0
    frames[:, 2:] = rec.channels
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode("ascii"))
        f.write(frames.tobytes())


def load_csv(path) -> EmaRecord:
    """CSV fallback: header row of channel names, including a time column in
    seconds from which the sample rate is read."""
    path = Path(path)
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(lines) < 2:
        raise EmaError(f"{path}: no data rows")
    names = [c.strip().lower() for c in lines[0].split(",")]
    missing = [c for c in ("time",) + CHANNELS if c not in names]
    if missing:
        raise EmaError(f"{path}: columns missing from CSV: {missing}")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(row) != len(names) for row in rows):
        raise EmaError(f"{path}: ragged CSV rows")
    try:
        data = np.array([[float(v) if v.strip() else np.nan for v in row] for row in rows])
    except ValueError as exc:
        raise EmaError(f"{path}: {exc}") from exc
    dt = np.median(np.diff(data[:, names.index("time")])) if len(rows) > 1 else 0.0
    if not dt > 0:
        raise EmaError(f"{path}: cannot infer sample rate from time column")
    cols = [names.index(c) for c in CHANNELS]
    channels, repairs = _repair_nans(data[:, cols], path.stem)
    return EmaRecord(path.stem, int(round(1.0 / dt)), channels, repairs)


def write_csv(path, rec: EmaRecord) -> None:
    n = rec.channels.shape[0]
    with open(path, "w", encoding="utf-8") as f:
        f.write("time," + ",".join(CHANNELS) + "\n")
        for i in range(n):
            f.write(f"{i / rec.sample_rate:.9g},"
                    + ",".join(f"{v:.9g}" for v in rec.channels[i]) + "\n")


EMA_READERS = {".ema": load_est_track, ".csv": load_csv}


def load_ema(path) -> EmaRecord:
    """Load an EMA recording with the reader its suffix names in EMA_READERS."""
    path = Path(path)
    reader = EMA_READERS.get(path.suffix.lower())
    if reader is None:
        raise EmaError(f"{path}: unknown EMA suffix {path.suffix!r}; "
                       f"known: {', '.join(EMA_READERS)}")
    return reader(path)


@cache
def _lowpass() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(b, a, zi)`` of the 50 Hz Butterworth low-pass at 500 Hz, designed
    once: ``zi`` is the state of its unit step response, as a column."""
    b, a = butter(FILTER_ORDER, CUTOFF_HZ, btype="low", fs=500)
    return b, a, lfilter_zi(b, a)[:, None]


# Samples of odd extension at each end, scipy's ``filtfilt`` default
# (3 * the filter's 6 taps); a track needs more samples than this.
PADLEN = 3 * (FILTER_ORDER + 1)


def filter_and_downsample(rec: EmaRecord) -> EmaRecord:
    """Zero-phase 50 Hz low-pass, then decimation from 500 Hz to 100 Hz.

    The forward-backward pass is the one ``scipy.signal.filtfilt`` makes
    with its defaults: odd extension by PADLEN samples at each end, and each
    pass started from the step-response state scaled by its first sample.
    Channel means are removed before filtering and restored afterwards so
    constant signals pass through bit-exactly.
    """
    if rec.sample_rate != 500:
        raise EmaError(f"{rec.utterance_id}: expected 500 Hz input, got {rec.sample_rate}")
    n = rec.channels.shape[0]
    if n <= PADLEN:
        raise EmaError(f"{rec.utterance_id}: {n} samples at 500 Hz; the zero-phase "
                       f"filter needs more than {PADLEN}")
    b, a, zi = _lowpass()
    means = rec.channels.mean(axis=0, keepdims=True)
    x = rec.channels - means
    ext = np.concatenate((2 * x[:1] - x[PADLEN:0:-1], x,
                          2 * x[-1:] - x[-2:-PADLEN - 2:-1]))
    y, _ = lfilter(b, a, ext, axis=0, zi=zi * ext[:1])
    y, _ = lfilter(b, a, y[::-1], axis=0, zi=zi * y[-1:])
    # y runs backwards.  Keep every DECIMATION-th sample of the unpadded span;
    # adding the means makes a new array, so the record does not pin all of y.
    n_out = n // DECIMATION
    filtered = y[::-1][PADLEN:-PADLEN][: n_out * DECIMATION : DECIMATION]
    return EmaRecord(rec.utterance_id, rec.sample_rate // DECIMATION, filtered + means,
                     rec.nan_repairs)


def _first_axis(xy: np.ndarray) -> np.ndarray:
    """First principal axis of centered 2D data, largest loading positive."""
    cov = xy.T @ xy / xy.shape[0]
    vals, vecs = np.linalg.eigh(cov)
    axis = vecs[:, np.argmax(vals)]
    if axis[np.argmax(np.abs(axis))] < 0:
        axis = -axis
    return axis


_GROUPS = {  # parameter -> (x channel, y channel) column indices
    "tongue_body": (CHANNELS.index("tb_x"), CHANNELS.index("tb_y")),
    "tongue_dorsum": (CHANNELS.index("td_x"), CHANNELS.index("td_y")),
    "tongue_tip": (CHANNELS.index("tt_x"), CHANNELS.index("tt_y")),
    "lip_protrusion": (CHANNELS.index("ul_x"), CHANNELS.index("ul_y")),
}
_LI = (CHANNELS.index("li_x"), CHANNELS.index("li_y"))
_UL_Y = CHANNELS.index("ul_y")
_LL_Y = CHANNELS.index("ll_y")


@dataclass(frozen=True)
class GuidedPcaModel:
    """Per-speaker linear decomposition of the 12 coil channels.

    ``matrix`` maps mean-centered channels to the 6 raw parameters;
    ``z_mean``/``z_std`` hold the training statistics used for z-scoring.
    """

    channel_means: np.ndarray  # (12,)
    jaw_axis: np.ndarray  # (2,)
    jaw_coef: np.ndarray  # (12,) regression of each channel on jaw (li entries 0)
    axes: dict  # parameter -> (2,) principal axis
    matrix: np.ndarray  # (12, 6)
    z_mean: np.ndarray  # (6,)
    z_std: np.ndarray  # (6,)

    def raw_parameters(self, channels: np.ndarray) -> np.ndarray:
        """Linear projection without z-scoring."""
        return (channels - self.channel_means) @ self.matrix


def fit_guided_pca(records: list[EmaRecord]) -> GuidedPcaModel:
    """Fit the jaw-first decomposition on pooled 100 Hz training frames."""
    if len(records) < 2:
        raise EmaError("guided PCA needs at least 2 training records")
    for r in records:
        if r.sample_rate != 100:
            raise EmaError(f"{r.utterance_id}: guided PCA expects 100 Hz records")
    pooled = np.concatenate([r.channels for r in records], axis=0)
    if pooled.shape[0] < 1000:
        raise EmaError(f"guided PCA needs >= 1000 pooled frames, got {pooled.shape[0]}")
    var = pooled.var(axis=0)
    for name, (cx, cy) in (("lower_incisor", _LI),) + tuple(
        (g, cols) for g, cols in _GROUPS.items()
    ):
        if var[cx] + var[cy] < 1e-12:
            raise EmaError(f"degenerate covariance: coil pair {name} never moves")
    means = pooled.mean(axis=0)
    centered = pooled - means

    jaw_axis = _first_axis(centered[:, list(_LI)])
    jaw = centered[:, list(_LI)] @ jaw_axis
    if jaw.var() < 1e-12:
        raise EmaError("degenerate covariance: jaw parameter has no variance")

    # Regress every non-incisor channel on the jaw parameter.
    denom = float(jaw @ jaw)
    jaw_coef = np.zeros(len(CHANNELS))
    for j in range(len(CHANNELS)):
        if j in _LI:
            continue
        jaw_coef[j] = float(jaw @ centered[:, j]) / denom
    residual = centered - np.outer(jaw, jaw_coef)

    axes = {}
    for name, (cx, cy) in _GROUPS.items():
        axes[name] = _first_axis(residual[:, [cx, cy]])

    # Assemble the composite 12 -> 6 map.  Each parameter is a functional of
    # the centered channels: group axis applied to residuals, which folds the
    # jaw regression back onto the lower-incisor channels.
    matrix = np.zeros((len(CHANNELS), 6))
    matrix[list(_LI), 0] = jaw_axis

    def _fill(col: int, loadings: dict[int, float]) -> None:
        jaw_part = 0.0
        for ch, w in loadings.items():
            matrix[ch, col] += w
            jaw_part += w * jaw_coef[ch]
        matrix[list(_LI), col] -= jaw_part * jaw_axis

    for col, name in enumerate(PARAMETERS[1:5], start=1):
        cx, cy = _GROUPS[name]
        ax = axes[name]
        _fill(col, {cx: ax[0], cy: ax[1]})
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    _fill(5, {_LL_Y: inv_sqrt2, _UL_Y: -inv_sqrt2})

    raw = centered @ matrix
    z_mean = raw.mean(axis=0)
    z_std = raw.std(axis=0)
    if np.any(z_std < 1e-12):
        raise EmaError("degenerate articulatory parameter (zero variance on training data)")
    return GuidedPcaModel(means, jaw_axis, jaw_coef, axes, matrix, z_mean, z_std)


def project(model: GuidedPcaModel, rec: EmaRecord) -> ArticulatorySeries:
    """Articulatory parameters of one record, z-scored with training stats."""
    if rec.sample_rate != 100:
        raise EmaError(f"{rec.utterance_id}: projection expects 100 Hz records")
    raw = model.raw_parameters(rec.channels)
    return ArticulatorySeries(rec.utterance_id, (raw - model.z_mean) / model.z_std)


def align_frames(z: ArticulatorySeries, fseg: FeaturalSegmentation) -> ArticulatorySeries:
    """Crop parameter frames to the trimmed utterance span of ``fseg``.

    The crop starts at the trimmed origin and extends for the trajectory
    frame count; a shortfall of one frame is tolerated (the pair is later
    truncated to the common length), anything more is a coverage error.
    """
    start = int(round(fseg.time_offset * z.frame_rate))
    n = frame_count(fseg.duration, z.frame_rate)
    avail = z.Z.shape[0] - start
    if start < 0 or avail < n - 1:
        raise EmaError(
            f"{z.utterance_id}: articulatory series ends before the utterance does "
            f"(needs {n} frames from {start}, has {max(avail, 0)})"
        )
    return ArticulatorySeries(z.utterance_id, z.Z[start : start + n].copy(), z.frame_rate)
