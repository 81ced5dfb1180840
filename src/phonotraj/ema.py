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
parameters are z-scored with training-partition statistics.  The fit reads
one 12 x 12 covariance of the pooled training frames, built in one pass
over the records: each record adds its frame count, its sum and its
scatter about its own mean, all taken after shifting every frame by the
first record's first frame.  So it reads each record once, may be given a
generator, and never holds the pooled frames.

The filter gives scipy's ``filtfilt`` result bit for bit without importing
``scipy.signal`` or ``scipy.linalg`` (about 1 s and 0.25 s of imports for
every process): the Butterworth coefficients and initial state are designed
in numpy by the calls ``scipy.signal.butter`` and ``lfilter_zi`` make, and
both passes run scipy's compiled recursion, loaded from its extension file
(``_linear_filter``).
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .alignment import FeaturalSegmentation
from .forward import _scipy_extension, frame_count
from .phonology import read_text

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


@dataclass(frozen=True)
class ArticulatorySeries:
    utterance_id: str
    Z: np.ndarray  # (n, 6) in PARAMETERS order
    frame_rate: float = 100.0


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
    end = raw.find(b"\n", end) + 1
    if end == 0:
        raise EmaError(f"{path}: truncated header")
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
    lines = [ln for ln in read_text(path, EmaError).splitlines() if ln.strip()]
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


def _butterworth(order: int, cutoff: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.signal.butter(order, cutoff, fs=fs)``, a digital low-pass as
    ``(b, a)``, made by the numpy calls scipy makes, in its order: the same
    ufuncs round the same way on any CPU, so the coefficients are bit-equal."""
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order))  # analog prototype poles (buttap)
    wo = float(4.0 * np.tan(np.pi * (cutoff / (fs / 2)) / 2.0))  # pre-warped cutoff
    p = wo * p  # lp2lp_zpk; the gain becomes wo**order
    # bilinear_zpk at fs = 2: every zero goes to -1, each pole s to (4 + s) / (4 - s)
    k = wo**order * np.real(1.0 / np.prod(4.0 - p))
    return k * _poly(-np.ones(order)), np.real(_poly((4.0 + p) / (4.0 - p))).copy()


def _poly(roots: np.ndarray) -> np.ndarray:
    """Coefficients of the monic polynomial with these roots, by ``np.convolve``."""
    c = np.ones(1, dtype=roots.dtype)
    for r in roots:
        c = np.convolve(c, [1, -r])
    return c


@cache
def _lowpass() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(b, a, zi)`` of the 50 Hz Butterworth low-pass at 500 Hz, designed
    once: ``zi`` is the state of its unit step response, as a column, solved
    as ``scipy.signal.lfilter_zi`` solves it."""
    b, a = _butterworth(FILTER_ORDER, CUTOFF_HZ, 500.0)
    companion = np.eye(len(a) - 1, k=-1)  # scipy.linalg.companion(a)
    companion[0] = -a[1:] / (1.0 * a[0])
    zi = np.linalg.solve(np.eye(len(a) - 1) - companion.T, b[1:] - a[1:] * b[0])
    return b, a, zi[:, None]


# The direct-form II recursion ``lfilter(b, a, x, axis, zi)``: the compiled
# routine ``scipy.signal.lfilter`` itself calls for a recursive filter.
_linear_filter = _scipy_extension("signal", "_sigtools")._linear_filter


# Samples of odd extension at each end, scipy's ``filtfilt`` default
# (3 * the filter's 6 taps); a track needs more samples than this.
PADLEN = 3 * (FILTER_ORDER + 1)


def filter_and_downsample(rec: EmaRecord) -> EmaRecord:
    """Zero-phase 50 Hz low-pass, then decimation from 500 Hz to 100 Hz.

    The forward-backward pass is the one ``scipy.signal.filtfilt`` makes
    with its defaults: odd extension by PADLEN samples at each end, and each
    pass started from the step-response state scaled by its first sample.
    The coefficients and that state come from ``_lowpass``, a numpy replica
    of ``butter`` and ``lfilter_zi``; each pass is the compiled recursion
    ``lfilter`` itself runs, so the output equals ``filtfilt``'s exactly.
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
    y, _ = _linear_filter(b, a, ext, 0, zi * ext[:1])
    y, _ = _linear_filter(b, a, y[::-1], 0, zi * y[-1:])
    # y runs backwards.  Keep every DECIMATION-th sample of the unpadded span;
    # adding the means makes a new array, so the record does not pin all of y.
    n_out = n // DECIMATION
    filtered = y[::-1][PADLEN:-PADLEN][: n_out * DECIMATION : DECIMATION]
    return EmaRecord(rec.utterance_id, rec.sample_rate // DECIMATION, filtered + means,
                     rec.nan_repairs)


def _first_axis(cov: np.ndarray) -> np.ndarray:
    """First principal axis of a 2 x 2 covariance, largest loading positive."""
    vals, vecs = np.linalg.eigh(cov)
    axis = vecs[:, np.argmax(vals)]
    if axis[np.argmax(np.abs(axis))] < 0:
        axis = -axis
    return axis


# The coil layout of the decomposition; generate_synthetic embeds parameters by it.
GROUPS = {  # parameter -> [x channel, y channel] column indices
    "tongue_body": [CHANNELS.index("tb_x"), CHANNELS.index("tb_y")],
    "tongue_dorsum": [CHANNELS.index("td_x"), CHANNELS.index("td_y")],
    "tongue_tip": [CHANNELS.index("tt_x"), CHANNELS.index("tt_y")],
    "lip_protrusion": [CHANNELS.index("ul_x"), CHANNELS.index("ul_y")],
}
LI = [CHANNELS.index("li_x"), CHANNELS.index("li_y")]  # the jaw's coil
UL_Y = CHANNELS.index("ul_y")
LL_Y = CHANNELS.index("ll_y")


@dataclass(frozen=True)
class GuidedPcaModel:
    """Per-speaker linear decomposition of the 12 coil channels.

    ``matrix`` maps mean-centered channels to the 6 raw parameters, whose
    training means are 0 because ``channel_means`` are the training means;
    ``z_std`` holds their training standard deviations, used for z-scoring.
    """

    channel_means: np.ndarray  # (12,)
    jaw_axis: np.ndarray  # (2,)
    jaw_coef: np.ndarray  # (12,) regression of each channel on jaw (li entries 0)
    axes: dict  # parameter -> (2,) principal axis
    matrix: np.ndarray  # (12, 6)
    z_std: np.ndarray  # (6,)

    def raw_parameters(self, channels: np.ndarray) -> np.ndarray:
        """Linear projection without z-scoring."""
        return (channels - self.channel_means) @ self.matrix


def fit_guided_pca(records: Iterable[EmaRecord]) -> GuidedPcaModel:
    """Fit the jaw-first decomposition on pooled 100 Hz training frames.

    ``records`` is read once, so it may be a generator.  With ``c`` the
    first record's first frame, record ``r`` leaves its frame count ``n_r``,
    the sum ``s_r`` of ``x - c`` and the scatter ``M_r`` of ``x - c`` about
    its own mean.  The means are ``c + μ'`` with ``μ' = Σ s_r / n``, and the
    covariance of the pooled frames is
    ``S = Σ [M_r + n_r (s_r/n_r - μ')(s_r/n_r - μ')ᵀ] / n`` (Chan, Golub &
    LeVeque, 1983); the shift keeps coordinates far from 0 from costing
    digits.

    Everything else is read from ``S``: the jaw axis ``a`` is the first axis
    of the incisor block, with variance ``v = aᵀ S_li a``; the jaw
    regression is ``S[:, li] a / v``; and the residuals' covariance is
    ``S - v · jaw_coef jaw_coefᵀ``, whose 2 x 2 blocks give the group axes.
    """
    n_records, counts, sums = 0, [], []
    scatter = np.zeros((len(CHANNELS), len(CHANNELS)))
    shift = None
    for rec in records:
        n_records += 1
        if rec.sample_rate != 100:
            raise EmaError(f"{rec.utterance_id}: guided PCA expects 100 Hz records")
        if len(rec.channels):
            if shift is None:
                shift = rec.channels[0].copy()
            x = rec.channels - shift
            s = x.sum(axis=0)
            x -= s / len(x)
            scatter += x.T @ x
            counts.append(len(x))
            sums.append(s)
            del x
        del rec  # released before the next record is read
    if n_records < 2:
        raise EmaError("guided PCA needs at least 2 training records")
    n = sum(counts)
    if n < 1000:
        raise EmaError(f"guided PCA needs >= 1000 pooled frames, got {n}")
    counts, sums = np.array(counts, dtype=float), np.array(sums)
    mean_shift = sums.sum(axis=0) / n
    means = shift + mean_shift
    spread = sums / counts[:, None] - mean_shift  # each record's mean about the pooled one
    S = (scatter + (spread.T * counts) @ spread) / n
    var = np.diag(S)
    for name, (cx, cy) in [("lower_incisor", LI), *GROUPS.items()]:
        if var[cx] + var[cy] < 1e-12:
            raise EmaError(f"degenerate covariance: coil pair {name} never moves")

    jaw_axis = _first_axis(S[np.ix_(LI, LI)])
    jaw_var = jaw_axis @ S[np.ix_(LI, LI)] @ jaw_axis
    if jaw_var < 1e-12:
        raise EmaError("degenerate covariance: jaw parameter has no variance")
    jaw_coef = S[:, LI] @ jaw_axis / jaw_var
    jaw_coef[LI] = 0.0
    residual_cov = S - jaw_var * np.outer(jaw_coef, jaw_coef)
    axes = {name: _first_axis(residual_cov[np.ix_(cols, cols)]) for name, cols in GROUPS.items()}

    # Each parameter after the jaw loads the residuals x - jaw·jaw_coef with
    # jaw = x[li]·jaw_axis, so its jaw regression folds onto the incisor rows.
    matrix = np.zeros((len(CHANNELS), 6))
    for col, name in enumerate(PARAMETERS[1:5], start=1):
        matrix[GROUPS[name], col] = axes[name]
    matrix[[LL_Y, UL_Y], 5] = (1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0))
    matrix[LI] -= np.outer(jaw_axis, jaw_coef @ matrix)
    matrix[LI, 0] = jaw_axis

    z_std = np.sqrt(np.diag(matrix.T @ S @ matrix))
    if np.any(z_std < 1e-12):
        raise EmaError("degenerate articulatory parameter (zero variance on training data)")
    return GuidedPcaModel(means, jaw_axis, jaw_coef, axes, matrix, z_std)


def project(model: GuidedPcaModel, rec: EmaRecord) -> ArticulatorySeries:
    """Articulatory parameters of one record, z-scored with training stats."""
    if rec.sample_rate != 100:
        raise EmaError(f"{rec.utterance_id}: projection expects 100 Hz records")
    return ArticulatorySeries(rec.utterance_id, model.raw_parameters(rec.channels) / model.z_std)


def frame_span(utterance_id: str, available: int, fseg: FeaturalSegmentation,
               frame_rate: float) -> slice:
    """The rows of a track of ``available`` frames that cover the trimmed
    utterance span of ``fseg``.

    The span starts at the trimmed origin and extends for the trajectory
    frame count; a shortfall of one frame is tolerated (the pair is later
    truncated to the common length), anything more is a coverage error.
    """
    start = int(round(fseg.time_offset * frame_rate))
    n = frame_count(fseg.duration, frame_rate)
    avail = available - start
    if start < 0 or avail < n - 1:
        raise EmaError(
            f"{utterance_id}: articulatory series ends before the utterance does "
            f"(needs {n} frames from {start}, has {max(avail, 0)})"
        )
    return slice(start, start + n)


def align_frames(z: ArticulatorySeries, fseg: FeaturalSegmentation) -> ArticulatorySeries:
    """Crop parameter frames to the trimmed utterance span of ``fseg``, by
    ``frame_span``'s rule."""
    rows = frame_span(z.utterance_id, z.Z.shape[0], fseg, z.frame_rate)
    return ArticulatorySeries(z.utterance_id, z.Z[rows].copy(), z.frame_rate)
