"""Forced-alignment ingestion and featural segmentation.

Reads phone-level alignments (.lab or Praat TextGrid), strips boundary
silences and converts the surviving phones into a matrix of feature-vector
targets with interval times and midpoint timings.  Target row 1 and row K+2
are synthetic zero targets pinning the trajectory to zero at both utterance
boundaries: the first has the degenerate interval (0, 0) and the last
repeats the final phone offset.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path as _Path

import numpy as np

from .phonology import SILENCE, FeatureTable, normalize_label, read_text

_TIME_EPS = 1e-6  # tolerated interval mismatch in seconds


class AlignmentError(ValueError):
    """Unparseable or inconsistent alignment data."""


@dataclass(frozen=True)
class Phone:
    label: str
    start: float
    end: float


@dataclass(frozen=True)
class PhoneSegmentation:
    """Contiguous phone intervals for one utterance.

    ``offset`` is the stretch of leading silence (seconds) removed by
    trimming; times inside ``phones`` are relative to the trimmed origin.
    """

    utterance_id: str
    phones: tuple[Phone, ...]
    offset: float = 0.0

    def __len__(self) -> int:
        return len(self.phones)


@dataclass(frozen=True)
class FeaturalSegmentation:
    """Featural targets for one utterance.

    Phone k is row ``rows[k]`` of ``targets``, a feature table's matrix held
    by reference, so all segmentations of one table share it.  X, built on
    every read and never stored, holds the K+2 target rows: the phones' rows
    between two zero rows (NaN = unknown entry).  Y holds the matching time
    intervals and t the interval midpoints.  ``time_offset`` carries the
    leading-silence trim so EMA frames can be re-aligned later.
    """

    utterance_id: str
    targets: np.ndarray  # (n, d)
    rows: np.ndarray  # (K,) indices into targets
    Y: np.ndarray  # (K+2, 2)
    t: np.ndarray  # (K+2,)
    time_offset: float = 0.0

    @property
    def X(self) -> np.ndarray:
        X = np.zeros((len(self.rows) + 2, self.targets.shape[1]))
        X[1:-1] = self.targets[self.rows]
        return X

    @property
    def num_targets(self) -> int:
        return len(self.rows)

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    @property
    def specified(self) -> np.ndarray:
        return ~np.isnan(self.X)


def _validate_contiguous(utt: str, phones: list[Phone]) -> None:
    if not phones:
        raise AlignmentError(f"{utt}: empty segmentation")
    prev_end = None
    for ph in phones:
        if not (math.isfinite(ph.start) and math.isfinite(ph.end)):
            raise AlignmentError(
                f"{utt}: non-finite time in [{ph.start}, {ph.end}] for {ph.label!r}")
        if ph.start < -_TIME_EPS:
            raise AlignmentError(f"{utt}: negative start time {ph.start} for {ph.label!r}")
        if ph.end <= ph.start:
            raise AlignmentError(
                f"{utt}: empty or inverted interval [{ph.start}, {ph.end}] for {ph.label!r}"
            )
        if prev_end is not None and abs(ph.start - prev_end) > _TIME_EPS:
            raise AlignmentError(
                f"{utt}: intervals not contiguous at t={prev_end} vs {ph.start}"
            )
        prev_end = ph.end


def parse_lab(path) -> PhoneSegmentation:
    """Parse a whitespace-separated `start end label` alignment file."""
    path = _Path(path)
    phones = []
    for i, line in enumerate(read_text(path, AlignmentError).splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise AlignmentError(f"{path}:{i}: expected 'start end label'")
        try:
            start, end = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise AlignmentError(f"{path}:{i}: bad time field") from exc
        phones.append(Phone(" ".join(parts[2:]), start, end))
    _validate_contiguous(path.stem, phones)
    return PhoneSegmentation(path.stem, tuple(phones))


# A TextGrid token is a quoted string, in which Praat doubles an inner '"',
# or a bare word.  Bare words that start like a number are numbers; the rest
# ("xmin =", "intervals [1]:", "<exists>") only name or index values.
_TG_TOKEN = re.compile(r'"((?:[^"]|"")*)"|(\S+)')


def _textgrid_tokens(path: _Path, text: str):
    """The strings (str) and numbers (float) of a TextGrid, long or short form."""
    for m in _TG_TOKEN.finditer(text):
        if m.group(1) is not None:
            yield m.group(1).replace('""', '"')
        elif m.group(2)[0] in "+-.0123456789":
            try:
                yield float(m.group(2))
            except ValueError as exc:
                raise AlignmentError(f"{path}: {m.group(2)!r} is not a number") from exc


def parse_textgrid(path) -> PhoneSegmentation:
    """Parse the first interval tier of a Praat TextGrid (long or short form).

    Both forms hold the same value sequence after the "IntervalTier" class
    string: tier name, xmin, xmax, interval count n, then n (xmin, xmax,
    text) triples.
    """
    path = _Path(path)
    tokens = _textgrid_tokens(path, read_text(path, AlignmentError))
    if "IntervalTier" not in tokens:  # consumes the tokens up to the tier's class
        raise AlignmentError(f"{path}: no interval tier found")

    def take(kind: type):
        token = next(tokens, None)
        if token is None:
            raise AlignmentError(f"{path}: truncated interval tier")
        if not isinstance(token, kind):
            raise AlignmentError(f"{path}: expected a {'label' if kind is str else 'number'}, "
                                 f"got {token!r}")
        return token

    for kind in (str, float, float):  # tier name, xmin, xmax
        take(kind)
    n = take(float)
    if n < 0 or not n.is_integer():
        raise AlignmentError(f"{path}: bad interval count {n:g}")
    phones = []
    for _ in range(int(n)):
        start, end = take(float), take(float)
        phones.append(Phone(take(str).strip(), start, end))
    _validate_contiguous(path.stem, phones)
    return PhoneSegmentation(path.stem, tuple(phones))


ALIGNMENT_READERS = {".lab": parse_lab, ".textgrid": parse_textgrid}


def parse_alignment(path) -> PhoneSegmentation:
    """Parse an alignment file with the reader its suffix names in ALIGNMENT_READERS."""
    path = _Path(path)
    reader = ALIGNMENT_READERS.get(path.suffix.lower())
    if reader is None:
        raise AlignmentError(f"{path}: unknown alignment suffix {path.suffix!r}; "
                             f"known: {', '.join(ALIGNMENT_READERS)}")
    return reader(path)


def is_silence(label: str) -> bool:
    return normalize_label(label) == SILENCE


def trim_and_filter(seg: PhoneSegmentation) -> PhoneSegmentation | None:
    """Strip boundary silences, re-timing the remainder to start at zero.

    Returns None (rejection) when silence flanks only one side of the
    utterance, or nothing survives the trim.  Segmentations without any
    boundary silence are returned unchanged, which makes the operation
    idempotent on its own output.
    """
    phones = seg.phones
    lead = 0
    while lead < len(phones) and is_silence(phones[lead].label):
        lead += 1
    trail = 0
    while trail < len(phones) - lead and is_silence(phones[len(phones) - 1 - trail].label):
        trail += 1
    if lead == 0 and trail == 0:
        return seg
    if lead == 0 or trail == 0:
        return None  # speech runs into exactly one utterance boundary
    kept = phones[lead : len(phones) - trail]
    if not kept:
        return None
    shift = kept[0].start
    moved = tuple(Phone(p.label, p.start - shift, p.end - shift) for p in kept)
    return PhoneSegmentation(seg.utterance_id, moved, offset=seg.offset + shift)


def build_featural(seg: PhoneSegmentation, table: FeatureTable) -> FeaturalSegmentation:
    """Replace phones with their rows of ``table.matrix``, which the
    segmentation holds by reference."""
    if len(seg) == 0:
        raise AlignmentError(f"{seg.utterance_id}: cannot build targets from empty segmentation")
    end = seg.phones[-1].end
    rows = np.array([table.row(ph.label) for ph in seg.phones])
    Y = np.array([(0.0, 0.0), *((ph.start, ph.end) for ph in seg.phones), (end, end)])
    t = Y.mean(axis=1)
    if not np.all(np.diff(t) > 0):
        raise AlignmentError(f"{seg.utterance_id}: midpoint timings are not strictly increasing")
    return FeaturalSegmentation(seg.utterance_id, table.matrix, rows, Y, t, seg.offset)
