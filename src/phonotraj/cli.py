"""Experiment orchestration and command-line front-end.

Dataset layout: one directory per speaker under the dataset root, holding an
alignment (.lab or .TextGrid) and an EMA file (.ema EST track or .csv) per
utterance, paired by file stem.  A JSON config file declares speakers,
feature set, interpolation method, optimization flags and splits; see
ExperimentConfig for the field list.

The pipeline is deterministic given the config and the input bytes; stage
outputs are cached under <out>/cache keyed by content hashes, so reruns only
recompute stages whose inputs changed.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import pickle
import sys
import tempfile
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .alignment import (ALIGNMENT_READERS, AlignmentError, FeaturalSegmentation, Phone,
                        PhoneSegmentation, build_featural, parse_alignment,
                        trim_and_filter)
from .ema import (CHANNELS, EMA_READERS, GROUPS, LI, LL_Y, PARAMETERS, ArticulatorySeries,
                  EmaError, EmaRecord, align_frames, filter_and_downsample, fit_guided_pca,
                  load_ema, project, write_est_track)
from .forward import ForwardError, InterpMethod, Trajectory, synthesize, synthesize_targets
from .optimize import (GRID_AXES, OptimConfig, OptimizeError, grid_configs, grid_fields,
                       optimize_targets)
from .phonology import FeatureTable, FeatureTableError, get_table, load_feature_table
from .probe import ProbeError, ScoreReport, aggregate, score, train_probe

log = logging.getLogger(__name__)

REPLICATION_SPLITS = (390, 20, 50)  # train (without dev), dev, test


class ConfigError(ValueError):
    """Invalid experiment configuration or dataset layout."""


# The errors the package raises for bad input: a stage turns them into a
# ConfigError that names it, and ``main`` reports them with exit code 1.
INPUT_ERRORS = (FeatureTableError, AlignmentError, EmaError, ForwardError, OptimizeError,
                ProbeError)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_root: str
    speakers: tuple[str, ...]
    feature_set: str = "gp_unknown_phoneme"
    feature_table_path: str | None = None  # required for custom feature sets
    method: str = "linear"
    optimize_timing: bool = False
    optimize_position: bool = False
    grid: dict | None = None  # axis overrides for the grid, see optimize.GRID_AXES
    split_sizes: tuple[int, int, int] = REPLICATION_SPLITS
    seed: int = 0
    out_dir: str = "out"
    max_steps: int = OptimConfig.max_steps
    min_gap: float = OptimConfig.min_gap

    frame_rate = 100.0  # Hz, the rate of the EMA frames; a class constant, not a field

    def __post_init__(self):
        for name in ("dataset_root", "feature_set", "method", "out_dir", "feature_table_path"):
            value = getattr(self, name)
            if not (isinstance(value, str) or (value is None and name == "feature_table_path")):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        if not (isinstance(self.speakers, (list, tuple))
                and all(isinstance(s, str) for s in self.speakers)):
            raise ConfigError(f"speakers must be a list of names, got {self.speakers!r}")
        if not self.speakers:
            raise ConfigError("config lists no speakers")
        repeated = sorted({s for s in self.speakers if self.speakers.count(s) > 1})
        if repeated:
            raise ConfigError(f"speakers listed more than once: {', '.join(repeated)}")
        if not (isinstance(self.split_sizes, (list, tuple)) and len(self.split_sizes) == 3
                and all(_is_int(s) for s in self.split_sizes)):
            raise ConfigError(f"split_sizes must be three integers, got {self.split_sizes!r}")
        if min(self.split_sizes) < 1:
            raise ConfigError("every split needs at least one utterance")
        if not _is_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        try:  # OptimConfig, grid_configs and InterpMethod hold their own rules
            optim = self.optim
            if self.grid is not None:
                grid_configs(optim, self.grid)
            method = self.interp_method
        except (OptimizeError, ForwardError) as exc:
            raise ConfigError(str(exc)) from exc
        if not method.is_cubic and self.wants_optimization:
            raise ConfigError("target optimization requires a cubic interpolation method")

    @functools.cached_property
    def optim(self) -> OptimConfig:
        """The optimizer settings every grid point shares."""
        return OptimConfig(max_steps=self.max_steps, optimize_timing=self.optimize_timing,
                           optimize_position=self.optimize_position, min_gap=self.min_gap)

    @property
    def interp_method(self) -> InterpMethod:
        return InterpMethod.from_id(self.method)

    @property
    def wants_optimization(self) -> bool:
        return self.optimize_timing or self.optimize_position

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name in ("speakers", "split_sizes"):
            if isinstance(raw.get(name), list):
                raw[name] = tuple(raw[name])
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2, sort_keys=True)


@dataclass(frozen=True)
class Splits:
    train: tuple[str, ...]
    dev: tuple[str, ...]
    test: tuple[str, ...]


def make_splits(ids, sizes: tuple[int, int, int], seed: int) -> Splits:
    """Deterministic train/dev/test partition.

    Test takes the last ``sizes[2]`` ids in sorted order; dev is drawn
    uniformly from the remaining pool by the seed; train is the rest.
    """
    ids = sorted(ids)
    if len(ids) != len(set(ids)):
        raise ConfigError("duplicate utterance ids")
    n_train, n_dev, n_test = sizes
    if len(ids) != n_train + n_dev + n_test:
        raise ConfigError(
            f"{len(ids)} utterances cannot be split into {n_train}+{n_dev}+{n_test}"
        )
    test = tuple(ids[len(ids) - n_test :])
    pool = ids[: len(ids) - n_test]
    rng = np.random.default_rng(seed)
    dev_idx = set(rng.choice(len(pool), size=n_dev, replace=False).tolist())
    dev = tuple(pool[i] for i in sorted(dev_idx))
    train = tuple(pool[i] for i in range(len(pool)) if i not in dev_idx)
    return Splits(train, dev, test)


# ---------------------------------------------------------------------------
# dataset discovery and content hashing
# ---------------------------------------------------------------------------

def discover_utterances(root: Path, speaker: str) -> list[tuple[str, Path, Path]]:
    """(utterance id, ema path, alignment path) triples, sorted by id.  Two
    alignments or two EMA files with one stem are a ConfigError."""
    spk_dir = root / speaker
    if not spk_dir.is_dir():
        raise ConfigError(f"speaker directory missing: {spk_dir}")
    stems: dict[str, dict[str, Path]] = {}
    for p in spk_dir.iterdir():
        suffix = p.suffix.lower()
        kind = ("alignment" if suffix in ALIGNMENT_READERS
                else "EMA" if suffix in EMA_READERS else None)
        if kind is None:
            continue
        pair = stems.setdefault(p.stem, {})
        if kind in pair:
            raise ConfigError(f"{speaker}/{p.stem}: two {kind} files, "
                              + " and ".join(sorted((pair[kind].name, p.name))))
        pair[kind] = p
    out = []
    for stem in sorted(stems):
        pair = stems[stem]
        if "alignment" in pair and "EMA" in pair:
            out.append((stem, pair["EMA"], pair["alignment"]))
        else:
            log.warning("%s/%s: unpaired file, skipped", speaker, stem)
    if not out:
        raise ConfigError(f"no utterances found for speaker {speaker}")
    return out


def _digest(parts: Iterable) -> str:
    """SHA-256 of the parts, each after its 8-byte length: bytes as they are,
    any other part as its sorted JSON.  Parts are taken one at a time, so a
    generator of file contents holds one file at once."""
    h = hashlib.sha256()
    for part in parts:
        b = part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode()
        h.update(len(b).to_bytes(8, "little"))
        h.update(b)
    return h.hexdigest()


class Cache:
    """Content-addressed pickle store for stage outputs."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def get(self, key: str):
        p = self.path(key)
        if not p.exists():
            return None
        try:
            with open(p, "rb") as f:
                return pickle.load(f)
        except Exception:  # corrupt cache entry: recompute
            return None

    def put(self, key: str, value) -> None:
        """Write through this writer's own temporary file: runs may share a cache."""
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f)
            os.replace(tmp, self.path(key))
        except BaseException:
            os.unlink(tmp)
            raise


@dataclass
class RunManifest:
    config: dict
    source_digest: str  # the cache keys' code and numeric stack
    version: str = __version__
    stages: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"version": self.version, "config": self.config,
             "source_digest": self.source_digest, "numpy_version": np.__version__,
             "scipy_version": scipy.__version__, "stages": self.stages},
            indent=2, sort_keys=True,
        )


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def resolve_table(cfg: ExperimentConfig) -> FeatureTable:
    """The config's feature table; a custom table's path is relative to dataset_root."""
    path = cfg.feature_table_path and Path(cfg.dataset_root) / cfg.feature_table_path
    return get_table(cfg.feature_set, path)


@dataclass
class SpeakerData:
    """Everything the probe needs for one speaker, keyed by utterance id."""

    speaker: str
    splits: Splits
    fsegs: dict
    series: dict  # utterance id -> aligned ArticulatorySeries
    rejected: tuple[str, ...]
    nan_repairs: int = 0

    def part(self, which: str) -> tuple[str, ...]:
        ids = getattr(self.splits, which)
        return tuple(u for u in ids if u in self.fsegs)


def prepare_speaker(cfg: ExperimentConfig, table: FeatureTable, speaker: str) -> SpeakerData:
    """Ingest one speaker: parse, trim, featurize, filter EMA, guided PCA."""
    root = Path(cfg.dataset_root)
    utts = discover_utterances(root, speaker)
    splits = make_splits([u for u, _, _ in utts], cfg.split_sizes, cfg.seed)

    fsegs: dict[str, FeaturalSegmentation] = {}
    records: dict[str, EmaRecord] = {}
    rejected = []
    repairs = 0
    for utt, ema_path, align_path in utts:
        seg = parse_alignment(align_path)
        trimmed = trim_and_filter(seg)
        if trimmed is None or len(trimmed) == 0:
            rejected.append(utt)
            continue
        fsegs[utt] = build_featural(trimmed, table)
        rec = load_ema(ema_path)
        if rec.sample_rate == 500:
            rec = filter_and_downsample(rec)
        records[utt] = rec
        repairs += rec.nan_repairs
    if rejected:
        log.info("%s: %d utterances rejected at trim: %s", speaker,
                 len(rejected), " ".join(rejected[:8]))

    train_ids = [u for u in splits.train if u in fsegs]
    if len(train_ids) < 2:
        raise ConfigError(f"{speaker}: not enough training utterances after trimming")
    model = fit_guided_pca([records[u] for u in train_ids])

    series: dict[str, ArticulatorySeries] = {}
    for utt, fseg in fsegs.items():
        series[utt] = align_frames(project(model, records[utt]), fseg)
    return SpeakerData(speaker, splits, fsegs, series, tuple(rejected), repairs)


@functools.cache
def _source_digest() -> str:
    """Digest of the package's own code and data files, read once per process,
    and of the numpy and scipy versions: their compiled routines, called
    directly, decide output bits too."""
    pkg = Path(__file__).resolve().parent
    files = sorted(pkg.glob("*.py")) + sorted(pkg.glob("data/*"))
    return _digest(chain((np.__version__, scipy.__version__), chain.from_iterable(
        (p.relative_to(pkg).as_posix(), p.read_bytes()) for p in files)))


class Run:
    """One run's cache, manifest, resolved feature table and the input digests
    its stages asked for; it holds no prepared speaker.  ``stage`` is the only
    code that reads or writes the cache and records a stage in the manifest."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.table = resolve_table(cfg)  # a set that cannot work fails before any input is read
        if (cfg.interp_method is InterpMethod.PIECEWISE_CONSTANT
                and np.isnan(self.table.matrix).any()):
            raise ConfigError(f"piecewise-constant requires a fully specified feature set; "
                              f"{cfg.feature_set} has unknown entries")
        self.out = Path(cfg.out_dir)
        self.cache = Cache(self.out / "cache")
        self.manifest = RunManifest(config=json.loads(json.dumps(asdict(cfg), default=str)),
                                    source_digest=_source_digest())
        self._digests: dict[str, str] = {}

    def digest(self, speaker: str) -> str:
        """Digest of everything that decides ``speaker``'s prepared data: the
        package source, the feature table's contents, the split config, the
        speaker's name and its input files, each file read as it is hashed.
        Made when a stage of ``speaker`` first asks for it."""
        if speaker not in self._digests:
            cfg, table = self.cfg, self.table
            head = (_source_digest(), cfg.feature_set, table.names, table.inventory,
                    table.matrix.tobytes(), cfg.split_sizes, cfg.seed, speaker)
            utts = discover_utterances(Path(cfg.dataset_root), speaker)
            files = chain.from_iterable((utt.encode(), ema.read_bytes(), align.read_bytes())
                                        for utt, ema, align in utts)
            try:
                self._digests[speaker] = _digest(chain(head, files))
            except OSError as exc:  # a file that cannot be read, such as a dangling link
                raise ConfigError(f"{exc.filename}: {exc.strerror}") from exc
        return self._digests[speaker]

    def stage(self, name: str, key: str, compute, describe=None):
        """The cached value under ``key``, or ``compute()`` stored there.

        Records one manifest entry with the stage's own time, whether it was
        cached and the fields ``describe(value)`` returns.  An input error
        (``INPUT_ERRORS``) that ``compute`` raises becomes a ConfigError
        naming the stage.
        """
        t0 = time.perf_counter()
        value = self.cache.get(key)
        cached = value is not None
        if not cached:
            try:
                value = compute()
            except INPUT_ERRORS as exc:
                raise ConfigError(f"stage {name} failed: {exc}") from exc
            self.cache.put(key, value)
        self.manifest.stages.append({
            "stage": name, "key": key, "cached": cached,
            "seconds": round(time.perf_counter() - t0, 6), **(describe(value) if describe else {}),
        })
        return value

    def key(self, kind: str, speakers, optim: OptimConfig | None) -> str:
        """Key of a synthesis stage over ``speakers``: their input digests,
        in order, and the settings that decide the trajectories, the method
        by its id, so every spelling of one method shares a key."""
        return f"{kind}-" + _digest([*map(self.digest, speakers), self.cfg.interp_method.value,
                                     self.cfg.frame_rate, asdict(optim) if optim else None])

    def prepare(self, speaker: str) -> SpeakerData:
        return self.stage(f"prepare/{speaker}", "prep-" + self.digest(speaker),
                          lambda: prepare_speaker(self.cfg, self.table, speaker))

    def each_speaker(self, fn) -> list:
        """``fn(data)`` of each speaker in config order.  A speaker is
        prepared when its turn comes and released when ``fn`` returns, before
        the next one is prepared, so one speaker is in memory at a time."""
        return [fn(self.prepare(s)) for s in self.cfg.speakers]

    def write_manifest(self) -> None:
        (self.out / "manifest.json").write_text(self.manifest.to_json(), encoding="utf-8")


def _speaker_pairs(data: SpeakerData, cfg: ExperimentConfig, optim: OptimConfig | None,
                   part: str, steps: list | None = None) -> list:
    """(trajectory, measured series) pairs of split ``part``.  With ``optim``
    the targets are optimized first, and each utterance's number of kept
    descent steps is appended to ``steps``."""
    method = cfg.interp_method
    pairs = []
    for u in data.part(part):
        fseg = data.fsegs[u]
        if optim is None:
            traj = synthesize(fseg, method, cfg.frame_rate)
        else:
            opt = optimize_targets(fseg, method, optim)
            if steps is not None:
                steps.append(opt.steps)
            traj = synthesize_targets(fseg.utterance_id, opt.t, opt.X, method, cfg.frame_rate)
        pairs.append((traj, data.series[u]))
    return pairs


def _speaker_score(
    data: SpeakerData, cfg: ExperimentConfig, optim: OptimConfig | None, eval_part: str
) -> tuple[np.ndarray, list[int]]:
    """Pearson row on ``eval_part`` of the probe fitted on train, and the kept
    descent steps of each optimized utterance, in synthesis order.

    Train and dev are synthesized and the probe is fitted; a test
    ``eval_part`` is synthesized only after the fit's pairs are released, so
    the train and test trajectories are never held together.  A grid point
    scores dev, the pairs it already has.
    """
    steps: list[int] = []
    train = _speaker_pairs(data, cfg, optim, "train", steps)
    dev = _speaker_pairs(data, cfg, optim, "dev", steps)
    probe = train_probe(train, dev)
    if eval_part == "dev":
        return score(probe, dev), steps
    del train, dev
    return score(probe, _speaker_pairs(data, cfg, optim, eval_part, steps)), steps


def _grid_axes(oc: OptimConfig) -> dict:
    """The grid point ``oc`` by the OptimConfig fields the grid searched, as
    the manifest names them: a disabled block's rate is left out."""
    return {name: getattr(oc, name) for name in grid_fields(oc)}


def _json_axes(oc: OptimConfig) -> dict:
    """``_grid_axes(oc)`` as grid.json's points and ``grid`` name them:
    ``lam`` is ``lambda``."""
    return {("lambda" if name == "lam" else name): v for name, v in _grid_axes(oc).items()}


def _grid_point(cfg: ExperimentConfig, data: list[SpeakerData],
                oc: OptimConfig) -> tuple[dict, dict]:
    """One grid point's row of grid.json and its manifest fields, which add
    the number of utterances optimized and of those that kept a step
    (``improved``)."""
    results = [_speaker_score(d, cfg, oc, "dev") for d in data]
    dev_score = aggregate(np.vstack([r for r, _ in results]), tuple(cfg.speakers)).grand
    steps = [n for _, point_steps in results for n in point_steps]
    return ({**_json_axes(oc), "dev_score": dev_score},
            {**_grid_axes(oc), "dev_score": dev_score, "optimized": len(steps),
             "improved": sum(n > 0 for n in steps)})


def grid_search(run: Run) -> tuple[OptimConfig, list[dict]]:
    """Evaluate the hyper-parameter grid of ``run.cfg`` on the development
    split and write grid.json.

    Returns the best configuration (dev articulatory score argmax; ties fall
    to the smallest lambda, then the smallest learning rates through the
    deterministic grid order) and the per-point score table.  The descent
    keeps only steps that lower the objective, so a point whose rate
    overshoots keeps its input targets and still has a dev score; a grid in
    which no point improved any utterance logs a warning.  Each point is a
    cached stage of ``run``; the first one that is not cached prepares every
    speaker, and they are held until the grid returns.
    """
    cfg = run.cfg
    if not cfg.wants_optimization:
        raise ConfigError("grid search requires optimization to be enabled")
    configs = grid_configs(cfg.optim, cfg.grid)
    every = functools.cache(lambda: [run.prepare(s) for s in cfg.speakers])
    points = [run.stage("grid-eval", run.key("grid", cfg.speakers, oc),
                        lambda oc=oc: _grid_point(cfg, every(), oc),
                        describe=lambda point: point[1])
              for oc in configs]
    if not any(fields["improved"] for _, fields in points):
        log.warning("no grid point improved any utterance: the optimizer returned its input "
                    "targets at all %d points", len(points))
    rows = [row for row, _ in points]
    best = configs[int(np.argmax([r["dev_score"] for r in rows]))]
    # the grid's fields it did not search: a disabled block's rate
    unused = {name for name, _, _ in GRID_AXES.values()}.difference(grid_fields(best))
    (run.out / "grid.json").write_text(
        json.dumps({"best": {k: v for k, v in asdict(best).items() if k not in unused},
                    "points": rows}, indent=2, sort_keys=True),
        encoding="utf-8")
    return best, rows


def run_experiment(cfg: ExperimentConfig) -> tuple[ScoreReport, RunManifest]:
    """Full pipeline: ingest -> synthesize (optionally optimized) -> probe -> score.

    With target optimization ``grid_search`` picks the settings first.  Then
    each speaker is prepared, scored and released in turn
    (``Run.each_speaker``): after any ``grid-eval`` entries the manifest lists
    ``prepare/s0, score/s0, prepare/s1, score/s1, ...`` and one speaker is in
    memory at a time.
    """
    run = Run(cfg)
    optim = grid_search(run)[0] if cfg.wants_optimization else None

    def score_stage(d: SpeakerData) -> np.ndarray:
        return run.stage(f"score/{d.speaker}", run.key("score", [d.speaker], optim),
                         lambda: _speaker_score(d, cfg, optim, "test")[0])

    report = aggregate(np.vstack(run.each_speaker(score_stage)), tuple(cfg.speakers))
    (run.out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (run.out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    run.write_manifest()
    return report, run.manifest


# ---------------------------------------------------------------------------
# synthetic dataset generation
# ---------------------------------------------------------------------------


def generate_synthetic(
    root,
    speakers: int = 2,
    utterances: int = 56,
    dim: int = 10,
    seed: int = 0,
    noise: float = 0.0,
) -> Path:
    """Write a synthetic dataset whose articulatory parameters are an exact
    affine image of the linear-interpolation trajectory.

    The feature table has 12 phones, each entry unknown with probability
    0.2.  Phone durations land on the 10 ms frame grid so EMA frames and
    trajectory frames align exactly.  EMA channels embed the 6 parameters by
    ``ema``'s own coil layout (``LI``, ``GROUPS``, ``LL_Y``), through a fixed
    full-rank linear map per speaker, which guided PCA inverts up to an
    affine change of basis the probe absorbs.
    """
    if speakers < 1 or utterances < 1 or dim < 1:
        raise ConfigError("speakers, utterances and dim must be >= 1")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    labels = [f"ph{i:02d}" for i in range(12)]
    rows = []
    for ph in labels:
        symbols = []
        for _ in range(dim):
            if rng.random() < 0.2:
                symbols.append("0")
            else:
                symbols.append("+" if rng.random() < 0.5 else "-")
        # Ensure at least one specified entry so no row is fully unknown.
        if all(s == "0" for s in symbols):
            symbols[int(rng.integers(dim))] = "+"
        rows.append((ph, symbols))
    table_lines = ["phoneme\t" + "\t".join(f"f{j}" for j in range(dim))]
    table_lines += [ph + "\t" + "\t".join(sym) for ph, sym in rows]
    (root / "features.tsv").write_text("\n".join(table_lines) + "\n", encoding="utf-8")
    table = load_feature_table(root / "features.tsv", "custom")

    # Lower-incisor axis and group axes satisfy the largest-loading-positive
    # convention, so the fitted model reproduces them exactly.
    jaw_axis = np.array([0.6, 0.8])
    group_axes = {
        "tongue_body": np.array([0.8, -0.6]),
        "tongue_dorsum": np.array([-0.6, 0.8]),
        "tongue_tip": np.array([0.8, 0.6]),
        "lip_protrusion": np.array([4.0, 1.0]) / np.sqrt(17.0),
    }

    for s in range(speakers):
        speaker = f"spk{s:02d}"
        spk_dir = root / speaker
        spk_dir.mkdir(exist_ok=True)
        A = rng.normal(0.0, 0.5, size=(6, dim))
        b = rng.normal(0.0, 0.5, size=6)
        beta = rng.normal(0.0, 0.3, size=len(CHANNELS))
        offsets = rng.normal(0.0, 1.0, size=len(CHANNELS))
        for u in range(utterances):
            utt = f"{speaker}_{u:03d}"
            k = int(rng.integers(3, 9))
            durs = rng.integers(3, 31, size=k) * 0.01  # 30..300 ms on-grid
            lead = int(rng.integers(20, 51)) * 0.01
            tail = int(rng.integers(20, 51)) * 0.01
            names = [labels[int(rng.integers(len(labels)))] for _ in range(k)]

            bounds = np.concatenate([[0.0], np.cumsum(durs)])
            lab_lines = [f"0.000000 {lead:.6f} sil"]
            for i, name in enumerate(names):
                lab_lines.append(
                    f"{lead + bounds[i]:.6f} {lead + bounds[i + 1]:.6f} {name}"
                )
            total = lead + bounds[-1] + tail
            lab_lines.append(f"{lead + bounds[-1]:.6f} {total:.6f} sil")
            (spk_dir / f"{utt}.lab").write_text("\n".join(lab_lines) + "\n",
                                                encoding="utf-8")

            phones_rel = tuple(
                Phone(name, float(bounds[i]), float(bounds[i + 1]))
                for i, name in enumerate(names)
            )
            fseg = build_featural(
                PhoneSegmentation(utt, phones_rel, offset=lead), table
            )
            traj = synthesize(fseg, InterpMethod.LINEAR, 100.0)

            n_total = int(round(total * 100))
            params = np.tile(b, (n_total, 1))
            i0 = int(round(lead * 100))
            n = traj.frames.shape[0]
            params[i0 : i0 + n] = traj.frames @ A.T + b
            if noise > 0:
                params = params + rng.normal(0.0, noise, size=params.shape)

            # The jaw moves the incisor coil along its axis and every other
            # coil by beta; parameters 1-4 move their group's coil along its
            # axis and lip height moves ll_y.
            jaw = params[:, 0]
            moves = beta * jaw[:, None]
            moves[:, LI] = jaw[:, None] * jaw_axis
            for col, name in enumerate(PARAMETERS[1:5], start=1):
                moves[:, GROUPS[name]] += params[:, [col]] * group_axes[name]
            moves[:, LL_Y] += params[:, 5]
            write_est_track(spk_dir / f"{utt}.ema",
                            EmaRecord(utt, 100, offsets + moves))
    return root


# ---------------------------------------------------------------------------
# SVG trajectory plot (debugging aid; no plotting dependency)
# ---------------------------------------------------------------------------


def plot_trajectory_svg(traj: Trajectory, path, dims: list[int] | None = None) -> None:
    dims = dims if dims is not None else list(range(min(traj.frames.shape[1], 8)))
    w, h, pad = 800, 400, 40
    n = traj.frames.shape[0]
    lo = float(np.min(traj.frames[:, dims])) if n else -1.0
    hi = float(np.max(traj.frames[:, dims])) if n else 1.0
    if hi - lo < 1e-12:
        hi = lo + 1.0
    colors = ["#1b6ca8", "#c0392b", "#27ae60", "#8e44ad",
              "#d35400", "#16a085", "#7f8c8d", "#2c3e50"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    for ci, j in enumerate(dims):
        pts = []
        for k in range(n):
            x = pad + (w - 2 * pad) * (k / max(n - 1, 1))
            y = h - pad - (h - 2 * pad) * ((traj.frames[k, j] - lo) / (hi - lo))
            pts.append(f"{x:.1f},{y:.1f}")
        parts.append(f'<polyline fill="none" stroke="{colors[ci % len(colors)]}" '
                     f'stroke-width="1.5" points="{" ".join(pts)}"/>')
    parts.append(f'<text x="{pad}" y="{pad - 10}" font-size="12">'
                 f"{traj.utterance_id} ({n} frames)</text>")
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts), encoding="utf-8")


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--speakers", default=None, help="comma-separated speaker override")
    p.add_argument("--feature-set", default=None, help="override feature set id")
    p.add_argument("--method", default=None, help="override interpolation method")
    p.add_argument("--out", default=None, help="override output directory")


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.speakers:
        overrides["speakers"] = tuple(s.strip() for s in args.speakers.split(","))
    if args.feature_set:
        overrides["feature_set"] = args.feature_set
    if args.method:
        overrides["method"] = args.method
    if args.out:
        overrides["out_dir"] = args.out
    return replace(cfg, **overrides) if overrides else cfg


def _cmd_ingest(run: Run, args) -> None:
    def summarize(data: SpeakerData) -> tuple[str, dict]:
        print(f"{data.speaker}: kept {len(data.fsegs)}, "
              f"rejected {len(data.rejected)}, nan repairs {data.nan_repairs}")
        return data.speaker, {
            "utterances": len(data.fsegs) + len(data.rejected),
            "kept": len(data.fsegs),
            "rejected": list(data.rejected),
            "nan_repairs": data.nan_repairs,
            "splits": {k: len(data.part(k)) for k in ("train", "dev", "test")},
        }

    summary = dict(run.each_speaker(summarize))
    (run.out / "ingest.json").write_text(json.dumps(summary, indent=2, sort_keys=True),
                                         encoding="utf-8")


def _find_utterance(run: Run, utt: str) -> SpeakerData:
    """The first speaker, in config order, whose files hold utterance
    ``utt``, found by file name: only that speaker is prepared."""
    root = Path(run.cfg.dataset_root)
    speaker = next((s for s in run.cfg.speakers
                    if any(u == utt for u, _, _ in discover_utterances(root, s))), None)
    if speaker is None:
        raise ConfigError(f"unknown utterance {utt!r}: no speaker of the config has it")
    data = run.prepare(speaker)
    if utt not in data.fsegs:
        raise ConfigError(f"utterance {utt!r} of {speaker} was rejected at trim")
    return data


def _cmd_synth(run: Run, args) -> None:
    def write(data: SpeakerData, utts) -> None:
        spk_out = run.out / "trajectories" / data.speaker
        spk_out.mkdir(parents=True, exist_ok=True)
        for utt in utts:
            traj = synthesize(data.fsegs[utt], run.cfg.interp_method, run.cfg.frame_rate)
            traj.to_csv(spk_out / f"{utt}.csv")
            traj.save_binary(spk_out / f"{utt}.traj")
        print(f"{data.speaker}: wrote {len(utts)} trajectories to {spk_out}")

    if args.utterance:
        write(_find_utterance(run, args.utterance), [args.utterance])
    else:
        run.each_speaker(lambda data: write(data, sorted(data.fsegs)))


def _cmd_optimize(run: Run, args) -> None:
    best, _ = grid_search(run)

    def write(data: SpeakerData) -> None:
        spk_out = run.out / "optimized" / data.speaker
        spk_out.mkdir(parents=True, exist_ok=True)
        targets = run.stage(
            f"optimized/{data.speaker}", run.key("optimized", [data.speaker], best),
            lambda: [optimize_targets(data.fsegs[u], run.cfg.interp_method, best)
                     for u in sorted(data.fsegs)])
        for opt in targets:
            opt.to_csv(spk_out / f"{opt.utterance_id}.csv")
        print(f"{data.speaker}: optimized {len(data.fsegs)} utterances to {spk_out}")

    run.each_speaker(write)


def _cmd_probe(run: Run, args) -> None:
    out = run.out / "probes"
    out.mkdir(exist_ok=True)

    def fit(data: SpeakerData) -> None:
        probe = train_probe(_speaker_pairs(data, run.cfg, None, "train"),
                            _speaker_pairs(data, run.cfg, None, "dev"))
        np.savez(out / f"{data.speaker}.npz", weight=probe.weight, bias=probe.bias,
                 best_dev_loss=probe.best_dev_loss)
        print(f"{data.speaker}: probe trained (dev loss {probe.best_dev_loss:.6g})")

    run.each_speaker(fit)


def _cmd_grid(run: Run, args) -> None:
    best, _ = grid_search(run)
    print("best: " + " ".join(f"{axis}={value}" for axis, value in _json_axes(best).items()))


def _cmd_run(cfg: ExperimentConfig) -> None:
    report, _ = run_experiment(cfg)
    print(report.to_text())
    print(f"articulatory score: {report.grand:.3f}")


def _cmd_gen_synthetic(args) -> None:
    generate_synthetic(args.out, speakers=args.speakers, utterances=args.utterances,
                       dim=args.dim, seed=args.seed, noise=args.noise)
    print(f"synthetic dataset written to {args.out}")


def _cmd_plot(run: Run, args) -> None:
    data = (_find_utterance(run, args.utterance) if args.utterance
            else run.prepare(run.cfg.speakers[0]))
    utt = args.utterance or sorted(data.fsegs)[0]
    traj = synthesize(data.fsegs[utt], run.cfg.interp_method, run.cfg.frame_rate)
    plot_trajectory_svg(traj, args.svg)
    print(f"wrote {args.svg}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="phonotraj",
        description="Synthesize feature trajectories from phonological targets "
                    "and probe them against EMA articulatory parameters.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and summarize a dataset")
    _add_common(p)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("synth", help="write synthesized trajectories")
    _add_common(p)
    p.add_argument("--utterance", default=None)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("optimize", help="write the targets optimized at the grid's best point")
    _add_common(p)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("probe", help="train per-speaker probes")
    _add_common(p)
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("grid", help="hyper-parameter grid search on dev")
    _add_common(p)
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("run", help="full experiment (grid search if enabled)")
    _add_common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=int, default=2)
    p.add_argument("--utterances", type=int, default=56)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0)
    p.set_defaults(fn=_cmd_gen_synthetic)

    p = sub.add_parser("plot", help="SVG line chart of one trajectory")
    _add_common(p)
    p.add_argument("--utterance", default=None)
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=_cmd_plot)

    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if "config" not in args:  # gen-synthetic
            args.fn(args)
        elif args.fn is _cmd_run:  # run_experiment builds and records its own Run
            args.fn(_load_config(args))
        else:
            run = Run(_load_config(args))
            args.fn(run, args)
            run.write_manifest()
        return 0
    except (ConfigError, *INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("unexpected failure")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    from phonotraj.cli import main  # so that cached values pickle as phonotraj.cli's classes
    sys.exit(main())
