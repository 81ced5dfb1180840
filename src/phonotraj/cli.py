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
import pickle
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import (ALIGNMENT_READERS, AlignmentError, FeaturalSegmentation, Phone,
                        PhoneSegmentation, build_featural, parse_alignment,
                        trim_and_filter)
from .ema import (CHANNELS, EMA_READERS, ArticulatorySeries, EmaError, EmaRecord,
                  align_frames, filter_and_downsample, fit_guided_pca,
                  load_ema, project, write_est_track)
from .forward import ForwardError, InterpMethod, Trajectory, synthesize, synthesize_targets
from .optimize import (DivergenceError, OptimConfig, OptimizeError, grid_configs,
                       optimize_targets)
from .phonology import (FeatureTable, FeatureTableError, enrich_with_phonemes,
                        get_table, load_feature_table)
from .probe import ProbeError, ScoreReport, aggregate, score, train_probe

log = logging.getLogger(__name__)

REPLICATION_SPLITS = (390, 20, 50)  # train (without dev), dev, test
# grid_configs' axes and the OptimConfig field each one sets
GRID_AXES = {"timing_lrs": "timing_lr", "position_lrs": "position_lr", "lambdas": "lam"}


class ConfigError(ValueError):
    """Invalid experiment configuration or dataset layout."""


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
    grid: dict | None = None  # axis overrides for the hyper-parameter grid
    split_sizes: tuple[int, int, int] = REPLICATION_SPLITS
    seed: int = 0
    out_dir: str = "out"
    max_steps: int = 200
    min_gap: float = 1e-3

    frame_rate = 100.0  # Hz, the rate of the EMA frames; a class constant, not a field

    def __post_init__(self):
        if not (isinstance(self.speakers, (list, tuple))
                and all(isinstance(s, str) for s in self.speakers)):
            raise ConfigError(f"speakers must be a list of names, got {self.speakers!r}")
        if not self.speakers:
            raise ConfigError("config lists no speakers")
        if not (isinstance(self.split_sizes, (list, tuple)) and len(self.split_sizes) == 3
                and all(_is_int(s) for s in self.split_sizes)):
            raise ConfigError(f"split_sizes must be three integers, got {self.split_sizes!r}")
        if min(self.split_sizes) < 1:
            raise ConfigError("every split needs at least one utterance")
        for name in ("optimize_timing", "optimize_position"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("max_steps", "seed"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be non-negative, got {self.max_steps}")
        try:
            OptimConfig(min_gap=self.min_gap)
        except OptimizeError as exc:
            raise ConfigError(f"min_gap = {self.min_gap!r}: {exc}") from exc
        if not self.interp_method.is_cubic and self.wants_optimization:  # validates method
            raise ConfigError("target optimization requires a cubic interpolation method")
        unknown = set(self.grid or {}) - set(GRID_AXES)
        if unknown:
            raise ConfigError(f"unknown grid axes {sorted(unknown)}; "
                              f"known: {', '.join(GRID_AXES)}")
        for axis, values in (self.grid or {}).items():
            try:
                if not (isinstance(values, (list, tuple)) and values and all(
                        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)):
                    raise OptimizeError("must be a non-empty list of numbers")
                for v in values:  # OptimConfig holds the rules for each value
                    OptimConfig(optimize_timing=True, optimize_position=True,
                                **{GRID_AXES[axis]: v})
            except OptimizeError as exc:
                raise ConfigError(f"grid axis {axis} = {values!r}: {exc}") from exc

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


def _hash_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(len(c).to_bytes(8, "little"))
        h.update(c)
    return h.hexdigest()


def _hash_obj(obj) -> str:
    return _hash_bytes(json.dumps(obj, sort_keys=True, default=str).encode())


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
        tmp = self.path(key).with_suffix(".tmp")
        with open(tmp, "wb") as f:
            pickle.dump(value, f)
        tmp.replace(self.path(key))


@dataclass
class RunManifest:
    config: dict
    version: str = __version__
    stages: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {"version": self.version, "config": self.config, "stages": self.stages},
            indent=2, sort_keys=True,
        )


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def resolve_table(cfg: ExperimentConfig) -> FeatureTable:
    if cfg.feature_set.startswith("custom"):
        if not cfg.feature_table_path:
            raise ConfigError("custom feature sets need feature_table_path")
        path = Path(cfg.dataset_root) / cfg.feature_table_path
        base_id = cfg.feature_set.removesuffix("_phoneme")
        table = load_feature_table(path, base_id)
        if cfg.feature_set.endswith("_phoneme"):
            table = enrich_with_phonemes(table)
        return table
    return get_table(cfg.feature_set)


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


def _table_digest(table: FeatureTable) -> str:
    """Digest of a resolved table's contents: feature names, labels and values."""
    labels = sorted(table.vectors)
    values = np.stack([table.vectors[label] for label in labels])
    return _hash_bytes(_hash_obj([table.names, labels]).encode(), values.tobytes())


@functools.cache
def _source_digest() -> str:
    """Digest of the package's own code and data files, read once per process."""
    pkg = Path(__file__).resolve().parent
    files = sorted(pkg.glob("*.py")) + sorted(pkg.glob("data/*"))
    return _hash_bytes(*(part for p in files
                         for part in (p.relative_to(pkg).as_posix().encode(), p.read_bytes())))


def _speaker_input_hash(cfg: ExperimentConfig, table_digest: str, speaker: str) -> str:
    """Digest of everything that decides a speaker's prepared data: its input
    files, the feature table's contents, the split config and the package
    source."""
    root = Path(cfg.dataset_root)
    pieces = []
    for utt, ema_path, align_path in discover_utterances(root, speaker):
        pieces.append(utt.encode())
        pieces.append(ema_path.read_bytes())
        pieces.append(align_path.read_bytes())
    cfg_slice = {
        "feature_set": cfg.feature_set,
        "feature_table": table_digest,
        "split_sizes": cfg.split_sizes,
        "seed": cfg.seed,
    }
    return _hash_bytes(_source_digest().encode(), _hash_obj(cfg_slice).encode(), *pieces)


class Run:
    """One run's cache, manifest, resolved feature table and per-speaker
    input digests.  ``stage`` is the only code that reads or writes the cache
    and records a stage in the manifest."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.cache = Cache(self.out / "cache")
        self.manifest = RunManifest(config=json.loads(json.dumps(asdict(cfg), default=str)))
        self.table = resolve_table(cfg)

    @functools.cached_property
    def input_hash(self) -> dict[str, str]:
        """Each speaker's input digest, hashed when a stage first needs it."""
        table_digest = _table_digest(self.table)
        return {s: _speaker_input_hash(self.cfg, table_digest, s) for s in self.cfg.speakers}

    def stage(self, name: str, key: str, compute, errors=(), describe=None):
        """The cached value under ``key``, or ``compute()`` stored there.

        Records one manifest entry with the stage's own time, whether it was
        cached and the fields ``describe(value)`` returns.  The ``errors``
        that ``compute`` raises become a ConfigError naming the stage.
        """
        t0 = time.perf_counter()
        value = self.cache.get(key)
        cached = value is not None
        if not cached:
            try:
                value = compute()
            except errors as exc:
                raise ConfigError(f"stage {name} failed: {exc}") from exc
            self.cache.put(key, value)
        self.manifest.stages.append({
            "stage": name, "key": key, "cached": cached,
            "seconds": round(time.perf_counter() - t0, 6), **(describe(value) if describe else {}),
        })
        return value

    def key(self, kind: str, speakers, optim: OptimConfig | None) -> str:
        """Key of a synthesis stage over ``speakers``: their input digests,
        in order, and the settings that decide the trajectories."""
        cfg_slice = {"method": self.cfg.method, "frame_rate": self.cfg.frame_rate,
                     "optim": asdict(optim) if optim else None}
        return f"{kind}-" + _hash_bytes(*(self.input_hash[s].encode() for s in speakers),
                                        _hash_obj(cfg_slice).encode())

    def prepare(self, speaker: str) -> SpeakerData:
        key = "prep-" + _hash_bytes(self.input_hash[speaker].encode(), speaker.encode())
        return self.stage(f"prepare/{speaker}", key,
                          lambda: prepare_speaker(self.cfg, self.table, speaker),
                          (AlignmentError, EmaError, FeatureTableError))

    @functools.cached_property
    def data(self) -> list[SpeakerData]:
        """Every speaker of the config, prepared once per run."""
        return [self.prepare(s) for s in self.cfg.speakers]

    def write_manifest(self) -> None:
        (self.out / "manifest.json").write_text(self.manifest.to_json(), encoding="utf-8")


def _speaker_pairs(data: SpeakerData, cfg: ExperimentConfig, optim: OptimConfig | None,
                   parts=("train", "dev", "test"), steps: list | None = None) -> dict:
    """(trajectory, measured series) pairs of each split in ``parts``.  With
    ``optim`` the targets are optimized first, and the steps of each best
    iterate are appended to ``steps``."""
    method = cfg.interp_method
    pairs = {}
    for which in parts:
        pairs[which] = []
        for u in data.part(which):
            fseg = data.fsegs[u]
            if optim is None:
                traj = synthesize(fseg, method, cfg.frame_rate)
            else:
                best = optimize_targets(fseg, method, optim)
                if steps is not None:
                    steps.append(best.steps)
                traj = synthesize_targets(fseg.utterance_id, best.t, best.X, method,
                                          cfg.frame_rate)
            pairs[which].append((traj, data.series[u]))
    return pairs


def _speaker_score(
    data: SpeakerData, cfg: ExperimentConfig, optim: OptimConfig | None, eval_part: str
) -> tuple[np.ndarray, list[int]]:
    """Pearson row on ``eval_part`` of the probe fitted on train, and the steps
    of each optimized utterance's best iterate.  Only train, dev and
    ``eval_part`` are synthesized."""
    steps: list[int] = []
    parts = dict.fromkeys(("train", "dev", eval_part))  # ordered, without a repeat
    pairs = _speaker_pairs(data, cfg, optim, parts, steps)
    return score(train_probe(pairs["train"], pairs["dev"]), pairs[eval_part]), steps


def _grid_point(cfg: ExperimentConfig, data: list[SpeakerData],
                oc: OptimConfig) -> tuple[dict, dict]:
    """One grid point's row of grid.json and its manifest fields, which add
    the number of utterances optimized and of those whose best iterate moved
    from the start (``improved``)."""
    row = {"timing_lr": oc.timing_lr, "position_lr": oc.position_lr, "lambda": oc.lam}
    counts = {"optimized": None, "improved": None}
    try:
        results = [_speaker_score(d, cfg, oc, "dev") for d in data]
    except DivergenceError as exc:
        row.update(dev_score=None, error=str(exc))
    else:
        row["dev_score"] = aggregate(np.vstack([r for r, _ in results]),
                                     tuple(cfg.speakers)).grand
        steps = [n for _, point_steps in results for n in point_steps]
        counts = {"optimized": len(steps), "improved": sum(n > 0 for n in steps)}
    fields = {("lam" if k == "lambda" else k): v for k, v in row.items()}
    return row, {**fields, **counts}


def grid_search(run: Run) -> tuple[OptimConfig, list[dict]]:
    """Evaluate the hyper-parameter grid of ``run.cfg`` on the development
    split and write grid.json.

    Returns the best configuration (dev articulatory score argmax; ties fall
    to the smallest lambda, then the smallest learning rates through the
    deterministic grid order) and the per-point score table.  A point whose
    optimization diverges is recorded as failed, with no dev score and the
    error, and left out of the argmax.  Each point is a cached stage of
    ``run``, diverged points included.
    """
    cfg = run.cfg
    if not cfg.wants_optimization:
        raise ConfigError("grid search requires optimization to be enabled")
    configs = grid_configs(
        **(cfg.grid or {}),
        optimize_timing=cfg.optimize_timing,
        optimize_position=cfg.optimize_position,
        max_steps=cfg.max_steps,
        min_gap=cfg.min_gap,
    )
    data = run.data
    rows = [run.stage("grid-eval", run.key("grid", cfg.speakers, oc),
                      lambda oc=oc: _grid_point(cfg, data, oc),
                      describe=lambda point: point[1])[0]
            for oc in configs]
    ok = [i for i, r in enumerate(rows) if r["dev_score"] is not None]
    if not ok:
        raise ConfigError(f"every grid point failed; the first: {rows[0]['error']}")
    best = configs[ok[int(np.argmax([rows[i]["dev_score"] for i in ok]))]]
    (run.out / "grid.json").write_text(
        json.dumps({"best": asdict(best), "points": rows}, indent=2, sort_keys=True),
        encoding="utf-8")
    return best, rows


def run_experiment(cfg: ExperimentConfig) -> tuple[ScoreReport, RunManifest]:
    """Full pipeline: ingest -> synthesize (optionally optimized) -> probe -> score."""
    run = Run(cfg)
    data = run.data
    optim: OptimConfig | None = None
    if cfg.wants_optimization:
        optim, _ = grid_search(run)
    rows = [run.stage(f"score/{d.speaker}", run.key("score", [d.speaker], optim),
                      lambda d=d: _speaker_score(d, cfg, optim, "test")[0],
                      (ForwardError, OptimizeError, DivergenceError, ProbeError))
            for d in data]
    report = aggregate(np.vstack(rows), tuple(cfg.speakers))
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
    phones: int = 12,
    unknown_fraction: float = 0.2,
) -> Path:
    """Write a synthetic dataset whose articulatory parameters are an exact
    affine image of the linear-interpolation trajectory.

    Phone durations land on the 10 ms frame grid so EMA frames and trajectory
    frames align exactly; EMA channels embed the 6 parameters through a fixed
    full-rank linear map per speaker, which guided PCA inverts up to an
    affine change of basis the probe absorbs.
    """
    if speakers < 1 or utterances < 1 or dim < 1 or phones < 1:
        raise ConfigError("speakers, utterances, dim and phones must be >= 1")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    labels = [f"ph{i:02d}" for i in range(phones)]
    rows = []
    for ph in labels:
        symbols = []
        for _ in range(dim):
            if rng.random() < unknown_fraction:
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
        "tb": np.array([0.8, -0.6]),
        "td": np.array([-0.6, 0.8]),
        "tt": np.array([0.8, 0.6]),
        "ul": np.array([4.0, 1.0]) / np.sqrt(17.0),
    }
    idx = {name: i for i, name in enumerate(CHANNELS)}

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

            channels = np.tile(offsets, (n_total, 1))
            jaw = params[:, 0]
            channels[:, idx["li_x"]] += jaw * jaw_axis[0]
            channels[:, idx["li_y"]] += jaw * jaw_axis[1]
            for gi, g in enumerate(("tb", "td", "tt"), start=1):
                ax = group_axes[g]
                channels[:, idx[f"{g}_x"]] += beta[idx[f"{g}_x"]] * jaw + params[:, gi] * ax[0]
                channels[:, idx[f"{g}_y"]] += beta[idx[f"{g}_y"]] * jaw + params[:, gi] * ax[1]
            ax = group_axes["ul"]
            channels[:, idx["ul_x"]] += beta[idx["ul_x"]] * jaw + params[:, 4] * ax[0]
            channels[:, idx["ul_y"]] += beta[idx["ul_y"]] * jaw + params[:, 4] * ax[1]
            channels[:, idx["ll_x"]] += beta[idx["ll_x"]] * jaw
            channels[:, idx["ll_y"]] += beta[idx["ll_y"]] * jaw + params[:, 5]
            write_est_track(spk_dir / f"{utt}.ema",
                            EmaRecord(utt, 100, channels))
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
    summary = {}
    for data in run.data:
        spk = data.speaker
        summary[spk] = {
            "utterances": len(data.fsegs) + len(data.rejected),
            "kept": len(data.fsegs),
            "rejected": list(data.rejected),
            "nan_repairs": data.nan_repairs,
            "splits": {k: len(data.part(k)) for k in ("train", "dev", "test")},
        }
        print(f"{spk}: kept {summary[spk]['kept']}, "
              f"rejected {len(data.rejected)}, nan repairs {data.nan_repairs}")
    (run.out / "ingest.json").write_text(json.dumps(summary, indent=2, sort_keys=True),
                                         encoding="utf-8")


def _find_utterance(run: Run, utt: str) -> SpeakerData:
    """The prepared speaker that holds utterance ``utt``."""
    for data in run.data:
        if utt in data.fsegs:
            return data
    raise ConfigError(f"unknown utterance {utt!r}: no speaker of the config has it")


def _cmd_synth(run: Run, args) -> None:
    if args.utterance:
        wanted = [(_find_utterance(run, args.utterance), [args.utterance])]
    else:
        wanted = [(data, sorted(data.fsegs)) for data in run.data]
    for data, utts in wanted:
        spk_out = run.out / "trajectories" / data.speaker
        spk_out.mkdir(parents=True, exist_ok=True)
        for utt in utts:
            traj = synthesize(data.fsegs[utt], run.cfg.interp_method, run.cfg.frame_rate)
            traj.to_csv(spk_out / f"{utt}.csv")
            traj.save_binary(spk_out / f"{utt}.traj")
        print(f"{data.speaker}: wrote {len(utts)} trajectories to {spk_out}")


def _cmd_optimize(run: Run, args) -> None:
    best, _ = grid_search(run)
    for data in run.data:
        spk_out = run.out / "optimized" / data.speaker
        spk_out.mkdir(parents=True, exist_ok=True)
        for utt in sorted(data.fsegs):
            optimize_targets(data.fsegs[utt], run.cfg.interp_method, best).to_csv(
                spk_out / f"{utt}.csv")
        print(f"{data.speaker}: optimized {len(data.fsegs)} utterances to {spk_out}")


def _cmd_probe(run: Run, args) -> None:
    out = run.out / "probes"
    out.mkdir(exist_ok=True)
    for data in run.data:
        pairs = _speaker_pairs(data, run.cfg, None, ("train", "dev"))
        probe = train_probe(pairs["train"], pairs["dev"])
        np.savez(out / f"{data.speaker}.npz", weight=probe.weight, bias=probe.bias,
                 best_dev_loss=probe.best_dev_loss)
        print(f"{data.speaker}: probe trained (dev loss {probe.best_dev_loss:.6g})")


def _cmd_score(cfg: ExperimentConfig) -> None:
    report, _ = run_experiment(replace(cfg, optimize_timing=False,
                                       optimize_position=False))
    print(report.to_text())


def _cmd_grid(run: Run, args) -> None:
    best, _ = grid_search(run)
    print(f"best: timing_lr={best.timing_lr} position_lr={best.position_lr} "
          f"lambda={best.lam}")


def _cmd_run(cfg: ExperimentConfig) -> None:
    report, _ = run_experiment(cfg)
    print(report.to_text())
    print(f"articulatory score: {report.grand:.3f}")


def _cmd_gen_synthetic(args) -> None:
    generate_synthetic(args.out, speakers=args.speakers, utterances=args.utterances,
                       dim=args.dim, seed=args.seed, noise=args.noise)
    print(f"synthetic dataset written to {args.out}")


def _cmd_plot(run: Run, args) -> None:
    utt = args.utterance or sorted(run.data[0].fsegs)[0]
    fseg = _find_utterance(run, utt).fsegs[utt]
    traj = synthesize(fseg, run.cfg.interp_method, run.cfg.frame_rate)
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

    p = sub.add_parser("score", help="score without target optimization")
    _add_common(p)
    p.set_defaults(fn=_cmd_score)

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
        elif args.fn in (_cmd_run, _cmd_score):  # run_experiment builds and records its own Run
            args.fn(_load_config(args))
        else:
            run = Run(_load_config(args))
            args.fn(run, args)
            run.write_manifest()
        return 0
    except (ConfigError, FeatureTableError, AlignmentError, EmaError,
            ForwardError, OptimizeError, ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("unexpected failure")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
