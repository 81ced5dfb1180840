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
from .alignment import (AlignmentError, FeaturalSegmentation, Phone,
                        PhoneSegmentation, build_featural, parse_alignment,
                        trim_and_filter)
from .ema import (CHANNELS, ArticulatorySeries, EmaError, EmaRecord,
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


class ConfigError(ValueError):
    """Invalid experiment configuration or dataset layout."""


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
    frame_rate: float = 100.0  # must equal the 100 Hz rate of the EMA frames
    split_sizes: tuple[int, int, int] = REPLICATION_SPLITS
    seed: int = 0
    out_dir: str = "out"
    max_steps: int = 200
    min_gap: float = 1e-3
    probe_epochs: int = 100
    probe_patience: int = 5
    probe_lr: float = 1e-3

    def __post_init__(self):
        if not self.speakers:
            raise ConfigError("config lists no speakers")
        if len(self.split_sizes) != 3 or any(s < 0 for s in self.split_sizes):
            raise ConfigError(f"bad split sizes {self.split_sizes}")
        if self.split_sizes[0] < 1 or self.split_sizes[1] < 1 or self.split_sizes[2] < 1:
            raise ConfigError("every split needs at least one utterance")
        InterpMethod.from_id(self.method)  # validate early
        if self.frame_rate != 100.0:
            raise ConfigError(
                f"frame_rate {self.frame_rate} Hz: trajectories must be sampled at the "
                "100 Hz rate of the EMA frames"
            )

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
        if "speakers" in raw:
            raw["speakers"] = tuple(raw["speakers"])
        if "split_sizes" in raw:
            raw["split_sizes"] = tuple(raw["split_sizes"])
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

_ALIGN_EXTS = (".lab", ".textgrid")
_EMA_EXTS = (".ema", ".csv")


def discover_utterances(root: Path, speaker: str) -> list[tuple[str, Path, Path]]:
    """(utterance id, ema path, alignment path) triples, sorted by id."""
    spk_dir = root / speaker
    if not spk_dir.is_dir():
        raise ConfigError(f"speaker directory missing: {spk_dir}")
    stems: dict[str, dict[str, Path]] = {}
    for p in spk_dir.iterdir():
        suffix = p.suffix.lower()
        if suffix in _ALIGN_EXTS:
            stems.setdefault(p.stem, {})["align"] = p
        elif suffix in _EMA_EXTS:
            stems.setdefault(p.stem, {})["ema"] = p
    out = []
    for stem in sorted(stems):
        pair = stems[stem]
        if "align" in pair and "ema" in pair:
            out.append((stem, pair["ema"], pair["align"]))
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

    def record(self, stage: str, key: str, cached: bool, seconds: float, **extra) -> None:
        entry = {"stage": stage, "key": key, "cached": cached,
                 "seconds": round(seconds, 6)}
        entry.update(extra)
        self.stages.append(entry)

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
        seg = parse_alignment(align_path, utterance_id=utt)
        trimmed = trim_and_filter(seg)
        if trimmed is None or len(trimmed) == 0:
            rejected.append(utt)
            continue
        fsegs[utt] = build_featural(trimmed, table)
        rec = load_ema(ema_path, utterance_id=utt)
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


def _synthesize_utterance(
    fseg: FeaturalSegmentation,
    method: InterpMethod,
    frame_rate: float,
    optim: OptimConfig | None,
) -> Trajectory:
    if optim is not None and (optim.optimize_timing or optim.optimize_position):
        best = optimize_targets(fseg, method, optim)
        return synthesize_targets(fseg.utterance_id, best.t, best.X, method, frame_rate)
    return synthesize(fseg, method, frame_rate)


def _speaker_pairs(data: SpeakerData, cfg: ExperimentConfig, optim: OptimConfig | None):
    method = cfg.interp_method
    pairs = {}
    for which in ("train", "dev", "test"):
        ids = data.part(which)
        pairs[which] = [
            (_synthesize_utterance(data.fsegs[u], method, cfg.frame_rate, optim),
             data.series[u])
            for u in ids
        ]
    return pairs


def _speaker_score(
    data: SpeakerData, cfg: ExperimentConfig, optim: OptimConfig | None, eval_part: str
) -> np.ndarray:
    pairs = _speaker_pairs(data, cfg, optim)
    probe = train_probe(
        pairs["train"], pairs["dev"], cfg.seed,
        max_epochs=cfg.probe_epochs, patience=cfg.probe_patience, lr=cfg.probe_lr,
    )
    return score(probe, pairs[eval_part])


def _optim_from_cfg(cfg: ExperimentConfig, timing_lr: float, position_lr: float,
                    lam: float) -> OptimConfig:
    return OptimConfig(
        timing_lr=timing_lr, position_lr=position_lr, lam=lam,
        max_steps=cfg.max_steps, optimize_timing=cfg.optimize_timing,
        optimize_position=cfg.optimize_position, min_gap=cfg.min_gap,
    )


def grid_search(
    cfg: ExperimentConfig,
    data: list[SpeakerData] | None = None,
    manifest: RunManifest | None = None,
) -> tuple[OptimConfig, list[dict]]:
    """Evaluate the hyper-parameter grid on the development split.

    Returns the best configuration (dev articulatory score argmax; ties fall
    to the smallest lambda, then the smallest learning rates through the
    deterministic grid order) and the per-point score table.  A point whose
    optimization diverges is recorded as failed, with no dev score and the
    error, and left out of the argmax.
    """
    if not cfg.wants_optimization:
        raise ConfigError("grid search requires optimization to be enabled")
    axes = cfg.grid or {}
    configs = grid_configs(
        timing_lrs=axes.get("timing_lrs", (1e-6, 5e-6, 1e-5, 5e-5, 1e-4)),
        position_lrs=axes.get("position_lrs", (1e-3, 1e-2, 1e-1)),
        lambdas=axes.get("lambdas", (0.0, 1e3, 1e4, 1e5, 1e6, 1e7)),
        optimize_timing=cfg.optimize_timing,
        optimize_position=cfg.optimize_position,
        max_steps=cfg.max_steps,
    )
    if not configs:
        raise ConfigError("empty hyper-parameter grid")
    table = resolve_table(cfg)
    if data is None:
        data = [prepare_speaker(cfg, table, s) for s in cfg.speakers]

    rows = []
    for oc in configs:
        row = {"timing_lr": oc.timing_lr, "position_lr": oc.position_lr, "lambda": oc.lam}
        t0 = time.perf_counter()
        try:
            scores = [_speaker_score(d, cfg, oc, "dev") for d in data]
            row["dev_score"] = aggregate(np.vstack(scores), tuple(cfg.speakers)).grand
        except DivergenceError as exc:
            row.update(dev_score=None, error=str(exc))
        seconds = time.perf_counter() - t0
        rows.append(row)
        if manifest is not None:
            s = row["dev_score"]
            outcome = ({"dev_score": None, "error": row["error"]} if s is None
                       else {"dev_score": round(s, 9)})
            manifest.record("grid-eval", _hash_obj(row), False, seconds,
                            timing_lr=oc.timing_lr, position_lr=oc.position_lr, lam=oc.lam,
                            **outcome)
    ok = [i for i, r in enumerate(rows) if r["dev_score"] is not None]
    if not ok:
        raise ConfigError(f"every grid point failed; the first: {rows[0]['error']}")
    best_idx = ok[int(np.argmax([rows[i]["dev_score"] for i in ok]))]
    return configs[best_idx], rows


def run_experiment(cfg: ExperimentConfig) -> tuple[ScoreReport, RunManifest]:
    """Full pipeline: ingest -> synthesize (optionally optimized) -> probe -> score."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cache = Cache(out / "cache")
    manifest = RunManifest(config=json.loads(json.dumps(asdict(cfg), default=str)))
    table = resolve_table(cfg)
    table_digest = _table_digest(table)
    input_hash = {s: _speaker_input_hash(cfg, table_digest, s) for s in cfg.speakers}

    def prep_one(speaker: str) -> SpeakerData:
        key = "prep-" + _hash_bytes(input_hash[speaker].encode(), speaker.encode())
        t0 = time.perf_counter()
        hit = cache.get(key)
        if hit is not None:
            manifest.record(f"prepare/{speaker}", key, True, time.perf_counter() - t0)
            return hit
        try:
            data = prepare_speaker(cfg, table, speaker)
        except (AlignmentError, EmaError, FeatureTableError) as exc:
            raise ConfigError(f"stage prepare/{speaker} failed: {exc}") from exc
        cache.put(key, data)
        manifest.record(f"prepare/{speaker}", key, False, time.perf_counter() - t0)
        return data

    data = [prep_one(s) for s in cfg.speakers]

    optim: OptimConfig | None = None
    if cfg.wants_optimization:
        if not cfg.interp_method.is_cubic:
            raise ConfigError("target optimization requires a cubic interpolation method")
        optim, grid_rows = grid_search(cfg, data, manifest)
        (out / "grid.json").write_text(
            json.dumps({"best": asdict(optim), "points": grid_rows},
                       indent=2, sort_keys=True), encoding="utf-8")

    def score_one(d: SpeakerData) -> np.ndarray:
        cfg_slice = {"method": cfg.method, "frame_rate": cfg.frame_rate,
                     "optim": asdict(optim) if optim else None,
                     "probe": [cfg.probe_epochs, cfg.probe_patience, cfg.probe_lr],
                     "seed": cfg.seed}
        key = "score-" + _hash_bytes(input_hash[d.speaker].encode(),
                                     _hash_obj(cfg_slice).encode())
        t0 = time.perf_counter()
        hit = cache.get(key)
        if hit is not None:
            manifest.record(f"score/{d.speaker}", key, True, time.perf_counter() - t0)
            return hit
        try:
            row = _speaker_score(d, cfg, optim, "test")
        except (ForwardError, OptimizeError, ProbeError) as exc:
            raise ConfigError(f"stage score/{d.speaker} failed: {exc}") from exc
        cache.put(key, row)
        manifest.record(f"score/{d.speaker}", key, False, time.perf_counter() - t0)
        return row

    rows = [score_one(d) for d in data]
    report = aggregate(np.vstack(rows), tuple(cfg.speakers))
    (out / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "manifest.json").write_text(manifest.to_json(), encoding="utf-8")
    return report, manifest


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


def synthetic_config(root, *, utterances: int = 56, speakers: int = 2,
                     seed: int = 0, method: str = "linear",
                     out_dir: str | None = None) -> ExperimentConfig:
    """Config matching generate_synthetic's layout: 40/8/8 splits per 56 utts."""
    n_test = max(utterances // 7, 1)
    n_dev = max(utterances // 7, 1)
    n_train = utterances - n_dev - n_test
    return ExperimentConfig(
        dataset_root=str(root),
        speakers=tuple(f"spk{s:02d}" for s in range(speakers)),
        feature_set="custom",
        feature_table_path="features.tsv",
        method=method,
        split_sizes=(n_train, n_dev, n_test),
        seed=seed,
        out_dir=out_dir or str(Path(root) / "out"),
    )


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


def _cmd_ingest(args) -> int:
    cfg = _load_config(args)
    table = resolve_table(cfg)
    summary = {}
    for spk in cfg.speakers:
        data = prepare_speaker(cfg, table, spk)
        summary[spk] = {
            "utterances": len(data.fsegs) + len(data.rejected),
            "kept": len(data.fsegs),
            "rejected": list(data.rejected),
            "nan_repairs": data.nan_repairs,
            "splits": {k: len(data.part(k)) for k in ("train", "dev", "test")},
        }
        print(f"{spk}: kept {summary[spk]['kept']}, "
              f"rejected {len(data.rejected)}, nan repairs {data.nan_repairs}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ingest.json").write_text(json.dumps(summary, indent=2, sort_keys=True),
                                     encoding="utf-8")
    return 0


def _cmd_synth(args) -> int:
    cfg = _load_config(args)
    table = resolve_table(cfg)
    method = cfg.interp_method
    out = Path(cfg.out_dir) / "trajectories"
    for spk in cfg.speakers:
        data = prepare_speaker(cfg, table, spk)
        spk_out = out / spk
        spk_out.mkdir(parents=True, exist_ok=True)
        wanted = [args.utterance] if args.utterance else sorted(data.fsegs)
        for utt in wanted:
            if utt not in data.fsegs:
                raise ConfigError(f"unknown utterance {utt!r} for speaker {spk}")
            traj = synthesize(data.fsegs[utt], method, cfg.frame_rate)
            traj.to_csv(spk_out / f"{utt}.csv")
            traj.save_binary(spk_out / f"{utt}.traj")
        print(f"{spk}: wrote {len(wanted)} trajectories to {spk_out}")
    return 0


def _cmd_optimize(args) -> int:
    cfg = _load_config(args)
    if not cfg.wants_optimization:
        raise ConfigError("optimize command requires optimize_timing or optimize_position")
    if not cfg.interp_method.is_cubic:
        raise ConfigError("target optimization requires a cubic interpolation method")
    table = resolve_table(cfg)
    oc = _optim_from_cfg(cfg, args.timing_lr, args.position_lr, args.lam)
    out = Path(cfg.out_dir) / "optimized"
    for spk in cfg.speakers:
        data = prepare_speaker(cfg, table, spk)
        spk_out = out / spk
        spk_out.mkdir(parents=True, exist_ok=True)
        for utt in sorted(data.fsegs):
            best = optimize_targets(data.fsegs[utt], cfg.interp_method, oc)
            best.to_csv(spk_out / f"{utt}.csv")
        print(f"{spk}: optimized {len(data.fsegs)} utterances to {spk_out}")
    return 0


def _cmd_probe(args) -> int:
    cfg = _load_config(args)
    table = resolve_table(cfg)
    out = Path(cfg.out_dir) / "probes"
    out.mkdir(parents=True, exist_ok=True)
    for spk in cfg.speakers:
        data = prepare_speaker(cfg, table, spk)
        pairs = _speaker_pairs(data, cfg, None)
        probe = train_probe(pairs["train"], pairs["dev"], cfg.seed,
                            max_epochs=cfg.probe_epochs,
                            patience=cfg.probe_patience, lr=cfg.probe_lr)
        np.savez(out / f"{spk}.npz", weight=probe.weight, bias=probe.bias,
                 epochs_run=probe.epochs_run, best_dev_loss=probe.best_dev_loss)
        print(f"{spk}: probe trained ({probe.epochs_run} epochs, "
              f"dev loss {probe.best_dev_loss:.6g})")
    return 0


def _cmd_score(args) -> int:
    cfg = _load_config(args)
    report, _ = run_experiment(replace(cfg, optimize_timing=False,
                                       optimize_position=False))
    print(report.to_text())
    return 0


def _cmd_grid(args) -> int:
    cfg = _load_config(args)
    best, rows = grid_search(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "grid.json").write_text(
        json.dumps({"best": asdict(best), "points": rows}, indent=2, sort_keys=True),
        encoding="utf-8")
    print(f"best: timing_lr={best.timing_lr} position_lr={best.position_lr} "
          f"lambda={best.lam}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report, _ = run_experiment(cfg)
    print(report.to_text())
    print(f"articulatory score: {report.grand:.3f}")
    return 0


def _cmd_gen_synthetic(args) -> int:
    generate_synthetic(args.out, speakers=args.speakers, utterances=args.utterances,
                       dim=args.dim, seed=args.seed, noise=args.noise)
    print(f"synthetic dataset written to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    cfg = _load_config(args)
    table = resolve_table(cfg)
    spk = cfg.speakers[0]
    data = prepare_speaker(cfg, table, spk)
    utt = args.utterance or sorted(data.fsegs)[0]
    if utt not in data.fsegs:
        raise ConfigError(f"unknown utterance {utt!r}")
    traj = synthesize(data.fsegs[utt], cfg.interp_method, cfg.frame_rate)
    plot_trajectory_svg(traj, args.svg)
    print(f"wrote {args.svg}")
    return 0


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

    p = sub.add_parser("optimize", help="optimize target positions/timings")
    _add_common(p)
    p.add_argument("--timing-lr", type=float, default=1e-5)
    p.add_argument("--position-lr", type=float, default=1e-2)
    p.add_argument("--lam", type=float, default=0.0)
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
        return args.fn(args)
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
