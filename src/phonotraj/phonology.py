"""Phoneme-to-feature-vector encoding.

Five base feature sets are supported, plus enriched variants obtained by
concatenating a one-hot phoneme block:

    gp_binary       26 distinctive features, zero cells mapped to -1
    gp_unknown      26 distinctive features, zero cells kept as unknown
    ap_scalar       8 tract variables, categories mapped to scalars in [0, 1]
    ap_onehot       32 dims, one one-hot group per tract variable
    phoneme_onehot  47 dims, one per inventory label (incl. silence)
    <base>_phoneme  base + 47 one-hot phoneme dims

Feature vectors are float arrays in which *unknown* (context-dependent)
entries are NaN; everything else is a specified real value.  Silence maps
to the all-zero vector in every set except phoneme_onehot, where it has
its own index.  Tables are immutable after loading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

# Labels treated as silence when they appear in alignments (MFA conventions).
SILENCE_LABELS = frozenset({"sil", "sp", "spn", ""})
SILENCE = "sil"

ENRICH_SUFFIX = "_phoneme"

# Declared dimensions of the base feature sets.
BASE_DIMENSIONS = {
    "gp_binary": 26,
    "gp_unknown": 26,
    "ap_scalar": 8,
    "ap_onehot": 32,
    "phoneme_onehot": 47,
}

class FeatureTableError(ValueError):
    """Malformed feature-table data or an invalid lookup."""


@dataclass(frozen=True)
class ApCategoryScale:
    """Ordered category inventory per tract-variable feature.

    ``categories[f]`` lists category labels in rank order; scalar values are
    equidistant in [0, 1] along that order.
    """

    categories: dict[str, tuple[str, ...]]

    def rank(self, feature: str, category: str) -> int:
        """Position of ``category`` in ``feature``'s order; unknown ones are errors."""
        cats = self.categories[feature]
        if category not in cats:
            raise FeatureTableError(f"unknown category {category!r} for feature {feature!r}")
        return cats.index(category)

    def scalar(self, feature: str, category: str) -> float:
        top = len(self.categories[feature]) - 1
        return self.rank(feature, category) / top if top else 0.0


@dataclass(frozen=True)
class FeatureTable:
    """Immutable phoneme -> feature-vector lookup.

    ``vectors`` maps every supported label (including silence) to a float
    vector of length ``dimension`` with NaN marking unknown entries.
    ``groups`` lists the dimension-index blocks of one-hot groups, when the
    encoding has any.
    """

    set_id: str
    dimension: int
    names: tuple[str, ...]
    vectors: dict[str, np.ndarray]
    inventory: tuple[str, ...]
    groups: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        if len(self.names) != self.dimension:
            raise FeatureTableError(
                f"{self.set_id}: {len(self.names)} names for dimension {self.dimension}"
            )
        for ph, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise FeatureTableError(f"{self.set_id}: row for {ph!r} has shape {vec.shape}")

    @property
    def is_enriched(self) -> bool:
        return self.set_id.endswith(ENRICH_SUFFIX)


def normalize_label(label: str) -> str:
    """Canonical form of a phone label; silence variants collapse to 'sil'."""
    label = label.strip().lower()
    return SILENCE if label in SILENCE_LABELS else label


def _data_path(name: str) -> Path:
    return Path(resources.files("phonotraj") / "data" / name)


def load_inventory() -> tuple[str, ...]:
    """Read the shipped ordered phoneme inventory (one label per line)."""
    p = _data_path("inventory.txt")
    labels = [ln.strip() for ln in p.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(labels) != len(set(labels)):
        raise FeatureTableError(f"duplicate labels in inventory {p}")
    return tuple(labels)


def load_ap_scale() -> ApCategoryScale:
    """Read the shipped feature/category/rank TSV defining the AP category orders."""
    p = _data_path("ap_scale.tsv")
    ranks: dict[str, dict[int, str]] = {}
    for i, line in enumerate(p.read_text(encoding="utf-8").splitlines()):
        if not line.strip():
            continue
        parts = line.split("\t")
        if i == 0 and parts[0] == "feature":
            continue
        if len(parts) != 3:
            raise FeatureTableError(f"{p}:{i + 1}: expected 3 columns, got {len(parts)}")
        feat, cat, rank = parts[0], parts[1], int(parts[2])
        per = ranks.setdefault(feat, {})
        if rank in per:
            raise FeatureTableError(f"{p}: duplicate rank {rank} for feature {feat!r}")
        per[rank] = cat
    categories = {}
    for feat, per in ranks.items():
        if sorted(per) != list(range(len(per))):
            raise FeatureTableError(f"{p}: ranks for {feat!r} are not 0..{len(per) - 1}")
        categories[feat] = tuple(per[r] for r in range(len(per)))
    return ApCategoryScale(categories)


def _read_rows(path: Path) -> tuple[tuple[str, ...], list[tuple[str, list[str]]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines:
        raise FeatureTableError(f"{path}: empty table")
    header = lines[0].split("\t")
    if header[0] != "phoneme" or len(header) < 2:
        raise FeatureTableError(f"{path}: header must start with 'phoneme'")
    names = tuple(header[1:])
    rows = []
    seen = set()
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(header):
            raise FeatureTableError(
                f"{path}:{i}: row has {len(parts) - 1} values, expected {len(names)}"
            )
        ph = normalize_label(parts[0])
        if ph in seen:
            raise FeatureTableError(f"{path}:{i}: duplicate phoneme {ph!r}")
        seen.add(ph)
        rows.append((ph, parts[1:]))
    return names, rows


_GP_ALPHABET = {"+": 1.0, "-": -1.0}


def load_feature_table(path: str | Path, set_id: str) -> FeatureTable:
    """Load and validate a feature table from its TSV file.

    GP tables use the {+, -, 0} alphabet; AP tables use category labels with
    '0' marking unknown, resolved against the shipped category scale.
    ``set_id`` values starting with "custom" accept the GP alphabet at any
    dimension (used by the synthetic-data generator) and define their own
    inventory; the others must cover the shipped inventory.  The silence row
    is always generated, never read: silence is the all-zero vector.
    """
    path = Path(path)
    if set_id.startswith("gp_") or set_id.startswith("custom"):
        names, rows = _read_rows(path)
        unknown_as = -1.0 if "binary" in set_id else math.nan
        vectors = {}
        for ph, values in rows:
            vec = np.empty(len(names))
            for j, v in enumerate(values):
                if v == "0":
                    vec[j] = unknown_as
                elif v in _GP_ALPHABET:
                    vec[j] = _GP_ALPHABET[v]
                else:
                    raise FeatureTableError(
                        f"{path}: value {v!r} for {ph!r} not in {{+,-,0}}"
                    )
            vectors[ph] = vec
        groups: tuple[tuple[int, ...], ...] = ()
    elif set_id in ("ap_scalar", "ap_onehot"):
        scale = load_ap_scale()
        names_in, rows = _read_rows(path)
        for feat in names_in:
            if feat not in scale.categories:
                raise FeatureTableError(f"{path}: feature {feat!r} missing from category scale")
        if set_id == "ap_scalar":
            names = names_in
            vectors = {}
            for ph, values in rows:
                vec = np.empty(len(names))
                for j, v in enumerate(values):
                    vec[j] = math.nan if v == "0" else scale.scalar(names_in[j], v)
                vectors[ph] = vec
            groups = ()
        else:
            names_list: list[str] = []
            group_list: list[tuple[int, ...]] = []
            for feat in names_in:
                cats = scale.categories[feat]
                group_list.append(tuple(range(len(names_list), len(names_list) + len(cats))))
                names_list.extend(f"{feat}={c}" for c in cats)
            names = tuple(names_list)
            vectors = {}
            for ph, values in rows:
                vec = np.zeros(len(names))
                for feat, group, v in zip(names_in, group_list, values):
                    if v == "0":
                        vec[list(group)] = math.nan
                    else:
                        vec[group[scale.rank(feat, v)]] = 1.0
                vectors[ph] = vec
            groups = tuple(group_list)
    else:
        raise FeatureTableError(f"unsupported set_id {set_id!r} for TSV loading")

    vectors[SILENCE] = np.zeros(len(names))
    declared = BASE_DIMENSIONS.get(set_id)
    if declared is not None and len(names) != declared:
        raise FeatureTableError(
            f"{set_id}: table has {len(names)} dimensions, expected {declared}"
        )
    if set_id.startswith("custom"):
        # Custom tables define their own inventory; silence is appended.
        inventory = tuple(ph for ph, _ in rows) + (SILENCE,)
    else:
        inventory = load_inventory()
    missing = [ph for ph in inventory if ph not in vectors]
    if missing:
        raise FeatureTableError(f"{path}: inventory labels missing from table: {missing}")
    return FeatureTable(set_id, len(names), tuple(names), vectors, inventory, groups)


def build_phoneme_onehot(inventory: tuple[str, ...] | None = None) -> FeatureTable:
    """One-hot table over the phoneme inventory (silence has its own index)."""
    if inventory is None:
        inventory = load_inventory()
    d = len(inventory)
    vectors = {}
    for idx, ph in enumerate(inventory):
        vec = np.zeros(d)
        vec[idx] = 1.0
        vectors[ph] = vec
    names = tuple(f"ph={p}" for p in inventory)
    return FeatureTable("phoneme_onehot", d, names, vectors, inventory, (tuple(range(d)),))


def enrich_with_phonemes(base: FeatureTable) -> FeatureTable:
    """Concatenate a one-hot phoneme block to every row of ``base``."""
    if base.is_enriched or base.set_id == "phoneme_onehot":
        raise FeatureTableError(f"cannot enrich feature set {base.set_id!r}")
    onehot = build_phoneme_onehot(base.inventory)
    vectors = {
        ph: np.concatenate([vec, onehot.vectors[ph]]) for ph, vec in base.vectors.items()
    }
    groups = base.groups + tuple(
        tuple(base.dimension + i for i in g) for g in onehot.groups
    )
    return FeatureTable(
        base.set_id + ENRICH_SUFFIX,
        base.dimension + onehot.dimension,
        base.names + onehot.names,
        vectors,
        base.inventory,
        groups,
    )


def get_table(set_id: str) -> FeatureTable:
    """Load one of the shipped feature sets by id (enriched ids included)."""
    if set_id.endswith(ENRICH_SUFFIX):
        return enrich_with_phonemes(get_table(set_id[: -len(ENRICH_SUFFIX)]))
    if set_id == "phoneme_onehot":
        return build_phoneme_onehot()
    if set_id in ("gp_binary", "gp_unknown"):
        return load_feature_table(_data_path("gp.tsv"), set_id)
    if set_id in ("ap_scalar", "ap_onehot"):
        return load_feature_table(_data_path("ap.tsv"), set_id)
    raise FeatureTableError(f"unknown feature set {set_id!r}")


def encode_target(table: FeatureTable, phoneme: str) -> np.ndarray:
    """Feature vector for one phoneme (a copy; NaN marks unknown entries)."""
    ph = normalize_label(phoneme)
    if ph not in table.vectors:
        raise FeatureTableError(f"phoneme {phoneme!r} not in feature set {table.set_id}")
    return table.vectors[ph].copy()
