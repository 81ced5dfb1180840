"""Phoneme-to-feature-vector encoding.

Five shipped and two custom base feature sets are supported, plus enriched
variants obtained by concatenating a one-hot phoneme block:

    gp_binary       26 distinctive features, zero cells mapped to -1
    gp_unknown      26 distinctive features, zero cells kept as unknown
    ap_scalar       8 tract variables, categories mapped to scalars in [0, 1]
    ap_onehot       32 dims, one one-hot group per tract variable
    phoneme_onehot  47 dims, one per inventory label (incl. silence)
    custom          a table read from a given path, in the {+, -, 0} alphabet
    custom_binary   the same table with zero cells mapped to -1
    <base>_phoneme  base + 47 one-hot phoneme dims (not for phoneme_onehot)

``get_table`` is the only resolver of these ids.  Anything else is a
FeatureTableError, as is a custom id without a table path or a shipped id
with one.

A table is its inventory and one read-only matrix, row i encoding
``inventory[i]`` with NaN for *unknown* (context-dependent) entries.
Silence is generated, never read from a file: the all-zero row in every
set except phoneme_onehot, where it has its own index.
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

# Declared dimensions of the shipped base feature sets, and their data files.
BASE_DIMENSIONS = {
    "gp_binary": 26,
    "gp_unknown": 26,
    "ap_scalar": 8,
    "ap_onehot": 32,
    "phoneme_onehot": 47,
}
_SHIPPED_FILES = {"gp_binary": "gp.tsv", "gp_unknown": "gp.tsv",
                  "ap_scalar": "ap.tsv", "ap_onehot": "ap.tsv"}
# Bases read from a table the config names, in the GP alphabet at any dimension.
CUSTOM_SETS = ("custom", "custom_binary")


class FeatureTableError(ValueError):
    """Malformed feature-table data or an invalid lookup."""


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Immutable phoneme -> feature-vector lookup.

    ``matrix`` is a read-only copy the table owns: row i encodes
    ``inventory[i]``, column j is ``names[j]``; ``row`` is the one lookup of
    a phone label's row.  Tables compare and hash by identity: a field-wise
    ``==`` over the matrix has no truth value.
    """

    set_id: str
    names: tuple[str, ...]
    inventory: tuple[str, ...]
    matrix: np.ndarray
    _rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_rows", {ph: i for i, ph in enumerate(self.inventory)})
        if len(self._rows) != len(self.inventory):
            raise FeatureTableError(f"{self.set_id}: duplicate labels in inventory")
        if matrix.shape != (len(self.inventory), len(self.names)):
            raise FeatureTableError(f"{self.set_id}: matrix has shape {matrix.shape} for "
                                    f"{len(self.inventory)} labels and {len(self.names)} names")

    @property
    def dimension(self) -> int:
        return len(self.names)

    def row(self, phoneme: str) -> int:
        """Index of ``phoneme``'s row in ``matrix``; silence variants share 'sil'."""
        row = self._rows.get(normalize_label(phoneme))
        if row is None:
            raise FeatureTableError(f"phoneme {phoneme!r} not in feature set {self.set_id}")
        return row


def normalize_label(label: str) -> str:
    """Canonical form of a phone label; silence variants collapse to 'sil'."""
    label = label.strip().lower()
    return SILENCE if label in SILENCE_LABELS else label


def read_text(path: Path, error: type[ValueError]) -> str:
    """The UTF-8 text of an input file; one that cannot be read or decoded
    raises ``error`` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc


def _data_path(name: str) -> Path:
    return Path(resources.files("phonotraj") / "data" / name)


def load_inventory() -> tuple[str, ...]:
    """Read the shipped ordered phoneme inventory (one label per line)."""
    p = _data_path("inventory.txt")
    labels = [ln.strip() for ln in p.read_text(encoding="utf-8").splitlines() if ln.strip()]
    if len(labels) != len(set(labels)):
        raise FeatureTableError(f"duplicate labels in inventory {p}")
    return tuple(labels)


def load_ap_scale() -> dict[str, tuple[str, ...]]:
    """Read the shipped feature/category/rank TSV: each tract variable's
    category labels in rank order, scalar values equidistant in [0, 1]
    along it."""
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
    return categories


def _read_rows(path: Path) -> tuple[tuple[str, ...], list[tuple[int, str, list[str]]]]:
    lines = [(i, ln) for i, ln in enumerate(read_text(path, FeatureTableError).splitlines(), 1)
             if ln.strip()]
    if not lines:
        raise FeatureTableError(f"{path}: empty table")
    header = lines[0][1].split("\t")
    if header[0] != "phoneme" or len(header) < 2:
        raise FeatureTableError(f"{path}: header must start with 'phoneme'")
    names = tuple(header[1:])
    rows = []
    seen = set()
    for i, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(header):
            raise FeatureTableError(
                f"{path}:{i}: row has {len(parts) - 1} values, expected {len(names)}"
            )
        ph = normalize_label(parts[0])
        if ph == SILENCE:
            raise FeatureTableError(f"{path}:{i}: silence row {parts[0]!r}; silence is never read")
        if ph in seen:
            raise FeatureTableError(f"{path}:{i}: duplicate phoneme {ph!r}")
        seen.add(ph)
        rows.append((i, ph, parts[1:]))
    return names, rows


# The tables read from TSV files: each GP-alphabet table's value for an
# unknown ('0') cell, and the category-label AP tables.
_GP_UNKNOWN = {"gp_binary": -1.0, "gp_unknown": math.nan,
               "custom": math.nan, "custom_binary": -1.0}
_AP_SETS = ("ap_scalar", "ap_onehot")


def _columns(path: Path, set_id: str, header: tuple[str, ...]) -> list[tuple[tuple, dict]]:
    """Per column of a ``set_id`` table: the names of the dimensions it fills
    and, for each cell value it accepts, the values of those dimensions."""
    if set_id in _GP_UNKNOWN:
        cells = {"+": (1.0,), "-": (-1.0,), "0": (_GP_UNKNOWN[set_id],)}
        return [((name,), cells) for name in header]
    scale = load_ap_scale()
    columns = []
    for feat in header:
        if feat not in scale:
            raise FeatureTableError(f"{path}: feature {feat!r} missing from category scale")
        cats = scale[feat]
        if set_id == "ap_scalar":
            dims, cells = (feat,), {c: (r / max(len(cats) - 1, 1),) for r, c in enumerate(cats)}
        else:
            dims = tuple(f"{feat}={c}" for c in cats)
            cells = {c: tuple(float(i == r) for i in range(len(cats))) for r, c in enumerate(cats)}
        columns.append((dims, {**cells, "0": (math.nan,) * len(dims)}))
    return columns


def load_feature_table(path: str | Path, set_id: str) -> FeatureTable:
    """Load and validate the ``set_id`` table from its TSV file.

    GP-alphabet tables (gp_binary, gp_unknown, custom, custom_binary) use
    {+, -, 0}; the *_binary ones read '0' as -1, the others as unknown.  AP
    tables (ap_scalar, ap_onehot) use category labels with '0' marking
    unknown, resolved against the shipped category scale.  One row loop reads
    them all: each column fills one dimension, or one one-hot group.  The
    custom tables may have any dimension and define their own inventory; the
    others must cover the shipped inventory and list no other label.  A
    table lists no silence row: silence is generated as the all-zero row.
    """
    path = Path(path)
    if set_id not in _GP_UNKNOWN and set_id not in _AP_SETS:
        raise FeatureTableError(f"unsupported set_id {set_id!r} for TSV loading")
    header, rows = _read_rows(path)
    columns = _columns(path, set_id, header)
    vectors = {}
    for i, ph, values in rows:
        row: list[float] = []
        for (_, cells), v in zip(columns, values):
            if v not in cells:
                raise FeatureTableError(
                    f"{path}:{i}: value {v!r} for {ph!r} not in {{{', '.join(cells)}}}")
            row += cells[v]
        vectors[ph] = row
    names = [name for dims, _ in columns for name in dims]
    vectors[SILENCE] = [0.0] * len(names)
    if len(names) != BASE_DIMENSIONS.get(set_id, len(names)):
        raise FeatureTableError(
            f"{set_id}: table has {len(names)} dimensions, expected {BASE_DIMENSIONS[set_id]}")
    # A custom table defines its own inventory, silence appended.
    inventory = (tuple(ph for _, ph, _ in rows) + (SILENCE,) if set_id in CUSTOM_SETS
                 else load_inventory())
    if vectors.keys() != set(inventory):
        raise FeatureTableError(f"{path}: labels in only one of the table and the inventory: "
                                f"{sorted(vectors.keys() ^ set(inventory))}")
    return FeatureTable(set_id, tuple(names), inventory, [vectors[ph] for ph in inventory])


def build_phoneme_onehot(inventory: tuple[str, ...] | None = None) -> FeatureTable:
    """One-hot table over the phoneme inventory (silence has its own index)."""
    if inventory is None:
        inventory = load_inventory()
    names = tuple(f"ph={p}" for p in inventory)
    return FeatureTable("phoneme_onehot", names, inventory, np.eye(len(inventory)))


def enrich_with_phonemes(base: FeatureTable) -> FeatureTable:
    """Concatenate the one-hot phoneme block, the identity over ``base.inventory``."""
    if base.set_id.endswith(ENRICH_SUFFIX) or base.set_id == "phoneme_onehot":
        raise FeatureTableError(f"cannot enrich feature set {base.set_id!r}")
    onehot = build_phoneme_onehot(base.inventory)
    return FeatureTable(base.set_id + ENRICH_SUFFIX, base.names + onehot.names, base.inventory,
                        np.hstack([base.matrix, onehot.matrix]))


def get_table(set_id: str, table_path: str | Path | None = None) -> FeatureTable:
    """The feature table of ``set_id``: a base id, optionally followed by
    ``_phoneme`` (every base but phoneme_onehot).  A shipped base is read from
    the package data and takes no ``table_path``; a custom base (custom,
    custom_binary) is read from ``table_path``, which it needs."""
    base = set_id.removesuffix(ENRICH_SUFFIX)
    if (base not in BASE_DIMENSIONS and base not in CUSTOM_SETS
            or set_id == "phoneme_onehot" + ENRICH_SUFFIX):
        raise FeatureTableError(
            f"unknown feature set {set_id!r}: the bases are {', '.join(BASE_DIMENSIONS)} and "
            f"{', '.join(CUSTOM_SETS)}, each but phoneme_onehot optionally with {ENRICH_SUFFIX}")
    if (base in CUSTOM_SETS) != bool(table_path):
        raise FeatureTableError(f"feature set {set_id!r} " + (
            "is custom and needs a feature_table_path" if base in CUSTOM_SETS
            else "is shipped and takes no feature_table_path"))
    if base == "phoneme_onehot":
        return build_phoneme_onehot()
    table = load_feature_table(table_path or _data_path(_SHIPPED_FILES[base]), base)
    return enrich_with_phonemes(table) if base != set_id else table
