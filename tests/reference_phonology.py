"""The feature-table loader and resolvers as they were before one grammar and
one row loop replaced them: a separate loop per table kind, custom ids
resolved by the config layer.  The tests hold the current code to the tables
this reference builds; ``ap_scalar`` computes the category scale's scalars
here.  ``build_featural`` is the targets' per-phone loop as it was before
one row gather replaced it."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from phonotraj.alignment import PhoneSegmentation
from phonotraj.phonology import (BASE_DIMENSIONS, SILENCE, FeatureTable, FeatureTableError,
                                 _data_path, _read_rows, build_phoneme_onehot,
                                 enrich_with_phonemes, load_ap_scale, load_inventory)

_GP_ALPHABET = {"+": 1.0, "-": -1.0}


def ap_scalar(categories: tuple[str, ...], category: str) -> float:
    """``category``'s scalar: its rank in a tract variable's order, the
    ranks spread equidistantly over [0, 1]."""
    top = len(categories) - 1
    return categories.index(category) / top if top else 0.0


def load_feature_table(path: str | Path, set_id: str) -> FeatureTable:
    path = Path(path)
    if set_id.startswith("gp_") or set_id.startswith("custom"):
        names, rows = _read_rows(path)
        unknown_as = -1.0 if "binary" in set_id else math.nan
        vectors = {}
        for _, ph, values in rows:
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
    elif set_id in ("ap_scalar", "ap_onehot"):
        scale = load_ap_scale()
        names_in, rows = _read_rows(path)
        for feat in names_in:
            if feat not in scale:
                raise FeatureTableError(f"{path}: feature {feat!r} missing from category scale")
        if set_id == "ap_scalar":
            names = names_in
            vectors = {}
            for _, ph, values in rows:
                vec = np.empty(len(names))
                for j, v in enumerate(values):
                    vec[j] = math.nan if v == "0" else ap_scalar(scale[names_in[j]], v)
                vectors[ph] = vec
        else:
            names_list: list[str] = []
            group_list: list[tuple[int, ...]] = []
            for feat in names_in:
                cats = scale[feat]
                group_list.append(tuple(range(len(names_list), len(names_list) + len(cats))))
                names_list.extend(f"{feat}={c}" for c in cats)
            names = tuple(names_list)
            vectors = {}
            for _, ph, values in rows:
                vec = np.zeros(len(names))
                for feat, group, v in zip(names_in, group_list, values):
                    if v == "0":
                        vec[list(group)] = math.nan
                    else:
                        vec[group[scale[feat].index(v)]] = 1.0
                vectors[ph] = vec
    else:
        raise FeatureTableError(f"unsupported set_id {set_id!r} for TSV loading")

    vectors[SILENCE] = np.zeros(len(names))
    declared = BASE_DIMENSIONS.get(set_id)
    if declared is not None and len(names) != declared:
        raise FeatureTableError(
            f"{set_id}: table has {len(names)} dimensions, expected {declared}"
        )
    if set_id.startswith("custom"):
        inventory = tuple(ph for _, ph, _ in rows) + (SILENCE,)
    else:
        inventory = load_inventory()
    missing = [ph for ph in inventory if ph not in vectors]
    if missing:
        raise FeatureTableError(f"{path}: inventory labels missing from table: {missing}")
    return FeatureTable(set_id, tuple(names), inventory,
                        np.stack([vectors[ph] for ph in inventory]))


def get_table(set_id: str) -> FeatureTable:
    """A shipped feature set by id, enriched ids included."""
    if set_id.endswith("_phoneme"):
        return enrich_with_phonemes(get_table(set_id[: -len("_phoneme")]))
    if set_id == "phoneme_onehot":
        return build_phoneme_onehot()
    if set_id in ("gp_binary", "gp_unknown"):
        return load_feature_table(_data_path("gp.tsv"), set_id)
    if set_id in ("ap_scalar", "ap_onehot"):
        return load_feature_table(_data_path("ap.tsv"), set_id)
    raise FeatureTableError(f"unknown feature set {set_id!r}")


def custom_table(set_id: str, path: Path) -> FeatureTable:
    """A custom id with its table path, as the config layer resolved it."""
    table = load_feature_table(path, set_id.removesuffix("_phoneme"))
    return enrich_with_phonemes(table) if set_id.endswith("_phoneme") else table


def build_featural(seg: PhoneSegmentation, table: FeatureTable):
    """The targets X, intervals Y and midpoints t of ``seg``, one
    table row per phone between the zero boundary rows."""
    k = len(seg)
    X = np.zeros((k + 2, table.dimension))
    Y = np.zeros((k + 2, 2))
    for i, ph in enumerate(seg.phones, start=1):
        X[i] = table.matrix[table.row(ph.label)]
        Y[i] = (ph.start, ph.end)
    Y[0] = (0.0, 0.0)
    Y[k + 1] = (seg.phones[-1].end, seg.phones[-1].end)
    return X, Y, Y.mean(axis=1)
