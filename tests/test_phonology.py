import numpy as np
import pytest

import reference_phonology as reference
from phonotraj.phonology import (
    FeatureTableError,
    build_phoneme_onehot,
    encode_target,
    enrich_with_phonemes,
    get_table,
    load_ap_scale,
    load_feature_table,
    load_inventory,
)

BASE_DIMS = {
    "gp_binary": 26,
    "gp_unknown": 26,
    "ap_scalar": 8,
    "ap_onehot": 32,
    "phoneme_onehot": 47,
}


def test_inventory_has_47_labels_with_silence():
    inv = load_inventory()
    assert len(inv) == 47
    assert "sil" in inv
    assert len(set(inv)) == 47


@pytest.mark.parametrize("set_id,d", sorted(BASE_DIMS.items()))
def test_base_dimensions(set_id, d):
    table = get_table(set_id)
    assert table.dimension == d
    assert len(table.names) == d
    for ph in table.inventory:
        assert table.vectors[ph].shape == (d,)


@pytest.mark.parametrize(
    "set_id,d",
    [("gp_binary_phoneme", 73), ("gp_unknown_phoneme", 73),
     ("ap_scalar_phoneme", 55), ("ap_onehot_phoneme", 79)],
)
def test_enriched_dimensions(set_id, d):
    # Pure concatenation: base + 47.  (The 94/70 dimension counts printed
    # elsewhere for the enriched AP sets are not reproducible from 32+47 and
    # 8+47; this package uses the arithmetic.)
    assert get_table(set_id).dimension == d


def test_encode_round_trip_equals_stored_row():
    table = get_table("gp_unknown")
    for ph in table.inventory:
        np.testing.assert_array_equal(
            encode_target(table, ph), table.vectors[ph]
        )


def test_gp_binary_is_gp_unknown_with_unknowns_as_minus_one():
    unk = get_table("gp_unknown")
    binary = get_table("gp_binary")
    for ph in unk.inventory:
        if ph == "sil":
            continue
        u = unk.vectors[ph]
        b = binary.vectors[ph]
        np.testing.assert_array_equal(np.where(np.isnan(u), -1.0, u), b)


def test_gp_unknown_actually_has_unknowns():
    table = get_table("gp_unknown")
    row = encode_target(table, "p")
    assert np.isnan(row).any()
    specified = row[~np.isnan(row)]
    assert set(np.unique(specified)) <= {-1.0, 1.0}


def test_gp_binary_values_are_plus_minus_one():
    table = get_table("gp_binary")
    for ph in table.inventory:
        if ph == "sil":
            continue
        row = table.vectors[ph]
        assert not np.isnan(row).any()
        assert set(np.unique(row)) <= {-1.0, 1.0}


def test_silence_is_all_zero_in_non_onehot_sets():
    for set_id in ("gp_binary", "gp_unknown", "ap_scalar", "ap_onehot"):
        row = encode_target(get_table(set_id), "sil")
        assert np.array_equal(row, np.zeros(row.size))


def test_silence_aliases_map_to_sil():
    table = get_table("gp_unknown")
    for alias in ("sp", "spn", "SIL"):
        np.testing.assert_array_equal(
            encode_target(table, alias), encode_target(table, "sil")
        )


def test_phoneme_onehot_is_identity():
    table = build_phoneme_onehot()
    assert table.dimension == 47
    stack = np.vstack([table.vectors[ph] for ph in table.inventory])
    np.testing.assert_array_equal(stack, np.eye(47))


def test_ap_onehot_groups_are_valid():
    table = get_table("ap_onehot")
    assert len(table.groups) == 8
    covered = sorted(i for g in table.groups for i in g)
    assert covered == list(range(32))
    for ph in table.inventory:
        if ph == "sil":
            continue
        row = table.vectors[ph]
        for g in table.groups:
            block = row[list(g)]
            if np.isnan(block).any():
                assert np.isnan(block).all()
            else:
                assert np.sum(block) == 1.0
                assert np.sum(block == 1.0) == 1
                assert np.all((block == 0.0) | (block == 1.0))


def test_ap_scalar_values_in_unit_interval_and_scale_increasing():
    scale = load_ap_scale()
    for feature, cats in scale.categories.items():
        values = [scale.scalar(feature, c) for c in cats]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert len(set(values)) == len(values)
    table = get_table("ap_scalar")
    for ph in table.inventory:
        row = table.vectors[ph]
        ok = row[~np.isnan(row)]
        assert np.all((ok >= 0.0) & (ok <= 1.0))


def test_ap_onehot_category_count_is_32():
    scale = load_ap_scale()
    assert sum(len(c) for c in scale.categories.values()) == 32


def test_enriched_rows_are_concatenations():
    base = get_table("gp_unknown")
    onehot = build_phoneme_onehot()
    enriched = enrich_with_phonemes(base)
    for ph in base.inventory:
        np.testing.assert_array_equal(
            enriched.vectors[ph],
            np.concatenate([base.vectors[ph], onehot.vectors[ph]]),
        )
        # phoneme block always fully specified
        assert not np.isnan(enriched.vectors[ph][base.dimension:]).any()


def test_enrich_twice_rejected():
    enriched = enrich_with_phonemes(get_table("gp_unknown"))
    with pytest.raises(FeatureTableError):
        enrich_with_phonemes(enriched)
    with pytest.raises(FeatureTableError):
        enrich_with_phonemes(build_phoneme_onehot())


def test_unknown_phoneme_is_an_error():
    with pytest.raises(FeatureTableError):
        encode_target(get_table("gp_unknown"), "qx")


def test_wrong_arity_row_rejected(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("phoneme\tf1\tf2\na\t+\t-\nb\t+\n", encoding="utf-8")
    with pytest.raises(FeatureTableError, match="1 values"):
        load_feature_table(bad, "custom")


def test_duplicate_phoneme_rejected(tmp_path):
    bad = tmp_path / "dup.tsv"
    bad.write_text("phoneme\tf1\na\t+\na\t-\n", encoding="utf-8")
    with pytest.raises(FeatureTableError, match="duplicate"):
        load_feature_table(bad, "custom")


def test_bad_symbol_rejected(tmp_path):
    bad = tmp_path / "sym.tsv"
    bad.write_text("phoneme\tf1\na\t2\n", encoding="utf-8")
    with pytest.raises(FeatureTableError, match="not in"):
        load_feature_table(bad, "custom")


def test_declared_dimension_enforced(tmp_path):
    short = tmp_path / "short.tsv"
    header = "phoneme\t" + "\t".join(f"f{i}" for i in range(25))
    row = "p\t" + "\t".join("+" for _ in range(25))
    short.write_text(header + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(FeatureTableError, match="expected 26"):
        load_feature_table(short, "gp_unknown")


# ---------------------------------------------------------------------------
# one grammar of set ids, one row loop: the tables equal the reference loader's
# ---------------------------------------------------------------------------

SHIPPED_IDS = sorted(BASE_DIMS) + [f"{b}_phoneme" for b in sorted(BASE_DIMS)
                                   if b != "phoneme_onehot"]
CUSTOM_IDS = ["custom", "custom_binary", "custom_phoneme", "custom_binary_phoneme"]


def assert_same_table(table, expected):
    assert (table.set_id, table.dimension, table.names) == (
        expected.set_id, expected.dimension, expected.names)
    assert table.groups == expected.groups
    assert table.inventory == expected.inventory
    assert list(table.vectors) == list(expected.vectors)
    for label, vec in expected.vectors.items():
        assert table.vectors[label].dtype == vec.dtype
        assert table.vectors[label].tobytes() == vec.tobytes(), label


@pytest.fixture
def custom_tsv(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("phoneme\tf0\tf1\tf2\nph00\t+\t0\t-\nph01\t0\t-\t+\nph02\t-\t+\t0\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("set_id", SHIPPED_IDS)
def test_shipped_tables_equal_the_reference_loader(set_id):
    assert len(SHIPPED_IDS) == 9
    assert_same_table(get_table(set_id), reference.get_table(set_id))


@pytest.mark.parametrize("set_id", CUSTOM_IDS)
def test_custom_tables_equal_the_reference_loader(custom_tsv, set_id):
    assert_same_table(get_table(set_id, custom_tsv), reference.custom_table(set_id, custom_tsv))


def test_custom_binary_maps_zero_to_minus_one(custom_tsv):
    plain, binary = get_table("custom", custom_tsv), get_table("custom_binary", custom_tsv)
    assert np.isnan(plain.vectors["ph00"][1]) and binary.vectors["ph00"][1] == -1.0
    for label, vec in plain.vectors.items():
        np.testing.assert_array_equal(binary.vectors[label], np.where(np.isnan(vec), -1.0, vec))


def test_custom_phoneme_is_the_enriched_custom_table(custom_tsv):
    assert_same_table(get_table("custom_phoneme", custom_tsv),
                      enrich_with_phonemes(get_table("custom", custom_tsv)))


@pytest.mark.parametrize("set_id, with_path, message", [
    ("custom_phonemes", True, "unknown feature set 'custom_phonemes'"),
    ("customized", True, "unknown feature set 'customized'"),
    ("custom_phoneme_phoneme", True, "unknown feature set"),
    ("phoneme_onehot_phoneme", False, "unknown feature set"),
    ("gp_unknown", True, "is shipped and takes no feature_table_path"),
    ("phoneme_onehot", True, "is shipped and takes no feature_table_path"),
    ("custom", False, "is custom and needs a feature_table_path"),
    ("custom_binary_phoneme", False, "is custom and needs a feature_table_path"),
])
def test_set_ids_outside_the_grammar_rejected(custom_tsv, set_id, with_path, message):
    with pytest.raises(FeatureTableError, match=message):
        get_table(set_id, custom_tsv if with_path else None)


def test_tsv_loading_takes_base_ids_only(custom_tsv):
    for set_id in ("custom_phoneme", "customized", "gp_foo", "phoneme_onehot"):
        with pytest.raises(FeatureTableError, match="unsupported set_id"):
            load_feature_table(custom_tsv, set_id)
