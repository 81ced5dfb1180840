import json
import re

import numpy as np
import pytest

import reference_phonology as reference
from phonotraj import cli
from phonotraj.alignment import Phone, PhoneSegmentation, build_featural
from phonotraj.phonology import (
    FeatureTable,
    FeatureTableError,
    _data_path,
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
    assert table.matrix.shape == (len(table.inventory), d)
    for ph in table.inventory:
        assert encode_target(table, ph).shape == (d,)


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
    assert get_table(set_id).matrix.shape == (47, d)


def test_encode_round_trip_equals_stored_row():
    table = get_table("gp_unknown")
    for i, ph in enumerate(table.inventory):
        np.testing.assert_array_equal(encode_target(table, ph), table.matrix[i])


def test_gp_binary_is_gp_unknown_with_unknowns_as_minus_one():
    unk = get_table("gp_unknown")
    binary = get_table("gp_binary")
    for ph in unk.inventory:
        if ph == "sil":
            continue
        u = encode_target(unk, ph)
        b = encode_target(binary, ph)
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
        row = encode_target(table, ph)
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
    stack = np.vstack([encode_target(table, ph) for ph in table.inventory])
    np.testing.assert_array_equal(stack, np.eye(47))
    np.testing.assert_array_equal(table.matrix, np.eye(47))


def test_ap_onehot_groups_are_valid():
    table = get_table("ap_onehot")
    features = [name.split("=")[0] for name in table.names]
    groups = [[j for j, f in enumerate(features) if f == feat] for feat in dict.fromkeys(features)]
    assert len(groups) == 8
    covered = sorted(i for g in groups for i in g)
    assert covered == list(range(32))
    for ph in table.inventory:
        if ph == "sil":
            continue
        row = encode_target(table, ph)
        for g in groups:
            block = row[g]
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
        row = encode_target(table, ph)
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
        row = encode_target(enriched, ph)
        np.testing.assert_array_equal(
            row, np.concatenate([encode_target(base, ph), encode_target(onehot, ph)]))
        # phoneme block always fully specified
        assert not np.isnan(row[base.dimension:]).any()


def test_enrich_twice_rejected():
    enriched = enrich_with_phonemes(get_table("gp_unknown"))
    with pytest.raises(FeatureTableError):
        enrich_with_phonemes(enriched)
    with pytest.raises(FeatureTableError):
        enrich_with_phonemes(build_phoneme_onehot())


def test_unknown_phoneme_is_an_error():
    table = get_table("gp_unknown")
    unknown = PhoneSegmentation("utt", (Phone("aa", 0.0, 0.1), Phone("qx", 0.1, 0.2)))
    message = "^phoneme 'qx' not in feature set gp_unknown$"
    for encode in (lambda: encode_target(table, "qx"), lambda: build_featural(unknown, table)):
        with pytest.raises(FeatureTableError, match=message):
            encode()


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
    # The message used to name the file but not the line, unlike every other row error.
    with pytest.raises(FeatureTableError, match=re.escape(
            f"{bad}:2: value '2' for 'a' not in {{+, -, 0}}")):
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
    assert table.inventory == expected.inventory
    assert table.matrix.shape == expected.matrix.shape
    for label in expected.inventory:
        row, want = encode_target(table, label), encode_target(expected, label)
        assert row.dtype == want.dtype
        assert row.tobytes() == want.tobytes(), label


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
    assert np.isnan(encode_target(plain, "ph00")[1]) and encode_target(binary, "ph00")[1] == -1.0
    for label in plain.inventory:
        vec = encode_target(plain, label)
        np.testing.assert_array_equal(encode_target(binary, label),
                                      np.where(np.isnan(vec), -1.0, vec))


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


# ---------------------------------------------------------------------------
# a table is its inventory and one read-only matrix; targets are its rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("set_id", SHIPPED_IDS + CUSTOM_IDS)
def test_build_featural_equals_the_per_phone_reference(custom_tsv, set_id):
    table = get_table(set_id, custom_tsv if set_id.startswith("custom") else None)
    labels = [*table.inventory[::-1], "SP", table.inventory[-1].upper(), ""]
    phones = tuple(Phone(label, 0.05 * i, 0.05 * (i + 1)) for i, label in enumerate(labels))
    out = build_featural(PhoneSegmentation("utt", phones), table)
    for got, want in zip((out.X, out.Y, out.t),
                         reference.build_featural(PhoneSegmentation("utt", phones), table)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("set_id", SHIPPED_IDS + CUSTOM_IDS)
def test_table_matrix_is_read_only(custom_tsv, set_id):
    table = get_table(set_id, custom_tsv if set_id.startswith("custom") else None)
    with pytest.raises(ValueError, match="read-only"):
        table.matrix[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        table.matrix[table.row("sil")] += 1.0


def test_table_owns_a_copy_of_its_matrix():
    source = np.eye(2)
    table = FeatureTable("t", ("f0", "f1"), ("a", "sil"), source)
    source[0, 0] = 7.0
    np.testing.assert_array_equal(table.matrix, np.eye(2))
    encode_target(table, "a")[0] = 7.0  # a fresh array, not a view of the row
    np.testing.assert_array_equal(table.matrix, np.eye(2))


def test_tables_compare_and_hash_by_identity():
    # == used to compare the matrices field-wise and raise ValueError (their
    # truth value is ambiguous); hash raised TypeError.
    table, again = get_table("gp_unknown"), get_table("gp_unknown")
    assert table == table and (table == again) is (table is again)
    assert hash(table) == hash(table)
    assert len({table, again, table}) == len({id(table), id(again)})


@pytest.mark.parametrize("inventory, matrix, message", [
    (("a", "b", "a"), np.zeros((3, 2)), "duplicate labels"),
    (("a", "b"), np.zeros((3, 2)), r"shape \(3, 2\) for 2 labels and 2 names"),
    (("a", "b"), np.zeros((2, 3)), r"shape \(2, 3\) for 2 labels and 2 names"),
])
def test_table_invariants(inventory, matrix, message):
    with pytest.raises(FeatureTableError, match=message):
        FeatureTable("t", ("f0", "f1"), inventory, matrix)


@pytest.mark.parametrize("label", ["sil", "sp", "SPN", ""])
def test_silence_row_in_a_table_rejected(tmp_path, capsys, label):
    # A custom table listing silence used to put it twice in the inventory:
    # ('aa', 'sil', 'b', 'sil'), so custom_phoneme had two ph=sil dimensions.
    path = tmp_path / "features.tsv"
    path.write_text(f"phoneme\tf0\naa\t+\n\n{label}\t-\nb\t0\n", encoding="utf-8")
    message = f"{path}:4: silence row {label!r}"
    for set_id in CUSTOM_IDS:
        with pytest.raises(FeatureTableError, match=re.escape(message)):
            get_table(set_id, path)
    # the command rejects it as a validation error before any input is read
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"dataset_root": str(tmp_path), "speakers": ["spk00"],
                                  "feature_set": "custom", "feature_table_path": path.name,
                                  "out_dir": str(tmp_path / "out")}), encoding="utf-8")
    assert cli.main(["run", "--config", str(config)]) == 1
    assert message in capsys.readouterr().err


def test_shipped_table_labels_must_be_the_inventory(tmp_path):
    # A label outside the inventory used to be kept and encodable in the
    # base set, and to crash the enriched one with a KeyError.
    lines = _data_path("gp.tsv").read_text(encoding="utf-8").splitlines()
    last, cells = lines[-1].split("\t", 1)
    path = tmp_path / "gp.tsv"
    for rows, odd in ((lines[:-1], last), (lines + [f"zz\t{cells}"], "zz")):
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(FeatureTableError, match=re.escape(
                f"labels in only one of the table and the inventory: [{odd!r}]")):
            load_feature_table(path, "gp_unknown")
