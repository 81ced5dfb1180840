import re

import numpy as np
import pytest

from phonotraj.alignment import (
    AlignmentError,
    Phone,
    PhoneSegmentation,
    build_featural,
    parse_alignment,
    parse_lab,
    parse_textgrid,
    trim_and_filter,
)
from phonotraj.phonology import encode_target, get_table


def seg(*phones, offset=0.0):
    return PhoneSegmentation("utt", tuple(Phone(*p) for p in phones), offset=offset)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_lab_three_phones(tmp_path):
    p = tmp_path / "u.lab"
    p.write_text("0.0 0.5 sil\n0.5 0.9 aa\n0.9 1.4 sil\n", encoding="utf-8")
    s = parse_lab(p)
    assert len(s) == 3
    assert s.phones[1] == Phone("aa", 0.5, 0.9)


def test_parse_lab_rejects_gap(tmp_path):
    p = tmp_path / "g.lab"
    p.write_text("0.0 0.5 sil\n0.6 0.9 aa\n", encoding="utf-8")
    with pytest.raises(AlignmentError, match="contiguous"):
        parse_lab(p)


def test_parse_lab_rejects_inverted_interval(tmp_path):
    p = tmp_path / "i.lab"
    p.write_text("0.0 0.5 sil\n0.5 0.4 aa\n", encoding="utf-8")
    with pytest.raises(AlignmentError):
        parse_lab(p)


LONG_TEXTGRID = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.4
tiers? <exists>
size = 1
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 1.4
        intervals: size = 3
        intervals [1]:
            xmin = 0
            xmax = 0.5
            text = "sil"
        intervals [2]:
            xmin = 0.5
            xmax = 0.9
            text = "aa"
        intervals [3]:
            xmin = 0.9
            xmax = 1.4
            text = "sil"
"""

SHORT_TEXTGRID = """File type = "ooTextFile"
Object class = "TextGrid"

0
1.4
<exists>
1
"IntervalTier"
"phones"
0
1.4
3
0
0.5
"sil"
0.5
0.9
"aa"
0.9
1.4
"sil"
"""


def _independent_textgrid_read(text):
    """Minimal alternative reader: pull xmin/xmax/text triples in order."""
    triples = re.findall(
        r"xmin\s*=\s*([\d.]+)\s*\n\s*xmax\s*=\s*([\d.]+)\s*\n\s*text\s*=\s*\"([^\"]*)\"",
        text,
    )
    return [(lab, float(a), float(b)) for a, b, lab in triples]


def test_parse_textgrid_long_matches_independent_reader(tmp_path):
    p = tmp_path / "u.TextGrid"
    p.write_text(LONG_TEXTGRID, encoding="utf-8")
    s = parse_textgrid(p)
    expected = _independent_textgrid_read(LONG_TEXTGRID)
    assert [(ph.label, ph.start, ph.end) for ph in s.phones] == expected
    assert len(s) == 3


def test_parse_textgrid_short_form(tmp_path):
    p = tmp_path / "s.TextGrid"
    p.write_text(SHORT_TEXTGRID, encoding="utf-8")
    s = parse_textgrid(p)
    assert [(ph.label, ph.start, ph.end) for ph in s.phones] == [
        ("sil", 0.0, 0.5), ("aa", 0.5, 0.9), ("sil", 0.9, 1.4)
    ]


def test_parse_textgrid_gap_rejected(tmp_path):
    p = tmp_path / "gap.TextGrid"
    p.write_text(LONG_TEXTGRID.replace('xmin = 0.9', 'xmin = 0.95'), encoding="utf-8")
    with pytest.raises(AlignmentError, match="contiguous"):
        parse_textgrid(p)


def test_parse_alignment_dispatches_on_extension(tmp_path):
    lab = tmp_path / "u.lab"
    lab.write_text("0.0 0.5 sil\n0.5 0.9 aa\n0.9 1.0 sil\n", encoding="utf-8")
    tg = tmp_path / "u.TextGrid"
    tg.write_text(LONG_TEXTGRID, encoding="utf-8")
    assert len(parse_alignment(lab)) == 3
    assert len(parse_alignment(tg)) == 3
    # an unknown suffix is rejected, not read as .lab
    txt = tmp_path / "u.txt"
    txt.write_text(lab.read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(AlignmentError, match="unknown alignment suffix '.txt'"):
        parse_alignment(txt)


# One tier in Praat's long and short text forms: a ""-escaped label, an
# empty label and a second tier after it.
TIER_LONG = """File type = "ooTextFile"
Object class = "TextGrid"

xmin = 0
xmax = 1.0
tiers? <exists>
size = 2
item []:
    item [1]:
        class = "IntervalTier"
        name = "phones"
        xmin = 0
        xmax = 1.0
        intervals: size = 4
        intervals [1]:
            xmin = 0
            xmax = 0.25
            text = ""
        intervals [2]:
            xmin = 0.25
            xmax = 0.5
            text = "a""a"
        intervals [3]:
            xmin = 0.5
            xmax = 0.75
            text = "b"
        intervals [4]:
            xmin = 0.75
            xmax = 1.0
            text = "sil"
    item [2]:
        class = "IntervalTier"
        name = "words"
        xmin = 0
        xmax = 1.0
        intervals: size = 1
        intervals [1]:
            xmin = 0
            xmax = 1.0
            text = "word"
"""

TIER_SHORT = """File type = "ooTextFile"
Object class = "TextGrid"

0
1.0
<exists>
2
"IntervalTier"
"phones"
0
1.0
4
0
0.25
""
0.25
0.5
"a""a"
0.5
0.75
"b"
0.75
1.0
"sil"
"IntervalTier"
"words"
0
1.0
1
0
1.0
"word"
"""


def test_parse_textgrid_long_and_short_forms_agree(tmp_path):
    read = []
    for name, text in (("long", TIER_LONG), ("short", TIER_SHORT)):
        p = tmp_path / f"{name}.TextGrid"
        p.write_text(text, encoding="utf-8")
        read.append([(ph.label, ph.start, ph.end) for ph in parse_textgrid(p).phones])
    assert read[0] == read[1] == [
        ("", 0.0, 0.25), ('a"a', 0.25, 0.5), ("b", 0.5, 0.75), ("sil", 0.75, 1.0)
    ]


@pytest.mark.parametrize("text, message", [
    (TIER_SHORT.replace("\n0.5\n0.75\n", "\n0.5\nlater\n"), "expected a number"),
    (TIER_SHORT.replace("\n0.5\n0.75\n", "\n0.5\n0.75s\n"), "'0.75s' is not a number"),
    (TIER_LONG.replace("xmax = 0.75", "xmax = 0.75s"), "'0.75s' is not a number"),
    (TIER_SHORT.replace("\n4\n", "\n9\n"), "expected a number"),
    (TIER_SHORT.replace("\n4\n", "\n2.5\n"), "bad interval count"),
    (TIER_SHORT.split('"IntervalTier"')[0], "no interval tier"),
    (TIER_SHORT[:TIER_SHORT.index('"b"')], "truncated"),
], ids=["time-is-a-word", "time-with-unit-short", "time-with-unit-long", "count-too-large",
        "count-not-whole", "no-interval-tier", "truncated"])
def test_parse_textgrid_rejects_malformed_tier(tmp_path, text, message):
    p = tmp_path / "bad.TextGrid"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(AlignmentError, match=message):
        parse_textgrid(p)


# ---------------------------------------------------------------------------
# trimming
# ---------------------------------------------------------------------------


def test_trim_strips_boundary_silence_and_retimes():
    s = seg(("sil", 0.0, 0.5), ("aa", 0.5, 0.9), ("sil", 0.9, 1.4))
    out = trim_and_filter(s)
    assert out is not None
    assert [(p.label, round(p.start, 9), round(p.end, 9)) for p in out.phones] == [
        ("aa", 0.0, 0.4)
    ]
    assert out.offset == 0.5


def test_trim_rejects_one_sided_silence():
    assert trim_and_filter(seg(("aa", 0.0, 0.4), ("sil", 0.4, 0.8))) is None
    assert trim_and_filter(seg(("sil", 0.0, 0.4), ("aa", 0.4, 0.8))) is None


def test_trim_rejects_all_silence():
    assert trim_and_filter(seg(("sil", 0.0, 0.4), ("sp", 0.4, 0.8))) is None


def test_trim_keeps_internal_silence():
    s = seg(("sil", 0.0, 0.2), ("aa", 0.2, 0.4), ("sp", 0.4, 0.5),
            ("bb", 0.5, 0.8), ("sil", 0.8, 1.0))
    out = trim_and_filter(s)
    assert [p.label for p in out.phones] == ["aa", "sp", "bb"]


def test_trim_strips_silence_runs():
    s = seg(("sil", 0.0, 0.1), ("sp", 0.1, 0.3), ("aa", 0.3, 0.5),
            ("sil", 0.5, 0.6), ("sil", 0.6, 0.9))
    out = trim_and_filter(s)
    assert [p.label for p in out.phones] == ["aa"]
    assert out.offset == pytest.approx(0.3)


@pytest.mark.parametrize("label", ["SIL", " sp ", "Spn", ""])
def test_trim_strips_every_label_the_tables_read_as_silence(label):
    out = trim_and_filter(seg((label, 0.0, 0.2), ("aa", 0.2, 0.4), (label, 0.4, 0.6)))
    assert [p.label for p in out.phones] == ["aa"]
    assert get_table("gp_unknown").row(label) == get_table("gp_unknown").row("sil")


def test_trim_is_idempotent():
    s = seg(("sil", 0.0, 0.5), ("aa", 0.5, 0.9), ("ae", 0.9, 1.1), ("sil", 1.1, 1.4))
    once = trim_and_filter(s)
    twice = trim_and_filter(once)
    assert twice is once


# ---------------------------------------------------------------------------
# featural segmentation
# ---------------------------------------------------------------------------

TABLE = get_table("gp_unknown")


def test_build_featural_single_phone():
    out = build_featural(seg(("aa", 0.0, 0.4)), TABLE)
    assert out.num_targets == 1
    np.testing.assert_allclose(out.t, [0.0, 0.2, 0.4])
    np.testing.assert_array_equal(out.X[0], np.zeros(26))
    np.testing.assert_array_equal(out.X[2], np.zeros(26))
    np.testing.assert_array_equal(out.X[1], encode_target(TABLE, "aa"))


def test_build_featural_two_phone_midpoints():
    out = build_featural(seg(("aa", 0.0, 0.2), ("ae", 0.2, 0.6)), TABLE)
    np.testing.assert_allclose(out.t, [0.0, 0.1, 0.4, 0.6])
    np.testing.assert_array_equal(out.Y[0], [0.0, 0.0])
    np.testing.assert_array_equal(out.Y[3], [0.6, 0.6])


def test_segmentations_of_one_table_hold_its_matrix():
    a = build_featural(seg(("aa", 0.0, 0.2), ("ae", 0.2, 0.6)), TABLE)
    b = build_featural(seg(("p", 0.0, 0.3)), TABLE)
    assert a.targets is TABLE.matrix and b.targets is TABLE.matrix
    np.testing.assert_array_equal(a.rows, [TABLE.row("aa"), TABLE.row("ae")])
    for out in (a, b):
        np.testing.assert_array_equal(out.X[[0, -1]], 0.0)
        np.testing.assert_array_equal(out.X[1:-1], TABLE.matrix[out.rows])


def test_each_read_of_x_builds_a_fresh_array():
    out = build_featural(seg(("aa", 0.0, 0.2), ("ae", 0.2, 0.6)), TABLE)
    first, second = out.X, out.X
    assert first is not second and not np.shares_memory(first, TABLE.matrix)
    np.testing.assert_array_equal(first, second)
    first[1] = 5.0
    np.testing.assert_array_equal(out.X, second)
    assert "X" not in vars(out)  # never cached on the instance


def test_build_featural_empty_rejected():
    with pytest.raises(AlignmentError):
        build_featural(PhoneSegmentation("utt", ()), TABLE)


def test_build_featural_unknown_phone_rejected():
    from phonotraj.phonology import FeatureTableError

    with pytest.raises(FeatureTableError):
        build_featural(seg(("qq", 0.0, 0.4)), TABLE)


def test_featural_invariants_on_random_segmentations():
    rng = np.random.default_rng(0)
    inv = [p for p in TABLE.inventory if p != "sil"]
    for _ in range(50):
        k = int(rng.integers(1, 12))
        durs = rng.uniform(0.03, 0.3, size=k)
        bounds = np.concatenate([[0.0], np.cumsum(durs)])
        phones = tuple(
            Phone(inv[int(rng.integers(len(inv)))], bounds[i], bounds[i + 1])
            for i in range(k)
        )
        out = build_featural(PhoneSegmentation("u", phones), TABLE)
        assert out.X.shape[0] == k + 2
        assert np.all(np.diff(out.t) > 0)
        assert out.t[0] == 0.0
        # re-deriving t from Y reproduces t bitwise
        np.testing.assert_array_equal(out.t, out.Y.mean(axis=1))
        np.testing.assert_array_equal(out.t, 0.5 * (out.Y @ np.ones(2)))
