import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from code_transforms import signed_twins
from ostbc_lab.codes import (
    RSQRT2,
    CodeFormatError,
    DispersionCode,
    OrthogonalityError,
    UnknownCodeError,
    builtin_code_ids,
    encode,
    format_code_text,
    get_code,
    load_code_file,
    measure_c,
    parse_code_text,
    save_code_file,
)

R = RSQRT2

PARAMS = {"g2": (2, 2, 2, 1), "g3": (3, 8, 4, 2),
          "g4": (4, 8, 4, 2), "h3": (3, 4, 3, 1)}


def test_builtin_ids():
    assert builtin_code_ids() == ("g2", "g3", "g4", "h3")


def test_irrational_entry_value():
    assert RSQRT2 == pytest.approx(math.sqrt(0.5), rel=1e-15)


@pytest.mark.parametrize("cid", PARAMS)
def test_parameters(cid):
    code = get_code(cid)
    assert (code.n, code.t, code.k, code.c) == PARAMS[cid]
    assert code.a.shape == code.b.shape == (code.k, code.t, code.n)


def test_unknown_id():
    with pytest.raises(UnknownCodeError):
        get_code("g9")


def test_g2_first_dispersion_pair():
    code = get_code("g2")
    np.testing.assert_array_equal(code.a[0], [[1, 0], [0, 1]])
    np.testing.assert_array_equal(code.b[0], [[1, 0], [0, -1]])


def test_h3_third_dispersion_matrix():
    a3 = get_code("h3").a[2]
    np.testing.assert_allclose(
        a3, [[0, 0, R], [0, 0, R], [R, R, 0], [R, -R, 0]], atol=0)


@pytest.mark.parametrize("cid", PARAMS)
def test_entry_values(cid):
    code = get_code(cid)
    allowed = {0.0, 1.0, -1.0, R, -R}
    for mats in (code.a, code.b):
        assert set(np.unique(mats)) <= allowed


def test_encode_g2_basis():
    g = encode(get_code("g2"), np.array([1.0 + 0j, 0.0]))
    np.testing.assert_array_equal(g, [[1, 0], [0, 1]])


def test_encode_g2_generic():
    s1, s2 = 0.3 - 1.1j, -0.7 + 0.2j
    g = encode(get_code("g2"), np.array([s1, s2]))
    want = np.array([[s1, s2], [-np.conj(s2), np.conj(s1)]])
    np.testing.assert_allclose(g, want, atol=0)


def test_encode_h3_third_symbol():
    g = encode(get_code("h3"), np.array([0.0, 0.0, math.sqrt(2.0)]))
    np.testing.assert_allclose(g[:, 2], [1, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(g[:, 0], [0, 0, 1, 1], atol=1e-15)
    np.testing.assert_allclose(g[:, 1], [0, 0, 1, -1], atol=1e-15)


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        encode(get_code("g2"), np.zeros(3, dtype=complex))


@pytest.mark.parametrize("cid", PARAMS)
def test_orthogonality_property(cid):
    code = get_code(cid)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
        g = encode(code, s)
        scale = code.c * float(np.sum(np.abs(s) ** 2))
        dev = g.conj().T @ g - scale * np.eye(code.n)
        assert np.max(np.abs(dev)) <= 1e-9 * scale


@pytest.mark.parametrize("cid", PARAMS)
def test_encode_real_linearity(cid):
    code = get_code(cid)
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
        t = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
        a, b = rng.standard_normal(2)
        lhs = encode(code, a * s + b * t)
        rhs = a * encode(code, s) + b * encode(code, t)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("cid,c", [("g2", 1), ("g3", 2), ("g4", 2), ("h3", 1)])
def test_measure_c(cid, c):
    assert measure_c(get_code(cid)) == c


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(builtin_code_ids()), st.data())
def test_measure_c_invariant_under_signed_permutations(cid, data):
    # G(s) -> diag(row_sign) G(s) P diag(col_sign) leaves G^H G, so c, alone
    code = get_code(cid)
    twin = data.draw(signed_twins(code))
    assert measure_c(twin) == code.c


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(builtin_code_ids()), st.data())
def test_text_round_trip_of_signed_twins(cid, data):
    twin = data.draw(signed_twins(get_code(cid)))
    assert parse_code_text(format_code_text(twin)) == twin


def test_measure_c_rejects_every_single_sign_flip():
    flips = 0
    for cid in builtin_code_ids():
        code = get_code(cid)
        for stack in ("a_tags", "b_tags"):
            tags = np.array(getattr(code, stack))
            for index in np.argwhere(tags):
                mats = tags.copy()
                mats[tuple(index)] *= -1
                flipped = tuple(tuple(map(tuple, mat)) for mat in mats.tolist())
                with pytest.raises(OrthogonalityError):
                    measure_c(replace(code, **{stack: flipped}))
                flips += 1
    assert flips == 144  # every nonzero tag of g2, g3, g4 and h3


def test_measure_c_rejects_zero_scale():
    # the all-zero design meets every Gram condition, but with c = 0
    code = get_code("g2")
    zero = ((0, 0), (0, 0))
    with pytest.raises(OrthogonalityError, match="c = 0"):
        measure_c(replace(code, a_tags=(zero, zero), b_tags=(zero, zero)))


@pytest.mark.parametrize("cid", PARAMS)
def test_text_round_trip(cid):
    code = get_code(cid)
    twin = parse_code_text(format_code_text(code))
    assert twin.id == code.id
    assert (twin.n, twin.t, twin.k, twin.c) == (code.n, code.t, code.k, code.c)
    assert twin.a_tags == code.a_tags
    assert twin.b_tags == code.b_tags


def test_file_round_trip(tmp_path):
    path = tmp_path / "g4.code"
    save_code_file(get_code("g4"), path)
    twin = load_code_file(path)
    assert twin.a_tags == get_code("g4").a_tags


def test_corrupted_code_fails_orthogonality(tmp_path):
    text = format_code_text(get_code("g2"))
    lines = text.splitlines()
    row = next(i for i, ln in enumerate(lines)
               if ln.split() == ["1", "0"])
    lines[row] = "-1 0"
    bad = parse_code_text("\n".join(lines) + "\n")
    with pytest.raises(OrthogonalityError):
        measure_c(bad)


G2_TEXT = format_code_text(get_code("g2"))


@pytest.mark.parametrize("text,match", [
    ("", "empty code description"),
    ("# a comment\n\n", "empty code description"),
    (G2_TEXT.replace("A2\n", "A3\n"), "expected block 'A2', got 'A3'"),
    (G2_TEXT[:G2_TEXT.index("A2\n")], "expected block 'A2', got '<eof>'"),
    (G2_TEXT.replace("A1\n1 0\n", "A1\n1 0 0\n"),
     "block 'A1': expected 2 entries per row, got 3"),
    (G2_TEXT.replace("A1\n1 0\n", "A1\n1 x\n"),
     "block 'A1': bad entry token 'x'"),
    (G2_TEXT + "extra\n", "trailing content after last block: 'extra'"),
    ("code z N=2 T=2 K=0 c=1\n", "dimensions and scale must be positive"),
], ids=["empty", "comments-only", "misnamed-block", "missing-block",
        "entry-count", "unknown-token", "trailing", "bad-dimensions"])
def test_parse_rejects_malformed_text(text, match):
    with pytest.raises(CodeFormatError, match=match):
        parse_code_text(text)


@pytest.mark.parametrize("kw,match", [
    ({"c": 0}, "dimensions and scale must be positive"),
    ({"a_tags": (((1,),), ((1,),))}, "expected 1 dispersion matrices, got 2"),
    ({"b_tags": (((1, 0),),)}, "dispersion matrices must be 1x1"),
    ({"a_tags": (((3,),),)}, "invalid entry tag 3"),
    # a float dimension would otherwise fail later, in build_symbolic_lattice
    ({"n": 2.0}, "^n must be an integer$"),
    ({"t": 1.5}, "^t must be an integer$"),
    ({"k": "1"}, "^k must be an integer$"),
    ({"c": np.float64(1.0)}, "^c must be an integer$"),
    # each equals the tag 1, and would be carried into the lattice entries
    ({"a_tags": (((1.0,),),)}, r"^invalid entry tag 1\.0$"),
    ({"a_tags": (((True,),),)}, "^invalid entry tag True$"),
    ({"b_tags": (((np.int64(1),),),)}, r"^invalid entry tag np\.int64\(1\)$"),
], ids=["scale", "matrix-count", "matrix-shape", "tag", "float-n", "float-t",
        "str-k", "float-c", "float-tag", "bool-tag", "numpy-int-tag"])
def test_dispersion_code_rejects(kw, match):
    base = dict(id="x", n=1, t=1, k=1, c=1, a_tags=(((1,),),),
                b_tags=(((1,),),))
    with pytest.raises(ValueError, match=match):
        DispersionCode(**{**base, **kw})


def test_malformed_text_rejected():
    with pytest.raises(CodeFormatError):
        parse_code_text("code x N=2 T=2 K=2 c=1\nA1\n1 0\n")
    with pytest.raises(CodeFormatError):
        parse_code_text("not a header\n")
