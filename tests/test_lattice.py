import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ostbc_lab.codes import DispersionCode, builtin_code_ids, encode, get_code
from ostbc_lab.lattice import (
    ChannelRealization,
    RealLattice,
    build_F,
    build_check_H,
    build_symbolic_lattice,
    channel_sigma,
    complex_stack,
    deinterleave,
    evaluate_lattice_batch,
    h_index,
    interleave,
    linform_value,
    verify_lattice,
    unvectorize,
    vectorize_received,
    write_hcheck_csv,
)

# Expected symbolic rows of the real lattice, frozen after hand-derivation.
# Tokens: 0, [-]h<i>, [-]r(h<i>), r(<signed h sum>); r scales by 1/sqrt(2).
GOLDEN_ROWS = {
    ("g2", 1): {
        0: "h1 -h2 h3 -h4",
        1: "h2 h1 h4 h3",
        2: "h3 h4 -h1 -h2",
        3: "h4 -h3 -h2 h1",
    },
    ("g3", 2): {
        0: "h1 -h2 h3 -h4 h5 -h6 0 0",
        1: "h2 h1 h4 h3 h6 h5 0 0",
        16: "h7 -h8 h9 -h10 h11 -h12 0 0",
        17: "h8 h7 h10 h9 h12 h11 0 0",
        30: "0 0 h11 h12 -h9 -h10 -h7 -h8",
        31: "0 0 h12 -h11 -h10 h9 -h8 h7",
    },
    ("g4", 1): {
        0: "h1 -h2 h3 -h4 h5 -h6 h7 -h8",
        1: "h2 h1 h4 h3 h6 h5 h8 h7",
        2: "h3 -h4 -h1 h2 h7 -h8 -h5 h6",
        3: "h4 h3 -h2 -h1 h8 h7 -h6 -h5",
        12: "h5 h6 -h7 -h8 -h1 -h2 h3 h4",
        13: "h6 -h5 -h8 h7 -h2 h1 h4 -h3",
        14: "h7 h8 h5 h6 -h3 -h4 -h1 -h2",
        15: "h8 -h7 h6 -h5 -h4 h3 -h2 h1",
    },
    ("h3", 1): {
        0: "h1 -h2 h3 -h4 r(h5) -r(h6)",
        1: "h2 h1 h4 h3 r(h6) r(h5)",
        2: "h3 h4 -h1 -h2 r(h5) -r(h6)",
        3: "h4 -h3 -h2 h1 r(h6) r(h5)",
        4: "-h5 0 0 -h6 r(h1+h3) r(h2+h4)",
        5: "-h6 0 0 h5 r(h2+h4) -r(h1+h3)",
        6: "0 -h6 h5 0 r(h1-h3) r(h2-h4)",
        7: "0 h5 h6 0 r(h2-h4) r(-h1+h3)",
    },
}


def parse_token(token):
    """One golden-row token -> LinForm tuple of (h index, tag)."""
    if token == "0":
        return ()
    outer = 1
    if token.startswith("-"):
        outer, token = -1, token[1:]
    if token.startswith("r(") and token.endswith(")"):
        terms = []
        for sign, num in re.findall(r"([+-]?)h(\d+)", token[2:-1]):
            s = -1 if sign == "-" else 1
            terms.append((int(num) - 1, 2 * s * outer))
        return tuple(sorted(terms))
    num = int(re.fullmatch(r"h(\d+)", token).group(1))
    return ((num - 1, outer),)


def sample_channel_matrix(rng, n, m):
    return (rng.standard_normal((n, m))
            + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def test_h_vector_indexing():
    rng = np.random.default_rng(0)
    H = sample_channel_matrix(rng, 3, 2)
    ch = ChannelRealization.from_matrix(H)
    for j in range(2):
        for l in range(3):
            assert ch.h[h_index(l, j, False, 3)] == H[l, j].real
            assert ch.h[h_index(l, j, True, 3)] == H[l, j].imag
    assert np.sum(ch.h ** 2) == pytest.approx(np.sum(np.abs(H) ** 2))


def test_from_h_round_trip():
    rng = np.random.default_rng(1)
    h = rng.standard_normal(12)
    ch = ChannelRealization.from_h(h, 3, 2)
    np.testing.assert_array_equal(ChannelRealization.from_matrix(ch.matrix).h, h)


def test_vectorize_received_example():
    y = np.array([[1 + 2j], [3 + 4j]])
    np.testing.assert_array_equal(vectorize_received(y), [1, 2, 3, 4])
    np.testing.assert_array_equal(vectorize_received(np.zeros((2, 1))), np.zeros(4))


def test_vectorize_round_trip():
    rng = np.random.default_rng(2)
    y = sample_channel_matrix(rng, 4, 3)  # any T x M block
    back = deinterleave(vectorize_received(y)).reshape(4, 3, order="F")
    np.testing.assert_array_equal(back, y)


def test_deinterleave_is_a_view():
    # A C-contiguous float64 vector is reinterpreted in place; any other
    # input is copied first and gives the same values.
    yv = np.array([1.0, -2.0, -0.0, 4.0])
    z = deinterleave(yv)
    assert np.shares_memory(z, yv)
    np.testing.assert_array_equal(z, [1 - 2j, 4j])
    strided = np.arange(16.0).reshape(2, 8)[:, ::2]
    np.testing.assert_array_equal(deinterleave(strided),
                                  strided[:, 0::2] + 1j * strided[:, 1::2])
    np.testing.assert_array_equal(deinterleave([1, 2]), [1 + 2j])


@settings(deadline=None)
@given(st.lists(st.integers(0, 3), max_size=3), st.integers(1, 6),
       st.sampled_from(builtin_code_ids()), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_layout_helpers_match_per_item_forms(lead, n, cid, m, seed):
    # the batched layout helpers act item by item like the one-channel forms
    lead = tuple(lead)
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(lead + (n,)), rng.standard_normal(lead + (n,))
    np.testing.assert_array_equal(deinterleave(interleave(re, im)),
                                  re + 1j * im)
    with pytest.raises(ValueError):
        deinterleave(np.zeros(lead + (2 * n - 1,)))
    code = get_code(cid)
    h = rng.standard_normal(lead + (2 * code.n * m,))
    mats, sigma = unvectorize(h, code.n), channel_sigma(code, h)
    assert mats.shape == lead + (code.n, m)
    assert sigma.shape == lead
    for i in np.ndindex(lead):
        ch = ChannelRealization.from_h(h[i], code.n, m)
        np.testing.assert_array_equal(mats[i], ch.matrix)
        np.testing.assert_array_equal(vectorize_received(mats[i]), h[i])
        assert sigma[i] == build_check_H(code, ch).sigma
        assert sigma[i] == pytest.approx(
            code.c * np.sum(np.abs(ch.matrix) ** 2), rel=1e-12)


def test_complex_stack_layout():
    y = np.array([[1 + 2j], [3 + 4j]])
    st = complex_stack(y)
    np.testing.assert_array_equal(st.z, [1 + 2j, 3 + 4j])
    np.testing.assert_array_equal(st.zprime, [1, 3, 2, 4])


@pytest.mark.parametrize("key", GOLDEN_ROWS)
def test_symbolic_rows_match_goldens(key):
    cid, m = key
    sym = build_symbolic_lattice(get_code(cid), m)
    for r, row_text in GOLDEN_ROWS[key].items():
        want = tuple(parse_token(tok) for tok in row_text.split())
        assert sym.entries[r] == want, f"{cid} row {r}"


@pytest.mark.parametrize("key", GOLDEN_ROWS)
def test_numeric_rows_match_goldens(key):
    cid, m = key
    code = get_code(cid)
    sym = build_symbolic_lattice(code, m)
    rng = np.random.default_rng(5)
    for _ in range(100):
        ch = ChannelRealization.from_matrix(sample_channel_matrix(rng, code.n, m))
        hc = evaluate_lattice_batch(sym, ch.h[None])[0]
        for r, row_text in GOLDEN_ROWS[key].items():
            want = [linform_value(parse_token(tok), ch.h)
                    for tok in row_text.split()]
            np.testing.assert_array_equal(hc[r], want)


def test_build_F_alamouti_column():
    fa, fb = build_F(get_code("g2"), np.array([[1.0 + 0j], [0.0]]))
    np.testing.assert_array_equal(fa[:, 0], [1, 0])


def test_build_F_zero_channel():
    fa, fb = build_F(get_code("g2"), np.zeros((2, 1), dtype=complex))
    assert not fa.any() and not fb.any()


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_build_F_consistency_with_encoder(cid, m):
    code = get_code(cid)
    rng = np.random.default_rng(7)
    for _ in range(100):
        H = sample_channel_matrix(rng, code.n, m)
        s = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
        fa, fb = build_F(code, H)
        z = fa @ s.real + fb @ s.imag
        want = (encode(code, s) @ H).ravel(order="F")
        scale = max(np.max(np.abs(want)), 1e-30)
        assert np.max(np.abs(z - want)) <= 1e-12 * scale


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_orthogonality_and_sigma(cid, m):
    code = get_code(cid)
    rng = np.random.default_rng(9)
    for _ in range(100):
        ch = ChannelRealization.from_matrix(sample_channel_matrix(rng, code.n, m))
        lat = build_check_H(code, ch)
        gram = lat.hcheck.T @ lat.hcheck
        dev = gram - lat.sigma * np.eye(2 * code.k)
        assert np.max(np.abs(dev)) <= 1e-9 * lat.sigma
        assert lat.sigma == pytest.approx(
            code.c * np.sum(np.abs(ch.matrix) ** 2), rel=1e-9)
        rep = verify_lattice(lat)
        assert rep.passed and not rep.degenerate


@pytest.mark.parametrize("cid", builtin_code_ids())
def test_model_consistency(cid):
    code = get_code(cid)
    rng = np.random.default_rng(13)
    for m in (1, 2):
        for _ in range(100):
            H = sample_channel_matrix(rng, code.n, m)
            s = rng.standard_normal(code.k) + 1j * rng.standard_normal(code.k)
            lat = build_check_H(code, H)
            x = np.empty(2 * code.k)
            x[0::2], x[1::2] = s.real, s.imag
            want = vectorize_received(encode(code, s) @ H)
            got = lat.hcheck @ x
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_verify_flags_corruption():
    lat = build_check_H(get_code("g2"), np.array([[1.0 + 0.5j], [-0.25 + 1j]]))
    bad = lat.hcheck.copy()
    bad[0, 1] += 1.0
    rep = verify_lattice(RealLattice(code_id="g2", m=1, hcheck=bad,
                                     sigma=lat.sigma, c=1))
    assert not rep.passed
    assert rep.max_offdiag_rel > rep.tol


def test_verify_degenerate_channel():
    lat = build_check_H(get_code("g2"), np.zeros((2, 1), dtype=complex))
    rep = verify_lattice(lat)
    assert rep.degenerate and not rep.passed
    assert rep.sigma == 0.0


def test_wrong_channel_rows_rejected():
    with pytest.raises(ValueError):
        build_check_H(get_code("g2"), np.zeros((3, 1), dtype=complex))


def test_channel_and_lattice_shape_checks():
    code = get_code("g2")
    with pytest.raises(ValueError, match="must be 2-D"):
        ChannelRealization.from_matrix(np.ones(2))
    with pytest.raises(ValueError, match="expected 8 real coefficients"):
        ChannelRealization.from_h(np.ones(6), 2, 2)
    for shape in [(3, 1), (2,), (4, 3, 1)]:
        with pytest.raises(ValueError, match=r"channel must be \(\.\.\., 2, M\)"):
            build_F(code, np.ones(shape, dtype=complex))
    with pytest.raises(ValueError, match="receive antenna count must be "
                                         "positive"):
        build_symbolic_lattice(code, 0)


def test_wrong_declared_c_fails_sigma_cross_check():
    # a g2 that declares c = 2: its lattice's first column gives ||H||^2
    # while c ||H||^2 is twice that
    code = replace(get_code("g2"), c=2)
    with pytest.raises(ArithmeticError, match="sigma routes disagree"):
        build_check_H(code, np.array([[1.0 + 0.5j], [-0.25 + 1j]]))


def test_batch_evaluation_matches_single():
    # a row of a batch is the batch of that one row
    code = get_code("g3")
    sym = build_symbolic_lattice(code, 2)
    rng = np.random.default_rng(17)
    hb = rng.standard_normal((8, 12))
    batch = evaluate_lattice_batch(sym, hb)
    for i in range(8):
        np.testing.assert_array_equal(batch[i],
                                      evaluate_lattice_batch(sym, hb[i:i + 1])[0])


def test_batch_evaluation_accepts_nested_lists():
    # a list batch is read as the float array it spells
    sym = build_symbolic_lattice(get_code("g2"), 1)
    rows = [[1.0, 2, 3, 4], [-0.5, 0, 2, 1]]
    np.testing.assert_array_equal(evaluate_lattice_batch(sym, rows),
                                  evaluate_lattice_batch(sym, np.array(rows)))


@pytest.mark.parametrize("shape", [(4,), (), (2, 3, 4)],
                         ids=["vector", "scalar", "3-D"])
def test_batch_evaluation_rejects_non_batch_h(shape):
    # without the check one vector fails with "not enough values to unpack"
    sym = build_symbolic_lattice(get_code("g2"), 1)
    with pytest.raises(ValueError, match=r"\(B, 2NM\) = \(B, 4\) batch, "
                                         r".*pass h\[None\]"):
        evaluate_lattice_batch(sym, np.ones(shape))


@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "wide"])
def test_batch_evaluation_rejects_wrong_width(extra):
    # a short h would read its missing coefficient from the appended zero
    # column, and a wide one would have its extra column ignored
    sym = build_symbolic_lattice(get_code("g2"), 1)
    h = np.ones((3, 4 + extra))
    with pytest.raises(ValueError, match=f"h has {4 + extra} coefficients, "
                                         "need 4"):
        evaluate_lattice_batch(sym, h)


def test_batch_evaluation_rejects_complex_h():
    # the per-rank gathers would drop the imaginary part with a warning
    sym = build_symbolic_lattice(get_code("g2"), 1)
    with pytest.raises(ValueError, match="^h is complex; "
                                         ".*vectorize_received"):
        evaluate_lattice_batch(sym, np.ones((3, 4)) + 1j)


def test_channel_sigma_rejects_complex_h():
    # c * sum(h * h) of a complex h is complex: 8j for g2 at ones(4) + 1j
    with pytest.raises(ValueError, match="^h is complex; "
                                         ".*vectorize_received"):
        channel_sigma(get_code("g2"), np.ones(4) + 1j)


def test_from_h_rejects_complex_h():
    # np.asarray(..., dtype=float) would keep only the real part
    with pytest.raises(ValueError, match="^h is complex; "
                                         ".*vectorize_received"):
        ChannelRealization.from_h(np.ones(4) + 1j, 2, 1)


def add_at_oracle(sym, h):
    """H_check by np.add.at over the stored scatter terms."""
    pos, hidx, coef = sym.scatter()
    flat = np.zeros((h.shape[0], sym.rows * sym.cols))
    np.add.at(flat, (slice(None), pos), coef * h[:, hidx])
    return flat.reshape(h.shape[0], sym.rows, sym.cols)


def assert_bitwise_equal_to_oracle(sym, h):
    got, want = evaluate_lattice_batch(sym, h), add_at_oracle(sym, h)
    assert got.shape == want.shape
    # compare raw bytes, so that -0.0 and 0.0 differ
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def signed_zero_batch(rng, b, width):
    """Normal coefficients with about a third of them +0.0 or -0.0."""
    h = rng.standard_normal((b, width))
    zero = rng.random((b, width))
    h[zero < 0.15] = 0.0
    h[(zero >= 0.15) & (zero < 0.3)] = -0.0
    return h


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("cid", builtin_code_ids())
def test_batch_evaluation_bitwise_equals_add_at(cid, m):
    sym = build_symbolic_lattice(get_code(cid), m)
    width = 2 * sym.code.n * m
    rng = np.random.default_rng(29)
    assert_bitwise_equal_to_oracle(sym, signed_zero_batch(rng, 64, width))
    assert_bitwise_equal_to_oracle(sym, np.zeros((0, width)))


@pytest.mark.parametrize("cid,m", [("g3", 2), ("h3", 1)])
def test_batch_evaluation_bitwise_across_passes(cid, m):
    # a batch of 2 x 256 + 37 trials (several passes of the former
    # 256-trial evaluation block, the last one partial) comes back bitwise
    # equal and in the C layout the transmit einsum reads
    sym = build_symbolic_lattice(get_code(cid), m)
    h = signed_zero_batch(np.random.default_rng(31), 2 * 256 + 37,
                          2 * sym.code.n * m)
    assert_bitwise_equal_to_oracle(sym, h)
    assert evaluate_lattice_batch(sym, h).flags.c_contiguous


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("cid,m", [("g2", 1), ("g3", 2), ("h3", 1)])
def test_batch_evaluation_isolates_nonfinite_column(cid, m, bad):
    # an entry is built only from the h columns it references: one
    # non-finite column leaves every other entry bitwise equal to the
    # oracle, which a padding term such as 0 * h[0] would not
    sym = build_symbolic_lattice(get_code(cid), m)
    width = 2 * sym.code.n * m
    pos, hidx, _ = sym.scatter()
    for col in range(width):
        h = signed_zero_batch(np.random.default_rng(col), 8, width)
        h[:, col] = bad
        got = evaluate_lattice_batch(sym, h).reshape(8, -1)
        want = add_at_oracle(sym, h).reshape(8, -1)
        clean = np.setdiff1d(np.arange(sym.rows * sym.cols),
                             pos[hidx == col])
        assert clean.size
        assert np.array_equal(got[:, clean].view(np.uint64),
                              want[:, clean].view(np.uint64))
        assert not np.isfinite(got[:, pos[hidx == col]]).any()


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(3)), st.lists(st.sampled_from((1, -1)),
                                            min_size=3, max_size=3),
       st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4),
       st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
def test_batch_evaluation_bitwise_on_transformed_h3(perm, col_sign, row_sign,
                                                    m, seed):
    # G(s) -> diag(row_sign) G(s) P diag(col_sign) stays orthogonal and
    # keeps h3's two-term entries, on other channel indices and signs
    base = get_code("h3")

    def transform(mats):
        return tuple(tuple(tuple(row_sign[t] * col_sign[l] * mat[t][perm[l]]
                                 for l in range(base.n))
                           for t in range(base.t)) for mat in mats)

    code = DispersionCode(id="h3", n=base.n, t=base.t, k=base.k, c=base.c,
                          a_tags=transform(base.a_tags),
                          b_tags=transform(base.b_tags))
    sym = build_symbolic_lattice(code, m)
    assert max(len(form) for row in sym.entries for form in row) == 2
    rng = np.random.default_rng(seed)
    h = signed_zero_batch(rng, 16, 2 * code.n * m)
    assert_bitwise_equal_to_oracle(sym, h)
    lat = build_check_H(code, unvectorize(rng.standard_normal(2 * code.n * m),
                                          code.n))
    assert verify_lattice(lat).passed


def test_hcheck_csv_round_trip(tmp_path):
    lat = build_check_H(get_code("h3"), np.array(
        [[0.3 - 0.2j], [1.1 + 0.7j], [-0.4 + 0.9j]]))
    path = tmp_path / "hc.csv"
    write_hcheck_csv(lat, path)
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in path.read_text().splitlines()
                       if not line.startswith("#")])
    np.testing.assert_array_equal(parsed, lat.hcheck)
