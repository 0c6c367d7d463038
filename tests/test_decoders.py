import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_ref import stack_received
from ostbc_lab import decoders
from ostbc_lab.codes import builtin_code_ids, get_code
from ostbc_lab.constellation import (
    ConstellationError,
    _midpoints,
    get_constellation,
    quantize_indices,
)
from ostbc_lab.decoders import (
    MATCHED_FILTERS,
    DegenerateChannelError,
    SearchSpaceError,
    decode_F,
    decode_Fprime,
    decode_lattice,
    decode_trace,
    exhaustive_indices,
    exhaustive_ml,
)
from ostbc_lab.lattice import (
    RealLattice,
    build_F,
    build_check_H,
    build_symbolic_lattice,
    deinterleave,
    evaluate_lattice_batch,
    interleave,
)

R = 1.0 / math.sqrt(2.0)


def sample_channel_matrix(rng, n, m):
    return (rng.standard_normal((n, m))
            + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def random_symbols(rng, const, k):
    idx = rng.integers(0, const.levels, 2 * k)
    return const.component_alphabet[idx]


# -- constellations ---------------------------------------------------------

def test_4qam_alphabet():
    c = get_constellation("4qam")
    np.testing.assert_allclose(c.component_alphabet, [-R, R], atol=1e-15)
    assert c.bits_per_symbol == 2
    np.testing.assert_array_equal(c.gray, [0, 1])


def test_16qam_alphabet():
    c = get_constellation("16qam")
    s = math.sqrt(10.0)
    np.testing.assert_allclose(c.component_alphabet,
                               np.array([-3, -1, 1, 3]) / s, rtol=1e-15)
    assert c.bits_per_symbol == 4
    np.testing.assert_array_equal(c.gray, [0, 1, 3, 2])


@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_unit_symbol_energy(name):
    c = get_constellation(name)
    energy = np.mean([abs(c.point(i)) ** 2 for i in range(c.size)])
    assert energy == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("index", [-1, 4])
def test_point_rejects_index_outside_constellation(index):
    with pytest.raises(ValueError, match=rf"^symbol index {index} outside "
                                         r"\[0, 4\)$"):
        get_constellation("4qam").point(index)


def test_point_takes_integer_indices_only():
    c = get_constellation("4qam")
    for bad in (1.5, 2.0, np.float64(1.0), "1"):
        with pytest.raises(ValueError,
                           match="^symbol index must be an integer$"):
            c.point(bad)
    assert c.point(True) == c.point(1)
    assert c.point(np.int64(3)) == c.point(3)


def test_unknown_constellation():
    with pytest.raises(ConstellationError):
        get_constellation("8psk")


def test_quantize_idempotent():
    c = get_constellation("16qam")
    for j, v in enumerate(c.component_alphabet):
        assert quantize_indices(v, c.component_alphabet) == j


def test_quantize_tie_to_lower_index():
    c = get_constellation("4qam")
    assert quantize_indices(0.0, c.component_alphabet) == 0


def test_quantize_16qam_points():
    alpha = get_constellation("16qam").component_alphabet
    # 0.9 sits between 1/sqrt(10)=0.316 and 3/sqrt(10)=0.949; nearest is the
    # outer point, 0.4 the inner one.
    outer, inner = 3 / math.sqrt(10), 1 / math.sqrt(10)
    assert alpha[quantize_indices(0.9, alpha)] == pytest.approx(outer)
    assert alpha[quantize_indices(0.4, alpha)] == pytest.approx(inner)


def test_quantize_empty_alphabet():
    with pytest.raises(ValueError):
        quantize_indices(0.0, np.array([]))


@pytest.mark.parametrize("alpha", [[1.0, -1.0], [-1.0, -1.0, 1.0]],
                         ids=["descending", "repeated"])
def test_quantize_rejects_unsorted_alphabet(alpha):
    # the midpoint search would return indices of the wrong points
    with pytest.raises(ValueError, match="strictly ascending"):
        quantize_indices(np.zeros(3), alpha)


@given(st.floats(-3, 3), st.sampled_from(["4qam", "16qam"]))
def test_quantize_is_nearest_point(z, name):
    alpha = get_constellation(name).component_alphabet
    idx = quantize_indices(z, alpha)
    dist = np.abs(alpha - z)
    assert dist[idx] == np.min(dist)
    # decision boundaries are the midpoints; exactly on one goes to the
    # lower cell (z marginally above a midpoint can still give bitwise
    # equal float distances, so the rule is stated on midpoints, not dist)
    mids = (alpha[:-1] + alpha[1:]) / 2.0
    assert idx == int(np.sum(z > mids))


def test_quantize_indices_vectorized():
    alpha = get_constellation("16qam").component_alphabet
    zs = np.linspace(-1.5, 1.5, 101)
    want = [quantize_indices(z, alpha) for z in zs]
    np.testing.assert_array_equal(quantize_indices(zs, alpha), want)


@pytest.mark.parametrize("alpha", [
    get_constellation("4qam").component_alphabet,
    get_constellation("16qam").component_alphabet,
    [-2.0, -0.5, 0.1, 0.25, 3.0],
], ids=["4qam", "16qam", "uneven"])
def test_quantize_indices_is_searchsorted(alpha):
    # counting the midpoints below z must be the binary search bit for bit,
    # values, dtype and scalar results alike: on every midpoint and its two
    # float neighbours, on NaN, the infinities and signed zeros, and on a
    # (B, 2K) batch holding all of them
    mids = _midpoints(alpha)
    edges = np.concatenate([
        mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
        [np.nan, np.inf, -np.inf, 0.0, -0.0]])
    batch = np.random.default_rng(19).standard_normal((64, 8))
    batch.flat[:edges.size] = edges
    for z in (batch, *edges, *map(float, edges)):
        got = quantize_indices(z, alpha)
        want = np.searchsorted(mids, z, side="left")
        assert type(got) is type(want)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


# -- matched-filter decoders ------------------------------------------------

def test_lattice_hand_case():
    const = get_constellation("4qam")
    lat = build_check_H(get_code("g2"), np.array([[1.0 + 0j], [0.0]]))
    soft, dec = decode_lattice(lat, np.array([1.0, 1.0, 0.0, 0.0]), const)
    np.testing.assert_allclose(soft, [1, 1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(dec.xhat, [R, R, -R, -R], atol=1e-15)
    np.testing.assert_array_equal(dec.indices, [1, 1, 0, 0])


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_noise_free_round_trip(cid, name):
    code, const = get_code(cid), get_constellation(name)
    rng = np.random.default_rng(23)
    for _ in range(50):
        lat = build_check_H(code, sample_channel_matrix(rng, code.n, 1))
        x = random_symbols(rng, const, code.k)
        _, dec = decode_lattice(lat, lat.hcheck @ x, const)
        np.testing.assert_array_equal(dec.xhat, x)


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_four_routes_agree(cid, m):
    code, const = get_code(cid), get_constellation("4qam")
    rng = np.random.default_rng(29)
    for _ in range(50):
        ch = sample_channel_matrix(rng, code.n, m)
        lat = build_check_H(code, ch)
        x = random_symbols(rng, const, code.k)
        yv = lat.hcheck @ x + 0.4 * rng.standard_normal(2 * m * code.t)
        soft, dec = decode_lattice(lat, yv, const)
        y_block = deinterleave(yv).reshape(code.t, m, order="F")
        z, zprime = stack_received(y_block)
        others = [decode_trace(code, ch, y_block, const),
                  decode_F(code, ch, z, const),
                  decode_Fprime(code, ch, zprime, const)]
        scale = max(np.max(np.abs(soft)), 1e-30)
        for osoft, odec in others:
            assert np.max(np.abs(osoft - soft)) <= 1e-9 * scale
            np.testing.assert_array_equal(odec.indices, dec.indices)


def test_decode_lattice_rejects_wrong_length():
    code, const = get_code("g2"), get_constellation("4qam")
    lat = build_check_H(code, np.ones((2, 1), dtype=complex))
    with pytest.raises(ValueError, match=r"^ycheck has shape \(1,\), "
                                         r"expected \(4,\)"):
        decode_lattice(lat, np.ones(1), const)


def test_decode_F_rejects_wrong_length():
    code, const = get_code("g2"), get_constellation("4qam")
    for m, z in ((1, np.ones(1, dtype=complex)), (2, np.ones(2))):
        with pytest.raises(ValueError, match=rf"^z has shape \({z.size},\), "
                                             rf"expected \({2 * m},\)"):
            decode_F(code, np.ones((2, m), dtype=complex), z, const)


@pytest.mark.parametrize("shape", [(4, 1), (2, 2), (2,)])
def test_decode_trace_rejects_wrong_block_shape(shape):
    code, const = get_code("g2"), get_constellation("4qam")
    y = np.ones(shape, dtype=complex)
    with pytest.raises(ValueError, match=r"^Y has shape .*, "
                                         r"expected \(2, 1\)"):
        decode_trace(code, np.ones((2, 1), dtype=complex), y, const)


def test_decode_Fprime_rejects_complex_and_wrong_length():
    code, const = get_code("g2"), get_constellation("4qam")
    h = np.ones((2, 1), dtype=complex)
    with pytest.raises(ValueError, match=r"^zprime is complex; pass "
                                         r"\(Re z; Im z\), the real parts "
                                         r"of z over its imaginary parts$"):
        decode_Fprime(code, h, np.ones(4) + 1j, const)
    with pytest.raises(ValueError, match=r"^zprime has shape \(6,\), "
                                         r"expected \(4,\)"):
        decode_Fprime(code, h, np.ones(6), const)


# -- batched matched filters ------------------------------------------------
#
# The einsum formulations the complex routes had before they ran as GEMMs,
# kept as the reference for the batched forms: build_F, the trace form, F
# and F' applied to the received vector, each on (..., 2NM) channel and
# (..., 2MT) received vectors.

def ref_unvectorize(v, rows):
    flat = v[..., 0::2] + 1j * v[..., 1::2]
    cols = flat.shape[-1] // rows
    return flat.reshape(flat.shape[:-1] + (cols, rows)).swapaxes(-1, -2)


def ref_build_F(code, hm):
    shape = hm.shape[:-2] + (-1, code.k)
    fa = np.einsum("ktl,...lj->...jtk", code.a, hm).reshape(shape)
    fb = 1j * np.einsum("ktl,...lj->...jtk", code.b, hm).reshape(shape)
    return fa, fb


def ref_trace(code, h, yv):
    hh = ref_unvectorize(h, code.n).conj()
    y = ref_unvectorize(yv, code.t)
    return interleave(np.einsum("ktl,...lj,...tj->...k", code.a, hh, y).real,
                      np.einsum("ktl,...lj,...tj->...k", code.b, hh, y).imag)


def ref_f(code, h, yv):
    fa, fb = ref_build_F(code, ref_unvectorize(h, code.n))
    zv = yv[..., 0::2] + 1j * yv[..., 1::2]
    return interleave(np.einsum("...pk,...p->...k", fa.conj(), zv).real,
                      np.einsum("...pk,...p->...k", fb.conj(), zv).real)


def ref_fprime(code, h, yv):
    fa, fb = ref_build_F(code, ref_unvectorize(h, code.n))
    fc = np.concatenate([fa, fb], axis=-1)
    fprime = np.concatenate([fc.real, fc.imag], axis=-2)
    zprime = np.concatenate([yv[..., 0::2], yv[..., 1::2]], axis=-1)
    grouped = np.einsum("...pj,...p->...j", fprime, zprime)
    return interleave(grouped[..., :code.k], grouped[..., code.k:])


REFERENCE_ROUTES = {"trace": ref_trace, "f": ref_f, "fprime": ref_fprime}


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("lead", [(), (7,), (2, 3)])
def test_batched_routes_match_reference(cid, m, lead):
    # hc is withheld from the complex routes: each must compute the matched
    # filter from h alone.
    assert set(MATCHED_FILTERS) == {"lattice", *REFERENCE_ROUTES}
    code = get_code(cid)
    rng = np.random.default_rng(41)
    h = rng.standard_normal(lead + (2 * code.n * m,))
    yv = rng.standard_normal(lead + (2 * m * code.t,))
    sym = build_symbolic_lattice(code, m)
    hc = evaluate_lattice_batch(sym, h.reshape(-1, h.shape[-1])) \
        .reshape(lead + (sym.rows, sym.cols))
    want = MATCHED_FILTERS["lattice"](code, h, hc, yv)
    assert want.shape == lead + (2 * code.k,)
    atol = 1e-12 * np.max(np.abs(want))
    for name, ref in REFERENCE_ROUTES.items():
        got = MATCHED_FILTERS[name](code, h, None, yv)
        assert got.shape == want.shape, name
        np.testing.assert_allclose(got, ref(code, h, yv), rtol=1e-12,
                                   atol=atol, err_msg=name)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=atol,
                                   err_msg=name)


@pytest.mark.parametrize("cid,m", [("g2", 1), ("g3", 2), ("g4", 1),
                                   ("h3", 2)])
def test_routes_other_than_lattice_never_read_hc(cid, m):
    # Only the lattice route may read Hc: handed an all-NaN hc, every other
    # route still returns the finite matched filter it computes from h, so
    # no speed-up can quietly make a route reuse the lattice's Hc.
    code = get_code(cid)
    rng = np.random.default_rng(47)
    h = rng.standard_normal((5, 2 * code.n * m))
    yv = rng.standard_normal((5, 2 * m * code.t))
    sym = build_symbolic_lattice(code, m)
    hc = np.full((5, sym.rows, sym.cols), np.nan)
    assert np.isnan(MATCHED_FILTERS["lattice"](code, h, hc, yv)).all()
    for name in MATCHED_FILTERS.keys() - {"lattice"}:
        got = MATCHED_FILTERS[name](code, h, hc, yv)
        assert got.shape == (5, 2 * code.k), name
        assert np.isfinite(got).all(), name


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_build_F_stack_matches_per_channel(cid, m):
    code = get_code(cid)
    rng = np.random.default_rng(43)
    hm = sample_channel_matrix(rng, 6 * code.n, m).reshape(2, 3, code.n, m)
    fa, fb = build_F(code, hm)
    assert fa.shape == fb.shape == (2, 3, m * code.t, code.k)
    ra, rb = ref_build_F(code, hm)
    np.testing.assert_allclose(fa, ra, rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(fb, rb, rtol=1e-14, atol=1e-14)
    for i in np.ndindex(2, 3):
        one_a, one_b = build_F(code, hm[i])
        np.testing.assert_allclose(fa[i], one_a, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(fb[i], one_b, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("name", ["4qam", "16qam"])
def test_exhaustive_matches_lattice(cid, name):
    code, const = get_code(cid), get_constellation(name)
    rng = np.random.default_rng(31)
    for _ in range(60):
        lat = build_check_H(code, sample_channel_matrix(rng, code.n, 1))
        x = random_symbols(rng, const, code.k)
        yv = lat.hcheck @ x + 0.5 * rng.standard_normal(2 * code.t)
        _, dec = decode_lattice(lat, yv, const)
        ml, _ = exhaustive_ml(lat, yv, const)
        np.testing.assert_array_equal(ml.indices, dec.indices)


def naive_exhaustive(hc, yv, alphabet):
    """(indices, ||yv - hc x||^2) of the first minimizer, candidate by
    candidate in itertools.product order."""
    best, best_dist = None, math.inf
    for cand in itertools.product(range(len(alphabet)), repeat=hc.shape[1]):
        dist = float(np.sum((yv - hc @ alphabet[list(cand)]) ** 2))
        if dist < best_dist:
            best, best_dist = cand, dist
    return np.array(best), best_dist


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.integers(1, 6),
       extra_rows=st.integers(0, 3), trials=st.integers(1, 3),
       name=st.sampled_from(["4qam", "16qam"]))
def test_exhaustive_matches_naive_oracle(seed, dims, extra_rows, trials,
                                         name):
    # Random Hc is not orthogonal, and odd dims give halves u and v of
    # different lengths: a metric that leans on orthogonality or mixes up
    # the split picks other winners here.
    const = get_constellation(name)
    alphabet = const.component_alphabet
    rng = np.random.default_rng(seed)
    hc = rng.standard_normal((trials, dims + extra_rows, dims))
    x = alphabet[rng.integers(0, const.levels, (trials, dims))]
    yv = np.einsum("bpj,bj->bp", hc, x) \
        + 0.7 * rng.standard_normal((trials, dims + extra_rows))
    idx, metric = exhaustive_indices(hc, yv, const)
    assert idx.shape == (trials, dims) and metric.shape == (trials,)
    for b in range(trials):
        want, dist = naive_exhaustive(hc[b], yv[b], alphabet)
        np.testing.assert_array_equal(idx[b], want)
        assert metric[b] + float(yv[b] @ yv[b]) == \
            pytest.approx(dist, rel=1e-9, abs=1e-9)


def test_exhaustive_independent_of_slice(monkeypatch):
    # Slices of one trial, of a few, of the default size and of the whole
    # batch give bitwise the same winners and metrics.
    rng = np.random.default_rng(12)
    cases = []
    for cid, name, trials in (("g2", "4qam", 40), ("g4", "16qam", 3)):
        code, const = get_code(cid), get_constellation(name)
        lats = [build_check_H(code, sample_channel_matrix(rng, code.n, 1))
                for _ in range(trials)]
        hc = np.stack([lat.hcheck for lat in lats])
        cases.append((hc, rng.standard_normal(hc.shape[:2]), const))
    for dims, name in ((1, "4qam"), (3, "16qam")):
        hc = rng.standard_normal((20, dims + 1, dims))
        cases.append((hc, rng.standard_normal(hc.shape[:2]),
                      get_constellation(name)))
    for hc, yv, const in cases:
        results = []
        for size in (1, 7, decoders._SLICE, 2 ** 30):
            monkeypatch.setattr(decoders, "_SLICE", size)
            results.append(exhaustive_indices(hc, yv, const))
        for idx, metric in results[1:]:
            np.testing.assert_array_equal(idx, results[0][0])
            assert metric.tobytes() == results[0][1].tobytes()


def test_exhaustive_tie_is_lexicographic():
    # Zero received vector on a channel with one unit coefficient: the
    # metric is c ||x||^2, so every minimum-energy candidate ties, and the
    # winner must be the first of them in lexicographic order, each
    # component at its first smallest-magnitude amplitude.  On g4 the tied
    # candidates differ in both halves u and v of x.
    for cid, name in (("g2", "4qam"), ("g4", "4qam"), ("g4", "16qam")):
        code, const = get_code(cid), get_constellation(name)
        h = np.zeros((code.n, 1), dtype=complex)
        h[0, 0] = 1.0
        lat = build_check_H(code, h)
        ml, _ = exhaustive_ml(lat, np.zeros(2 * code.t), const)
        first = int(np.argmin(np.abs(const.component_alphabet)))
        np.testing.assert_array_equal(ml.indices, [first] * (2 * code.k))


def test_search_space_guard():
    const = get_constellation("16qam")
    big = np.zeros((4, 26))
    big.setflags(write=False)
    lat = RealLattice(hcheck=big, sigma=1.0)
    with pytest.raises(SearchSpaceError):
        exhaustive_ml(lat, np.zeros(4), const)


def test_degenerate_channel_rejected():
    code, const = get_code("g2"), get_constellation("4qam")
    zero = np.zeros((2, 1), dtype=complex)
    lat = build_check_H(code, zero)
    with pytest.raises(DegenerateChannelError):
        decode_lattice(lat, np.zeros(4), const)
    with pytest.raises(DegenerateChannelError):
        decode_trace(code, zero, np.zeros((2, 1), dtype=complex), const)
    with pytest.raises(DegenerateChannelError):
        decode_F(code, zero, np.zeros(2, dtype=complex), const)
    with pytest.raises(DegenerateChannelError):
        decode_Fprime(code, zero, np.zeros(4), const)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
def test_nonfinite_channel_or_received_value_rejected(bad):
    # unchecked, each of these decoded silently (indices [1 1 1 1]) and
    # build_check_H returned sigma = nan or inf, while an all-zero channel
    # raised; the batched core still propagates NaN and inf
    code, const = get_code("g2"), get_constellation("4qam")
    good = np.ones((2, 1), dtype=complex)
    h = good.copy()
    h[1, 0] = bad
    lat = build_check_H(code, good)
    received = {decode_trace: np.zeros((2, 1), dtype=complex),
                decode_F: np.zeros(2, dtype=complex),
                decode_Fprime: np.zeros(4)}
    with pytest.raises(ValueError, match="^channel holds a NaN or an "
                                         "infinity$"):
        build_check_H(code, h)
    for decode, y in received.items():
        with pytest.raises(ValueError, match="^channel holds a NaN or an "
                                             "infinity$"):
            decode(code, h, y, const)
    for (decode, y), name in zip(received.items(), ("Y", "z", "zprime")):
        y = y.copy()
        y.flat[1] = bad
        with pytest.raises(ValueError, match=f"^{name} holds a NaN or an "
                                             f"infinity$"):
            decode(code, good, y, const)
    # a hand-made lattice can carry any sigma; 0 < sigma < inf is checked
    # before the division (a non-finite ycheck: the test below)
    odd = RealLattice(hcheck=lat.hcheck, sigma=bad)
    with pytest.raises(DegenerateChannelError,
                       match=r"^sigma = .* is not in \(0, inf\)$"):
        decode_lattice(odd, np.zeros(4), const)


def test_decode_lattice_rejects_complex_ycheck():
    # np.asarray(..., dtype=float) would decode arange(4) + 1j as arange(4)
    code, const = get_code("g2"), get_constellation("4qam")
    lat = build_check_H(code, np.ones((2, 1), dtype=complex))
    with pytest.raises(ValueError, match="^ycheck is complex; "
                                         ".*vectorize_received"):
        decode_lattice(lat, np.arange(4) + 1j, const)


@pytest.mark.parametrize("ycheck, match", [
    (np.arange(4) + 1j, "^ycheck is complex; .*vectorize_received"),
    (np.ones(5), r"^ycheck has shape \(5,\), expected \(4,\)$"),
    (np.ones((1, 4)), r"^ycheck has shape \(1, 4\), expected \(4,\)$"),
    (np.array([0.0, np.nan, 0.0, 0.0]), "^ycheck holds a NaN or an infinity$"),
    (np.array([np.inf, 0.0, 0.0, 0.0]), "^ycheck holds a NaN or an infinity$"),
    (np.array([0.0, 0.0, 0.0, -np.inf]), "^ycheck holds a NaN or an infinity$"),
], ids=["complex", "too-long", "batched", "nan", "+inf", "-inf"])
def test_exhaustive_ml_checks_ycheck_as_decode_lattice(ycheck, match):
    # unchecked, a complex ycheck is searched on its real part with only a
    # ComplexWarning, a wrong length fails inside NumPy's reshape, and a NaN
    # or an infinity is searched silently ([0 0 0 0] for a NaN)
    code, const = get_code("g2"), get_constellation("4qam")
    lat = build_check_H(code, np.ones((2, 1), dtype=complex))
    for decode in (decode_lattice, exhaustive_ml):
        with pytest.raises(ValueError, match=match):
            decode(lat, ycheck, const)


def test_soft_symbols_view():
    const = get_constellation("4qam")
    lat = build_check_H(get_code("g2"), np.array([[1.0 + 0j], [0.0]]))
    soft, dec = decode_lattice(lat, np.array([1.0, 2.0, 3.0, 4.0]), const)
    np.testing.assert_allclose(deinterleave(soft), [1 + 2j, -3 + 4j],
                               atol=1e-15)
    np.testing.assert_allclose(dec.shat, dec.xhat[0::2] + 1j * dec.xhat[1::2],
                               atol=0)
