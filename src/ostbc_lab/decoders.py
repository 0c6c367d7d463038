"""Maximum-likelihood decoding of orthogonal space-time block codes.

Because the real-valued lattice matrix of an orthogonal design satisfies
Hc^T Hc = sigma I with sigma = c ||H||_F^2, the ML decision decouples into
independent scalar quantizations of the matched-filter output

    xhat = Hc^T ycheck / sigma.

``MATCHED_FILTERS`` maps each route to a batched function
``(code, h[..., 2NM], hc[..., 2MT, 2K], yv[..., 2MT]) -> Hc^T ycheck
[..., 2K]`` that computes the unscaled vector a different way:

* ``lattice`` -- the real matrix-vector product above (the only route that
  reads ``hc``; the others may be passed ``None``),
* ``trace``   -- complex trace form, [Re tr(H^H A_k^H Y), Im tr(H^H B_k^H Y)];
  the imaginary part enters with a plus sign because the matched filter for
  Im(s_k) is the B_k direction.  P = Y H^H is one two-operand einsum, and
  since A_k and B_k are real, the real view of P times one constant
  (2TN, 2K) matrix per code gives both traces of every k, interleaved,
* ``f``       -- the complex equivalent-channel pair (F_a, F_b) from
  ``build_F`` applied to the vectorized receive block z: Re(F^H z), taken
  as Re(z^H F) with one (1 x MT) row product per matrix,
* ``fprime``  -- its real 2MT x 2K form F' = [[Re F_a, Re F_b], [Im F_a,
  Im F_b]], assembled from ``build_F``'s output with the F_a and F_b
  columns interleaved, applied to z' = (Re z; Im z), so that F'^T z' comes
  out in the interleaved order.

No route reads another's result: ``f`` and ``fprime`` each call
``build_F``, itself one GEMM per matrix over every (trial, receive antenna)
pair.  Only per-code constant matrices are cached.

All four agree up to rounding, and dividing by sigma and quantizing per
component gives the decision.  ``exhaustive_indices`` is the brute-force
reference that minimizes ||ycheck - Hc x||^2 over the full candidate grid
without using orthogonality, batched over the same leading axes.  It
expands the distance into the quadratic form x^T G x - 2 r^T x, with the
Gram matrix G = Hc^T Hc and r = Hc^T ycheck computed for every trial, never
assumed to be sigma I.  Splitting x into halves u and v turns the metric of
every candidate into one small product per trial of per-half terms.
``_SLICE`` bounds how many (trial, candidate) metrics exist at once, not
the per-trial factor arrays, which grow with the batch size;
``_search_floats`` gives the largest per-trial array, by which the sweep
sizes its decode chunks.
``decode_lattice``, ``decode_trace``, ``decode_F``, ``decode_Fprime`` and
``exhaustive_ml`` are their one-trial forms; the four routes return the
soft estimate z = Hc^T ycheck / sigma as a (2K,) array (Re s_1, Im s_1,
..., Re s_K, Im s_K) next to the decision.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import DispersionCode
from .constellation import Constellation, quantize_indices
from .lattice import RealLattice, _as_channel, _require_real, build_F, \
    channel_sigma, deinterleave, interleave, unvectorize, vectorize_received

__all__ = [
    "DecodedMessage",
    "DegenerateChannelError",
    "SearchSpaceError",
    "MATCHED_FILTERS",
    "exhaustive_indices",
    "decode_lattice",
    "decode_trace",
    "decode_F",
    "decode_Fprime",
    "exhaustive_ml",
    "MAX_SEARCH_SPACE",
]

MAX_SEARCH_SPACE = 2 ** 24
# (trial x candidate) metric entries per exhaustive slice, one trial at
# least; it bounds the metric array, not the per-trial factor arrays.
_SLICE = 2 ** 13


class DegenerateChannelError(ValueError):
    """sigma is not a positive finite number, so the matched filter cannot be
    divided by it: an all-zero channel (sigma = 0), or a hand-made
    ``RealLattice`` with sigma = nan or inf.  A NaN or infinite channel or
    received value raises a plain ValueError before that."""


class SearchSpaceError(ValueError):
    """Exhaustive candidate grid would exceed MAX_SEARCH_SPACE points."""


@dataclass(frozen=True)
class DecodedMessage:
    """Hard decision after per-component quantization.

    Attributes
    ----------
    xhat : ndarray, shape (2K,)
        Quantized real components.
    shat : ndarray, shape (K,)
        The same decision as complex symbols, a view of xhat.
    indices : ndarray, shape (2K,)
        Component alphabet indices of each decision.
    """

    xhat: np.ndarray
    shat: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_indices(cls, indices: np.ndarray,
                     constellation: Constellation) -> "DecodedMessage":
        xhat = constellation.component_alphabet[indices]
        return cls(xhat=xhat, shat=deinterleave(xhat), indices=indices)


def _lattice(code, h, hc, yv):
    return np.einsum("...pj,...p->...j", hc, yv)


@lru_cache(maxsize=32)
def _trace_weights(code: DispersionCode) -> np.ndarray:
    """The trace route's constant (2TN, 2K) real matrix for one code.

    Row 2 (t N + l) + c meets Re (c = 0) or Im (c = 1) of P[t, l]; column
    2k holds A_k[t, l] on the Re rows and column 2k + 1 holds B_k[t, l] on
    the Im rows, zero elsewhere.
    """
    k, t, n = code.k, code.t, code.n
    w = np.zeros((t * n, 2, k, 2))
    w[:, 0, :, 0] = code.a.reshape(k, t * n).T
    w[:, 1, :, 1] = code.b.reshape(k, t * n).T
    w = w.reshape(2 * t * n, 2 * k)
    w.setflags(write=False)
    return w


def _trace(code, h, hc, yv):
    # P = Y H^H (..., T, N) and tr(H^H A_k^H Y) = sum_tl A_k[t, l] P[t, l]
    # with A_k real, so the real view of P times _trace_weights gives
    # Re tr(H^H A_k^H Y) and Im tr(H^H B_k^H Y) already interleaved.
    p = np.einsum("...tj,...lj->...tl", unvectorize(yv, code.t),
                  unvectorize(h, code.n).conj())
    p = p.reshape(p.shape[:-2] + (-1,)).view(float)
    return p @ _trace_weights(code)


def _f(code, h, hc, yv):
    # Re(F^H z) = Re(z^H F): one conjugated (..., 1, MT) row times each F
    fa, fb = build_F(code, unvectorize(h, code.n))
    zh = deinterleave(yv).conj()[..., None, :]
    return interleave((zh @ fa)[..., 0, :].real, (zh @ fb)[..., 0, :].real)


def _fprime(code, h, hc, yv):
    fa, fb = build_F(code, unvectorize(h, code.n))
    mt, k = fa.shape[-2:]
    # F' = [[Re F_a, Re F_b], [Im F_a, Im F_b]] with the F_a and F_b columns
    # interleaved, so F'^T z' comes out as (Re s_1, Im s_1, ...).
    fprime = np.empty(fa.shape[:-2] + (2 * mt, 2 * k))
    fprime[..., :mt, 0::2] = fa.real
    fprime[..., :mt, 1::2] = fb.real
    fprime[..., mt:, 0::2] = fa.imag
    fprime[..., mt:, 1::2] = fb.imag
    zprime = np.concatenate([yv[..., 0::2], yv[..., 1::2]], axis=-1)
    return (zprime[..., None, :] @ fprime)[..., 0, :]


MATCHED_FILTERS = {"lattice": _lattice, "trace": _trace, "f": _f,
                   "fprime": _fprime}


def _decision(z: np.ndarray, sigma: float, constellation: Constellation
              ) -> tuple[np.ndarray, DecodedMessage]:
    """The one-trial decision from the unscaled matched-filter output z:
    check 0 < sigma < inf, divide by sigma and take each component's
    nearest alphabet point."""
    if not 0.0 < sigma < np.inf:
        raise DegenerateChannelError(f"sigma = {sigma!r} is not in (0, inf)")
    z = z / sigma
    idx = quantize_indices(z, constellation.component_alphabet)
    return z, DecodedMessage.from_indices(idx, constellation)


def _check_shape(name: str, value: np.ndarray, want: tuple[int, ...]) -> None:
    """Reject a received block or vector that would otherwise broadcast, or
    that holds a NaN or an infinity."""
    if value.shape != want:
        raise ValueError(f"{name} has shape {value.shape}, expected {want}")
    if not np.isfinite(value).all():
        raise ValueError(f"{name} holds a NaN or an infinity")


def _real_vector(name: str, value, want: tuple[int, ...], *form) -> np.ndarray:
    """`value` as a float array of shape `want`, checked before any
    conversion: a complex value (see ``_require_real``) or another shape
    raises ValueError."""
    _require_real(name, value, *form)
    value = np.asarray(value, dtype=float)
    _check_shape(name, value, want)
    return value


def decode_lattice(lat: RealLattice, ycheck,
                   constellation: Constellation) -> tuple[np.ndarray, DecodedMessage]:
    """ML decode from the real lattice: xhat = Hc^T ycheck / sigma."""
    ycheck = _real_vector("ycheck", ycheck, lat.hcheck.shape[:1])
    return _decision(_lattice(None, None, lat.hcheck, ycheck), lat.sigma,
                     constellation)


def _decode_route(name: str, code: DispersionCode, h: np.ndarray,
                  yv: np.ndarray, constellation: Constellation):
    """One-trial decode through a complex route; h is the checked channel's
    coefficient vector and yv the interleaved received vector of matching
    length."""
    return _decision(MATCHED_FILTERS[name](code, h, None, yv),
                     float(channel_sigma(code, h)), constellation)


def decode_trace(code: DispersionCode, channel, Y,
                 constellation: Constellation) -> tuple[np.ndarray, DecodedMessage]:
    """ML decode via complex traces of the matched dispersion directions;
    Y is the T x M received block."""
    h, m = _as_channel(code, channel)
    Y = np.asarray(Y)
    _check_shape("Y", Y, (code.t, m))
    return _decode_route("trace", code, h, vectorize_received(Y),
                         constellation)


def decode_F(code: DispersionCode, channel, z_vec,
             constellation: Constellation) -> tuple[np.ndarray, DecodedMessage]:
    """ML decode from the complex equivalent channel applied to z = vec(Y),
    a vector of length MT."""
    h, m = _as_channel(code, channel)
    z_vec = np.asarray(z_vec)
    _check_shape("z", z_vec, (m * code.t,))
    return _decode_route("f", code, h, vectorize_received(z_vec),
                         constellation)


def decode_Fprime(code: DispersionCode, channel, zprime,
                  constellation: Constellation) -> tuple[np.ndarray, DecodedMessage]:
    """ML decode from the real 2MT x 2K equivalent channel applied to the
    real vector z' = (Re z; Im z) of length 2MT."""
    h, m = _as_channel(code, channel)
    zprime = _real_vector("zprime", zprime, (2 * m * code.t,),
                          "(Re z; Im z), the real parts of z over its "
                          "imaginary parts")
    half = zprime.size // 2
    return _decode_route("fprime", code, h,
                         interleave(zprime[:half], zprime[half:]),
                         constellation)


@lru_cache(maxsize=32)
def _half_grid(alphabet: tuple[float, ...],
               dims: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidates of one half of x and their quadratic-form features.

    Returns (grid, features): grid is (dims, L**dims), every candidate in
    lexicographic order (column j is the j-th tuple of itertools.product
    over the alphabet, the first dimension most significant); features is
    (dims**2 + dims, L**dims), rows vec(w w^T) then -2 w of each candidate
    w, so that [vec(G_ww), r_w] @ features is w^T G_ww w - 2 r_w^T w for
    every candidate at once.
    """
    grid = np.array(list(itertools.product(alphabet, repeat=dims))).T.copy()
    outer = (grid[:, None] * grid[None]).reshape(dims * dims, grid.shape[1])
    features = np.concatenate([outer, -2.0 * grid])
    for arr in (grid, features):
        arr.setflags(write=False)
    return grid, features


def _half_metric(gram: np.ndarray, r: np.ndarray,
                 features: np.ndarray) -> np.ndarray:
    """w^T G_ww w - 2 r_w^T w (B, L**dims) of every candidate of one half,
    from its Gram block (B, dims, dims) and correlation (B, dims)."""
    b, dims = r.shape
    coef = np.concatenate([gram.reshape(b, dims * dims), r], axis=1)
    return coef @ features


def _halves(dims: int) -> tuple[int, int]:
    """(du, dv): the search splits x into u, its first dims // 2
    components, and v, the rest."""
    du = dims // 2
    return du, dims - du


def _search_floats(dims: int, levels: int) -> int:
    """Floats in the largest per-trial array ``exhaustive_indices`` builds
    outside its metric slices: [G | r], dims x (dims + 1), or a factor
    array, (dv + 2) x L**du or (dv + 2) x L**dv, of which the v one is the
    larger since dv >= du."""
    du, dv = _halves(dims)
    return max(dims * (dims + 1), (dv + 2) * levels ** dv)


def exhaustive_indices(hc: np.ndarray, yv: np.ndarray,
                       constellation: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force ML: argmin_x ||ycheck - Hc x||^2 over the full grid.

    hc is (..., 2MT, 2K) and yv (..., 2MT).  Each trial's metric is the
    expanded form x^T G x - 2 r^T x with G = Hc^T Hc and r = Hc^T ycheck,
    both computed from Hc: no orthogonality shortcut is taken, and this is
    the reference the matched filters are checked against.  x splits into u,
    its first 2K // 2 components, and v, the rest, so the metric of
    candidate (u_a, v_c) is

        q_u[a] + q_v[c] + 2 u_a^T G_uv v_c,   q_u = u^T G_uu u - 2 r_u^T u

    (q_v alike).  Stacking [2 G_vu u_a; q_u[a]; 1] against [v_c; 1; q_v[c]]
    makes the whole grid one small product per trial.  Candidate (a, c) has
    flat index a * L**len(v) + c, the lexicographic order, so ties resolve
    to the lexicographically first candidate (component indices enumerated
    most-significant-first).  Trials are searched in slices of
    max(1, _SLICE // candidates), which bounds the (trials x candidates)
    metric array to max(_SLICE, candidates) entries.

    Returns
    -------
    (indices, metric)
        indices (..., 2K) of the winners, and metric (...) their
        ||Hc x||^2 - 2 ycheck^T Hc x, i.e. the squared distance up to the
        candidate-independent ||ycheck||^2.
    """
    rows, dims = hc.shape[-2:]
    levels = constellation.levels
    if levels ** dims > MAX_SEARCH_SPACE:
        raise SearchSpaceError(
            f"{levels}**{dims} candidates exceed {MAX_SEARCH_SPACE}")
    alphabet = tuple(constellation.component_alphabet)
    du, dv = _halves(dims)
    ugrid, ufeatures = _half_grid(alphabet, du)
    vgrid, vfeatures = _half_grid(alphabet, dv)
    nu, nv = ugrid.shape[1], vgrid.shape[1]
    lead = hc.shape[:-2]
    hc = hc.reshape(-1, rows, dims)
    b = len(hc)
    yv = np.asarray(yv, dtype=float).reshape(b, rows)
    # [G | r] = Hc^T [Hc | ycheck]
    gr = hc.transpose(0, 2, 1) @ np.concatenate([hc, yv[:, :, None]], axis=2)
    g, r = gr[:, :, :dims], gr[:, :, dims]
    left = np.empty((b, dv + 2, nu))
    left[:, :dv] = ((2.0 * g[:, du:, :du]).reshape(b * dv, du)
                    @ ugrid).reshape(b, dv, nu)
    left[:, dv] = _half_metric(g[:, :du, :du], r[:, :du], ufeatures)
    left[:, dv + 1] = 1.0
    right = np.empty((b, dv + 2, nv))
    right[:, :dv] = vgrid
    right[:, dv] = 1.0
    right[:, dv + 1] = _half_metric(g[:, du:, du:], r[:, du:], vfeatures)
    left = left.transpose(0, 2, 1)
    best = np.empty(b, dtype=np.intp)
    metric = np.empty(b)
    step = max(1, _SLICE // (nu * nv))
    for s in range(0, b, step):
        met = (left[s:s + step] @ right[s:s + step]).reshape(-1, nu * nv)
        win = np.argmin(met, axis=1)
        best[s:s + step] = win
        metric[s:s + step] = met[np.arange(len(win)), win]
    idx = np.stack(np.unravel_index(best, (levels,) * dims), axis=-1)
    return idx.reshape(lead + (dims,)), metric.reshape(lead)


def exhaustive_ml(lat: RealLattice, ycheck,
                  constellation: Constellation) -> tuple[DecodedMessage, float]:
    """One-trial ``exhaustive_indices``: (decision, metric of the winner);
    ycheck is checked as ``decode_lattice`` checks it."""
    ycheck = _real_vector("ycheck", ycheck, lat.hcheck.shape[:1])
    idx, metric = exhaustive_indices(lat.hcheck, ycheck, constellation)
    return DecodedMessage.from_indices(idx, constellation), float(metric)
