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
  Im(s_k) is the B_k direction,
* ``f``       -- the complex equivalent-channel pair (F_a, F_b) applied to the
  vectorized receive block z,
* ``fprime``  -- its real 2MT x 2K form applied to z'.

All four agree up to rounding, and dividing by sigma and quantizing per
component gives the decision.  ``exhaustive_indices`` is the brute-force
reference that minimizes ||ycheck - Hc x||^2 over the full candidate grid
without using orthogonality, batched over the same leading axes.
``decode_lattice``, ``decode_trace``, ``decode_F``, ``decode_Fprime`` and
``exhaustive_ml`` are their one-trial forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import DispersionCode
from .constellation import Constellation, quantize_indices
from .lattice import RealLattice, _as_channel, build_F, channel_sigma, \
    deinterleave, interleave, unvectorize, vectorize_received

__all__ = [
    "SoftEstimate",
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
# (Hc row x candidate) products per exhaustive slice; bounds the search's
# memory.
_SLICE = 2 ** 13


class DegenerateChannelError(ValueError):
    """All-zero channel: sigma = 0 and the matched filter is undefined."""


class SearchSpaceError(ValueError):
    """Exhaustive candidate grid would exceed MAX_SEARCH_SPACE points."""


@dataclass(frozen=True)
class SoftEstimate:
    """Unquantized matched-filter output.

    Attributes
    ----------
    z : ndarray, shape (2K,)
        Interleaved real estimate (Re s_1, Im s_1, ..., Re s_K, Im s_K).
    """

    z: np.ndarray

    @property
    def symbols(self) -> np.ndarray:
        """Complex view, shape (K,)."""
        return deinterleave(self.z)


@dataclass(frozen=True)
class DecodedMessage:
    """Hard decision after per-component quantization.

    Attributes
    ----------
    xhat : ndarray, shape (2K,)
        Quantized real components.
    shat : ndarray, shape (K,)
        The same decision as complex symbols.
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


def _trace(code, h, hc, yv):
    hh = unvectorize(h, code.n).conj()
    y = unvectorize(yv, code.t)
    return interleave(np.einsum("ktl,...lj,...tj->...k", code.a, hh, y).real,
                      np.einsum("ktl,...lj,...tj->...k", code.b, hh, y).imag)


def _f(code, h, hc, yv):
    fa, fb = build_F(code, unvectorize(h, code.n))
    zv = deinterleave(yv)
    return interleave(np.einsum("...pk,...p->...k", fa.conj(), zv).real,
                      np.einsum("...pk,...p->...k", fb.conj(), zv).real)


def _fprime(code, h, hc, yv):
    fa, fb = build_F(code, unvectorize(h, code.n))
    fc = np.concatenate([fa, fb], axis=-1)
    fprime = np.concatenate([fc.real, fc.imag], axis=-2)
    zv = deinterleave(yv)
    zprime = np.concatenate([zv.real, zv.imag], axis=-1)
    # F'^T z' comes out grouped (Re s_1..s_K; Im s_1..s_K); interleave it.
    grouped = np.einsum("...pj,...p->...j", fprime, zprime)
    return interleave(grouped[..., :code.k], grouped[..., code.k:])


MATCHED_FILTERS = {"lattice": _lattice, "trace": _trace, "f": _f,
                   "fprime": _fprime}


def _decide(z: np.ndarray, constellation: Constellation) -> DecodedMessage:
    idx = quantize_indices(z, constellation.component_alphabet)
    return DecodedMessage.from_indices(idx, constellation)


def _check_sigma(sigma: float) -> None:
    if sigma <= 0.0:
        raise DegenerateChannelError("sigma = 0; all-zero channel realization")


def decode_lattice(lat: RealLattice, ycheck,
                   constellation: Constellation) -> tuple[SoftEstimate, DecodedMessage]:
    """ML decode from the real lattice: xhat = Hc^T ycheck / sigma."""
    _check_sigma(lat.sigma)
    ycheck = np.asarray(ycheck, dtype=float)
    z = _lattice(None, None, lat.hcheck, ycheck) / lat.sigma
    return SoftEstimate(z=z), _decide(z, constellation)


def _decode_route(name: str, code: DispersionCode, channel, yv: np.ndarray,
                  constellation: Constellation):
    """One-trial decode through a complex route; yv is the interleaved
    received vector."""
    ch = _as_channel(code, channel)
    sigma = float(channel_sigma(code, ch.h))
    _check_sigma(sigma)
    z = MATCHED_FILTERS[name](code, ch.h, None, yv) / sigma
    return SoftEstimate(z=z), _decide(z, constellation)


def decode_trace(code: DispersionCode, channel, Y,
                 constellation: Constellation) -> tuple[SoftEstimate, DecodedMessage]:
    """ML decode via complex traces of the matched dispersion directions."""
    return _decode_route("trace", code, channel, vectorize_received(Y),
                         constellation)


def decode_F(code: DispersionCode, channel, z_vec,
             constellation: Constellation) -> tuple[SoftEstimate, DecodedMessage]:
    """ML decode from the complex equivalent channel applied to z = vec(Y)."""
    return _decode_route("f", code, channel, vectorize_received(z_vec),
                         constellation)


def decode_Fprime(code: DispersionCode, channel, zprime,
                  constellation: Constellation) -> tuple[SoftEstimate, DecodedMessage]:
    """ML decode from the real 2MT x 2K equivalent channel applied to z'."""
    zprime = np.asarray(zprime, dtype=float).ravel()
    half = zprime.size // 2
    return _decode_route("fprime", code, channel,
                         interleave(zprime[:half], zprime[half:]),
                         constellation)


@lru_cache(maxsize=32)
def _candidate_grid(alphabet: tuple[float, ...], dims: int) -> np.ndarray:
    """All candidate x vectors, shape (dims, L**dims), lexicographic order.

    Column j enumerates component indices with the first dimension most
    significant, matching itertools.product over the alphabet.
    """
    n = len(alphabet)
    total = n ** dims
    grid = np.empty((dims, total))
    alpha = np.asarray(alphabet)
    for d in range(dims):
        reps = n ** (dims - d - 1)
        tile = n ** d
        grid[d] = np.tile(np.repeat(alpha, reps), tile)
    return grid


def exhaustive_indices(hc: np.ndarray, yv: np.ndarray,
                       constellation: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force ML: argmin_x ||ycheck - Hc x||^2 over the full grid.

    hc is (..., 2MT, 2K) and yv (..., 2MT).  No orthogonality shortcut is
    taken; this is the reference the matched filters are checked against.
    Ties resolve to the lexicographically first candidate (component indices
    enumerated most-significant-first).

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
    grid = _candidate_grid(tuple(constellation.component_alphabet), dims)
    lead = hc.shape[:-2]
    hc = hc.reshape(-1, rows, dims)
    yv = np.asarray(yv, dtype=float).reshape(-1, rows)
    best = np.empty(len(hc), dtype=np.intp)
    metric = np.empty(len(hc))
    step = max(1, _SLICE // (rows * grid.shape[1]))
    for s in range(0, len(hc), step):
        hx = hc[s:s + step] @ grid
        met = np.sum(hx * hx, axis=1) \
            - 2.0 * np.einsum("bp,bpc->bc", yv[s:s + step], hx)
        best[s:s + step] = np.argmin(met, axis=1)
        metric[s:s + step] = np.take_along_axis(
            met, best[s:s + step, None], axis=1)[:, 0]
    idx = np.stack(np.unravel_index(best, (levels,) * dims), axis=-1)
    return idx.reshape(lead + (dims,)), metric.reshape(lead)


def exhaustive_ml(lat: RealLattice, ycheck,
                  constellation: Constellation) -> tuple[DecodedMessage, float]:
    """One-trial ``exhaustive_indices``: (decision, metric of the winner)."""
    idx, metric = exhaustive_indices(lat.hcheck, ycheck, constellation)
    return DecodedMessage.from_indices(idx, constellation), float(metric)
