"""Equivalent real-valued lattice of an orthogonal space-time block code.

With Y = G(s) H + V received over M antennas, stacking the columns of Y and
interleaving real and imaginary parts turns the system into a real one:

    y_check = H_check @ x + v_check

where x = (Re s_1, Im s_1, ..., Re s_K, Im s_K) and H_check is 2MT x 2K with

    H_check^T H_check = sigma * I,      sigma = c * ||H||_F^2.

Channel coefficients are flattened the same way: h_(2l-1+2(j-1)N) = Re h_{l,j}
and h_(2l+2(j-1)N) = Im h_{l,j} (1-based), i.e. Re/Im interleaved down each
channel column.

H_check is built straight in that interleaved layout.  With p = jT + t for
time slot t at receive antenna j (all indices 0-based), the tag of A_k at
(t, l) puts Re h_{l,j} into entry (2p, 2k) and Im h_{l,j} into (2p+1, 2k),
and that of B_k puts -Im h_{l,j} into (2p, 2k+1) and Re h_{l,j} into
(2p+1, 2k+1): the real and imaginary parts of vec(A_k H) and 1j vec(B_k H).
Every entry is kept as an exact integer-tagged linear form over the
flattened channel coefficients, so the matrix doubles as input to the
operation scheduler, and one term table cached on the lattice evaluates it
deterministically.

This module alone owns that layout and sigma: ``interleave`` / ``deinterleave``
(Re/Im pairs), ``vectorize_received`` / ``unvectorize`` (column stacking) and
``channel_sigma``; every other module calls these instead of slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codes import _TAG_VALUES, DispersionCode

__all__ = [
    "Term",
    "LinForm",
    "ChannelRealization",
    "ComplexStack",
    "SymbolicLattice",
    "RealLattice",
    "LatticeReport",
    "h_index",
    "build_symbolic_lattice",
    "build_F",
    "build_check_H",
    "channel_sigma",
    "vectorize_received",
    "unvectorize",
    "complex_stack",
    "interleave",
    "deinterleave",
    "verify_lattice",
    "evaluate_lattice_batch",
    "linform_value",
    "write_hcheck_csv",
]

# one additive term of a lattice entry: (flattened channel index, entry tag)
Term = tuple[int, int]
# exact lattice entry: sum of terms, ascending channel index, empty == zero
LinForm = tuple[Term, ...]


def h_index(l: int, j: int, imag: bool, n: int) -> int:
    """Flattened index of Re/Im of channel coefficient h_{l+1, j+1} (0-based l, j)."""
    return 2 * l + (1 if imag else 0) + 2 * j * n


@dataclass(frozen=True)
class ChannelRealization:
    """A channel matrix together with its flattened real coefficient vector.

    Attributes
    ----------
    matrix : ndarray, complex, shape (N, M)
    h : ndarray, float, shape (2NM,)
        Re/Im interleaved down each column of `matrix`.
    """

    matrix: np.ndarray
    h: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> "ChannelRealization":
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2:
            raise ValueError("channel matrix must be 2-D (N x M)")
        h = vectorize_received(matrix)
        matrix = matrix.copy()
        matrix.setflags(write=False)
        h.setflags(write=False)
        return cls(matrix=matrix, h=h)

    @classmethod
    def from_h(cls, h, n: int, m: int) -> "ChannelRealization":
        _require_real("h", h)
        h = np.asarray(h, dtype=float)
        if h.shape != (2 * n * m,):
            raise ValueError(f"expected {2 * n * m} real coefficients, got {h.shape}")
        return cls.from_matrix(unvectorize(h, n))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ComplexStack:
    """Column stack of the received block: z = vec(Y), zprime = (Re z; Im z)."""

    z: np.ndarray
    zprime: np.ndarray


@dataclass(frozen=True)
class SymbolicLattice:
    """H_check with every entry an exact linear form over channel coefficients."""

    code: DispersionCode
    m: int
    entries: tuple[tuple[LinForm, ...], ...]  # [2MT][2K]

    @property
    def rows(self) -> int:
        return 2 * self.m * self.code.t

    @property
    def cols(self) -> int:
        return 2 * self.code.k

    def scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened term arrays (positions, h indices, coefficients).

        Terms are ordered entry-major (row-major positions) and ascending
        channel index within an entry, which fixes the floating-point
        accumulation order everywhere the matrix is evaluated.
        """
        pos, hidx, coef = (np.concatenate(a) for a in zip(*self._terms))
        # without rank 0's padding; a stable sort keeps each entry's rank order
        real = np.flatnonzero(hidx < 2 * self.code.n * self.m)
        order = real[np.argsort(pos[real], kind="stable")]
        return pos[order], hidx[order], coef[order]

    @cached_property
    def _terms(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The term table: for each rank r, the (entry, h index, coefficient)
        arrays of the entries' (r+1)-th terms, entries numbered row-major.
        Rank 0 gives an entry with no term the zero column that
        ``evaluate_lattice_batch`` appends to h (index 2NM) and coefficient
        0.0, so it is one gather over the whole matrix; ranks r >= 1 list
        only the entries that have such a term.  Cached on the instance: a
        cache keyed by the lattice would hash its nested entries on every
        evaluation.
        """
        pad = ((2 * self.code.n * self.m, 0),)
        forms = [form or pad for row in self.entries for form in row]
        table = []
        for r in range(max(map(len, forms))):
            terms = [(e, *form[r]) for e, form in enumerate(forms)
                     if len(form) > r]
            pos, hidx, tag = np.array(terms, dtype=np.intp).T.copy()
            coef = np.array([_TAG_VALUES[t] for t in tag.tolist()])
            for arr in (pos, hidx, coef):
                arr.setflags(write=False)
            table.append((pos, hidx, coef))
        return tuple(table)


def linform_value(form: LinForm, h: np.ndarray) -> np.ndarray:
    """Evaluate one entry at coefficient vectors h (..., 2NM), terms in
    stored order."""
    acc = np.zeros(h.shape[:-1])
    for idx, tag in form:
        acc = acc + _TAG_VALUES[tag] * h[..., idx]
    return acc


@lru_cache(maxsize=None)
def build_symbolic_lattice(code: DispersionCode, m: int) -> SymbolicLattice:
    """Construct the exact 2MT x 2K lattice matrix for M receive antennas.

    One pass over (k, j, t, l) appends each nonzero tag's term straight to
    its interleaved entry (see the module docstring), so every entry lists
    its terms in ascending channel index.  The result is cached per (code, M).
    """
    if m < 1:
        raise ValueError("receive antenna count must be positive")
    n, t = code.n, code.t
    entries = [[[] for _ in range(2 * code.k)] for _ in range(2 * m * t)]
    for k, (a_k, b_k) in enumerate(zip(code.a_tags, code.b_tags)):
        for j in range(m):
            for ti in range(t):
                p = j * t + ti
                re_row, im_row = entries[2 * p], entries[2 * p + 1]
                for l in range(n):
                    re, im = h_index(l, j, False, n), h_index(l, j, True, n)
                    if a := a_k[ti][l]:
                        re_row[2 * k].append((re, a))
                        im_row[2 * k].append((im, a))
                    if b := b_k[ti][l]:
                        # 1j * (B_k H): Re = -Im(B_k H), Im = +Re(B_k H)
                        re_row[2 * k + 1].append((im, -b))
                        im_row[2 * k + 1].append((re, b))
    return SymbolicLattice(code=code, m=m, entries=tuple(
        tuple(map(tuple, row)) for row in entries))


def _require_real(name: str, value,
                  form: str = "its interleaved real vector, as "
                              "vectorize_received builds it") -> None:
    """Reject a complex value where a real vector (`form`) belongs."""
    if np.iscomplexobj(value):
        raise ValueError(f"{name} is complex; pass {form}")


def evaluate_lattice_batch(sym: SymbolicLattice, h: np.ndarray) -> np.ndarray:
    """Numeric H_check for a batch of coefficient vectors (B, 2NM) -> (B, 2MT, 2K).

    Each entry is 0.0 plus its terms in stored order, bit for bit (-0.0
    included) what ``np.add.at`` over ``sym.scatter()`` gives.  Rank 0 of
    the lattice's term table is one contiguous gather of h's columns (with a
    zero column appended for entries that have no term) times a per-entry
    coefficient, into a (B, entries) array that is already the C-contiguous
    result; a sum that starts at +0.0 is never -0.0, hence the added 0.0.
    Each further rank gathers, scales and adds its terms at only the entries
    that have a term at that rank.  Pass one vector h as h[None].
    """
    _require_real("h", h)
    h = np.asarray(h, dtype=float)
    need = 2 * sym.code.n * sym.m
    if h.ndim != 2:
        raise ValueError(f"h must be a (B, 2NM) = (B, {need}) batch, got "
                         f"shape {h.shape}; pass h[None] for one vector")
    b, width = h.shape
    if width != need:
        raise ValueError(f"h has {width} coefficients, need {need}")
    ext = np.empty((b, width + 1))
    ext[:, :width] = h
    ext[:, width] = 0.0
    (_, idx, coef), *rest = sym._terms
    out = np.take(ext, idx, axis=1)
    out *= coef
    out += 0.0
    for at, idx, coef in rest:
        term = np.take(h, idx, axis=1)
        term *= coef
        term += np.take(out, at, axis=1)
        out[:, at] = term
    return out.reshape(b, sym.rows, sym.cols)


@dataclass(frozen=True)
class RealLattice:
    """Numeric lattice for one channel realization."""

    code_id: str
    m: int
    hcheck: np.ndarray  # (2MT, 2K), read-only
    sigma: float        # c * ||H||_F^2
    c: int


def _as_channel(code: DispersionCode, channel) -> ChannelRealization:
    if isinstance(channel, ChannelRealization):
        ch = channel
    else:
        ch = ChannelRealization.from_matrix(channel)
    if ch.n != code.n:
        raise ValueError(
            f"channel has {ch.n} rows but code {code.id!r} uses {code.n} "
            f"transmit antennas")
    return ch


def build_check_H(code: DispersionCode, channel) -> RealLattice:
    """Build the numeric real lattice for a channel realization.

    Parameters
    ----------
    code : DispersionCode
    channel : ChannelRealization or array_like, complex, shape (N, M)

    Returns
    -------
    RealLattice
        With sigma = c * ||H||_F^2; the value is cross-checked against the
        first column's self inner product at build time.
    """
    ch = _as_channel(code, channel)
    sym = build_symbolic_lattice(code, ch.m)
    hc = evaluate_lattice_batch(sym, ch.h[None])[0]
    sigma = float(channel_sigma(code, ch.h))
    col = float(np.dot(hc[:, 0], hc[:, 0]))
    if abs(col - sigma) > 1e-9 * max(sigma, 1e-300):
        raise ArithmeticError(
            f"sigma routes disagree: column route {col!r}, norm route {sigma!r}")
    hc.setflags(write=False)
    return RealLattice(code_id=code.id, m=ch.m, hcheck=hc, sigma=sigma, c=code.c)


def channel_sigma(code: DispersionCode, h: np.ndarray) -> np.ndarray:
    """sigma = c * ||H||_F^2 from coefficient vectors h (..., 2NM) -> (...)."""
    _require_real("h", h)
    return code.c * np.sum(h * h, axis=-1)


@lru_cache(maxsize=32)
def _f_columns(code: DispersionCode) -> tuple[np.ndarray, np.ndarray]:
    """build_F's constant (N, T K) complex matrices for one code: entry
    [l, t K + k] is A_k[t, l], resp. 1j B_k[t, l]."""
    shape = (code.n, code.t * code.k)
    ca = code.a.transpose(2, 1, 0).reshape(shape).astype(complex)
    cb = 1j * code.b.transpose(2, 1, 0).reshape(shape)
    for arr in (ca, cb):
        arr.setflags(write=False)
    return ca, cb


def build_F(code: DispersionCode, channel) -> tuple[np.ndarray, np.ndarray]:
    """Complex mixing matrices: F_a[:, k] = vec(A_k H), F_b[:, k] = 1j vec(B_k H).

    vec() stacks columns, so row p corresponds to time slot p mod T at
    receive antenna p div T.  Both matrices have shape (MT, K); a complex
    channel array (..., N, M) gives a stack of them, (..., MT, K).

    Each matrix is one GEMM over every (trial, receive antenna) pair: the
    columns H[:, j] of all channels, stacked as the rows of one (... M, N)
    matrix, times the code's constant (N, T K) matrix whose column t K + k
    is row t of A_k (resp. of 1j B_k).  The product's row for (trial, j)
    holds entries j T + t of every vec(A_k H) in (t, k) order, so it
    reshapes to (..., MT, K) without a copy.
    """
    hm = channel.matrix if isinstance(channel, ChannelRealization) \
        else np.asarray(channel, dtype=complex)
    if hm.ndim < 2 or hm.shape[-2] != code.n:
        raise ValueError(f"channel must be (..., {code.n}, M) for code "
                         f"{code.id!r}, got {hm.shape}")
    ca, cb = _f_columns(code)
    rows = np.swapaxes(hm, -1, -2).reshape(-1, code.n)
    shape = hm.shape[:-2] + (-1, code.k)
    return (rows @ ca).reshape(shape), (rows @ cb).reshape(shape)


def vectorize_received(y_block) -> np.ndarray:
    """T x M received block -> interleaved real vector of length 2MT."""
    z = np.asarray(y_block, dtype=complex).ravel(order="F")
    return interleave(z.real, z.imag)


def unvectorize(v: np.ndarray, rows: int) -> np.ndarray:
    """Batched inverse of ``vectorize_received``: (..., 2 rows M) reals ->
    complex matrices (..., rows, M), a view like ``deinterleave``'s."""
    flat = deinterleave(v)
    cols = flat.shape[-1] // rows
    return flat.reshape(flat.shape[:-1] + (cols, rows)).swapaxes(-1, -2)


def complex_stack(y_block) -> ComplexStack:
    """T x M received block -> (z = vec(Y), zprime = (Re z; Im z))."""
    z = np.asarray(y_block, dtype=complex).ravel(order="F")
    return ComplexStack(z=z, zprime=np.concatenate([z.real, z.imag]))


def interleave(re, im) -> np.ndarray:
    """Re/Im parts (..., n) and (..., n) -> interleaved (..., 2n):
    (Re_1, Im_1, ..., Re_n, Im_n)."""
    pairs = np.stack((re, im), axis=-1)
    return pairs.reshape(pairs.shape[:-2] + (2 * pairs.shape[-2],))


def deinterleave(yv: np.ndarray) -> np.ndarray:
    """Inverse of ``interleave`` as complex values: (..., 2n) reals ->
    (..., n) complex.

    The result is a complex128 view of the Re/Im pairs, with no arithmetic:
    when yv is already a C-contiguous float64 array it shares yv's memory
    (and its write flag), so writing to one writes to the other.  Copy it
    before writing when yv must stay as it is.
    """
    yv = np.asarray(yv, dtype=float)
    if yv.ndim < 1 or yv.shape[-1] % 2:
        raise ValueError("interleaved vector must have even length")
    return np.ascontiguousarray(yv).view(np.complex128)


@dataclass(frozen=True)
class LatticeReport:
    """Orthogonality diagnostics of a numeric lattice, all relative to sigma."""

    passed: bool
    degenerate: bool
    sigma: float
    max_offdiag_rel: float
    max_diag_spread_rel: float
    sigma_mismatch_rel: float
    tol: float


def verify_lattice(lat: RealLattice, tol: float = 1e-9) -> LatticeReport:
    """Check H_check^T H_check = sigma I and the two sigma routes agree."""
    sigma = lat.sigma
    if sigma == 0.0:
        return LatticeReport(passed=False, degenerate=True, sigma=0.0,
                             max_offdiag_rel=0.0, max_diag_spread_rel=0.0,
                             sigma_mismatch_rel=0.0, tol=tol)
    gram = lat.hcheck.T @ lat.hcheck
    diag = np.diagonal(gram)
    off = gram - np.diag(diag)
    max_off = float(np.max(np.abs(off))) / sigma
    max_spread = float(np.max(np.abs(diag - sigma))) / sigma
    mismatch = abs(float(np.dot(lat.hcheck[:, 0], lat.hcheck[:, 0])) - sigma) / sigma
    passed = max_off <= tol and max_spread <= tol and mismatch <= tol
    return LatticeReport(passed=passed, degenerate=False, sigma=sigma,
                         max_offdiag_rel=max_off, max_diag_spread_rel=max_spread,
                         sigma_mismatch_rel=mismatch, tol=tol)


def write_hcheck_csv(lat: RealLattice, path) -> None:
    """Dump H_check row-major as CSV with full-precision floats."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in lat.hcheck:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
