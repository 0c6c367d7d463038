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
``channel_sigma``; every other module calls these instead of slicing, with
three deliberate exceptions.  ``decoders._fprime`` reads the Re and Im parts
of ycheck and fills F's interleaved columns with ``0::2`` / ``1::2``
slices, ``decoders.decode_Fprime`` splits z' = (Re z; Im z) at its half,
and ``sim._count_errors`` ORs the Re and Im columns of each symbol with the
same slices.  Routed through ``interleave`` and ``.any(axis=-1)``,
``_fprime`` measured 10-25% slower per 128-trial chunk and
``_count_errors`` 2.3x slower per draw block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .codes import _TAG_VALUES, DispersionCode, _integer

__all__ = [
    "Term",
    "LinForm",
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
    "interleave",
    "deinterleave",
    "verify_lattice",
    "evaluate_lattice_batch",
]

# one additive term of a lattice entry: (flattened channel index, entry tag)
Term = tuple[int, int]
# exact lattice entry: sum of terms, ascending channel index, empty == zero
LinForm = tuple[Term, ...]


def h_index(l: int, j: int, imag: bool, n: int) -> int:
    """Flattened index of Re/Im of channel coefficient h_{l+1, j+1} (0-based l, j)."""
    return 2 * l + (1 if imag else 0) + 2 * j * n


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

    @cached_property
    def _column_groups(self) -> tuple[tuple[tuple[bool, tuple], ...], ...]:
        """Each column's nonzero entries as the schedule's sparse levels
        factor them: ``[0]`` one group per entry (L1), ``[1]`` grouped by
        core (L2).

        A column is (column_r, groups): column_r is True when the column
        has an entry and every entry is root (see ``_decompose``), so that
        the 1/sqrt(2) is applied once to the column's sum.  A group is
        (scaled, core, uses), scaled when a root core is scaled on its own,
        uses the (row, sign) of its entries in row order; groups are in
        order of their first row.  Cached on the instance, as ``_terms`` is.
        """
        levels = ([], [])
        for j in range(self.cols):
            items = [(p, *_decompose(row[j]))
                     for p, row in enumerate(self.entries) if row[j]]
            column_r = bool(items) and all(root for _, root, _, _ in items)
            for grouped, columns in enumerate(levels):
                occ: dict[tuple, list[tuple[int, int]]] = {}
                for p, root, core, sign in items:
                    key = (root and not column_r, core, None if grouped else p)
                    occ.setdefault(key, []).append((p, sign))
                columns.append((column_r, tuple(
                    (scaled, core, tuple(uses))
                    for (scaled, core, _), uses in occ.items())))
        return tuple(map(tuple, levels))

    @cached_property
    def _entry_slots(self) -> tuple:
        """Each column's entry slots for the schedule's L0, in row order:
        ``schedule.Slot`` e<p+1>_<j+1> of entry (p, j), its linear form the
        recipe.  Cached on the instance, as ``_terms`` is, so that every L0
        schedule of this lattice shares them."""
        from .schedule import Slot  # schedule imports this module
        return tuple(tuple(Slot(f"e{p + 1}_{j + 1}", "entry", recipe=row[j])
                           for p, row in enumerate(self.entries))
                     for j in range(self.cols))


def _decompose(form: LinForm) -> tuple[bool, tuple[tuple[int, int], ...], int]:
    """Split a nonzero entry into (root, core, sign), form = sign x core.

    root is True when every term carries the 1/sqrt(2) magnitude; the core
    then holds bare signs.  Otherwise the core keeps the raw tags and any
    root-tagged term is scaled inline.  The sign makes the core's first
    coefficient positive.
    """
    sign = 1 if form[0][1] > 0 else -1
    if all(abs(tag) == 2 for _, tag in form):
        return True, tuple((i, 1 if tag * sign > 0 else -1)
                           for i, tag in form), sign
    if sign < 0:
        form = tuple((i, -tag) for i, tag in form)
    return False, form, sign


def _antenna_count(m) -> int:
    """m as a receive antenna count: an integer (``codes._integer``, so True
    is 1 and 1.0 is rejected), at least 1."""
    m = _integer("m", m)
    if m < 1:
        raise ValueError("m must be >= 1: the receive antenna count must be "
                         "positive")
    return m


@lru_cache(maxsize=None, typed=True)
def build_symbolic_lattice(code: DispersionCode, m: int) -> SymbolicLattice:
    """Construct the exact 2MT x 2K lattice matrix for M receive antennas.

    One pass over (k, j, t, l) appends each nonzero tag's term straight to
    its interleaved entry (see the module docstring), so every entry lists
    its terms in ascending channel index.  The result is cached per (code, M)
    and per type of M, so that M = 1.0 is rejected whatever the cache holds;
    the lattice's ``m`` is a plain int even for M = True or a NumPy integer.
    """
    m = _antenna_count(m)
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


# The relative tolerance on sigma = c ||H||_F^2 that both of its checks
# hold to: build_check_H's two sigma routes and verify_lattice's Gram matrix.
_REL_TOL = 1e-9


@dataclass(frozen=True)
class RealLattice:
    """Numeric lattice for one channel realization.

    hcheck must be a real, finite 2-D array; the lattice stores a read-only
    float copy of it, so the caller's array stays its own.  sigma is not
    checked: sigma = 0 is the degenerate lattice ``verify_lattice`` reports,
    and the decoders reject a sigma outside (0, inf).
    """

    hcheck: np.ndarray  # (2MT, 2K), read-only
    sigma: float        # c * ||H||_F^2

    def __post_init__(self):
        _require_real("hcheck", self.hcheck, "a real (2MT, 2K) matrix")
        hc = np.array(self.hcheck, dtype=float)
        if hc.ndim != 2:
            raise ValueError(f"hcheck must be 2-D, got shape {hc.shape}")
        if not np.isfinite(hc).all():
            raise ValueError("hcheck holds a NaN or an infinity")
        hc.setflags(write=False)
        object.__setattr__(self, "hcheck", hc)


def _as_channel(code: DispersionCode, channel) -> tuple[np.ndarray, int]:
    """The complex (N, M) channel matrix as (h, M), its coefficient vector
    and receive antenna count; it must be 2-D, with N rows, and finite."""
    matrix = np.asarray(channel, dtype=complex)
    if matrix.ndim != 2:
        raise ValueError("channel matrix must be 2-D (N x M)")
    if matrix.shape[0] != code.n:
        raise ValueError(
            f"channel has {matrix.shape[0]} rows but code {code.id!r} uses "
            f"{code.n} transmit antennas")
    if not np.isfinite(matrix).all():
        raise ValueError("channel holds a NaN or an infinity")
    return vectorize_received(matrix), matrix.shape[1]


def build_check_H(code: DispersionCode, channel) -> RealLattice:
    """Build the numeric real lattice for a channel realization.

    Parameters
    ----------
    code : DispersionCode
    channel : array_like, complex, shape (N, M)

    Returns
    -------
    RealLattice
        With sigma = c * ||H||_F^2; the value is cross-checked against the
        first column's self inner product at build time.
    """
    h, m = _as_channel(code, channel)
    hc = evaluate_lattice_batch(build_symbolic_lattice(code, m), h[None])[0]
    sigma = float(channel_sigma(code, h))
    col = float(np.dot(hc[:, 0], hc[:, 0]))
    if abs(col - sigma) > _REL_TOL * max(sigma, 1e-300):
        raise ArithmeticError(
            f"sigma routes disagree: column route {col!r}, norm route {sigma!r}")
    return RealLattice(hcheck=hc, sigma=sigma)


def channel_sigma(code: DispersionCode, h: np.ndarray) -> np.ndarray:
    """sigma = c * ||H||_F^2 from coefficient vectors h (..., 2NM) -> (...)."""
    _require_real("h", h)
    h = np.asarray(h, dtype=float)  # an integer h * h would wrap around
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
    hm = np.asarray(channel, dtype=complex)
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
    _require_real("v", v)
    rows = _integer("rows", rows)
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    flat = deinterleave(v)
    if flat.shape[-1] % rows:
        raise ValueError(f"v holds {flat.shape[-1]} complex values, not a "
                         f"multiple of rows = {rows}")
    cols = flat.shape[-1] // rows
    return flat.reshape(flat.shape[:-1] + (cols, rows)).swapaxes(-1, -2)


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
    """Orthogonality diagnostics of a numeric lattice, all relative to
    |sigma|; each must be at most ``_REL_TOL`` to pass."""

    passed: bool
    degenerate: bool
    max_offdiag_rel: float
    max_diag_spread_rel: float
    sigma_mismatch_rel: float


def verify_lattice(lat: RealLattice) -> LatticeReport:
    """Check H_check^T H_check = sigma I and the two sigma routes agree."""
    sigma = lat.sigma
    if sigma == 0.0:
        return LatticeReport(passed=False, degenerate=True, max_offdiag_rel=0.0,
                             max_diag_spread_rel=0.0, sigma_mismatch_rel=0.0)
    # relative to |sigma|, so that a negative sigma reads as the error it is
    scale = abs(sigma)
    gram = lat.hcheck.T @ lat.hcheck
    diag = np.diagonal(gram)
    off = gram - np.diag(diag)
    max_off = float(np.max(np.abs(off))) / scale
    max_spread = float(np.max(np.abs(diag - sigma))) / scale
    mismatch = abs(float(np.dot(lat.hcheck[:, 0], lat.hcheck[:, 0])) - sigma) / scale
    passed = all(v <= _REL_TOL for v in (max_off, max_spread, mismatch))
    return LatticeReport(passed=passed, degenerate=False,
                         max_offdiag_rel=max_off, max_diag_spread_rel=max_spread,
                         sigma_mismatch_rel=mismatch)
