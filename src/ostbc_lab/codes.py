"""Orthogonal space-time block codes in linear dispersion form.

A code transmits K complex symbols s_1..s_K over T time slots on N antennas.
The transmitted T x N block is linear in the real and imaginary parts of the
symbols:

    G(s) = sum_k Re(s_k) * A_k + 1j * Im(s_k) * B_k

with real dispersion matrices A_k, B_k of shape T x N.  Orthogonality means

    G(s)^H G(s) = c * (sum_k |s_k|^2) * I_N

for an integer scale c >= 1.  Four classic codes are built in:

    g2  Alamouti        N=2, T=2, K=2, c=1   rate 1
    g3  rate-1/2        N=3, T=8, K=4, c=2   g4 on its first three antennas
    g4  rate-1/2        N=4, T=8, K=4, c=2
    h3  rate-3/4        N=3, T=4, K=3, c=1

Every dispersion entry of the built-in codes lies in {0, +-1, +-1/sqrt(2)}.
Entries are stored exactly as small integer tags so that downstream symbolic
machinery (lattice construction, operation scheduling) never touches floats:
tag 0 is zero, +-1 is +-1, and +-2 encodes +-1/sqrt(2).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "RSQRT2",
    "DispersionCode",
    "UnknownCodeError",
    "CodeFormatError",
    "OrthogonalityError",
    "get_code",
    "builtin_code_ids",
    "encode",
    "measure_c",
    "parse_code_text",
    "format_code_text",
    "load_code_file",
    "save_code_file",
]

RSQRT2 = 1.0 / math.sqrt(2.0)

# integer entry tags -> exact values; +-2 stands for +-1/sqrt(2)
_TAG_VALUES = {0: 0.0, 1: 1.0, -1: -1.0, 2: RSQRT2, -2: -RSQRT2}
_TAG_TOKENS = {0: "0", 1: "1", -1: "-1", 2: "r", -2: "-r"}
_TOKEN_TAGS = {v: k for k, v in _TAG_TOKENS.items()}


class UnknownCodeError(ValueError):
    """Requested code id is not registered."""


class CodeFormatError(ValueError):
    """A code description file is malformed."""


class OrthogonalityError(ValueError):
    """A code failed the orthogonality check G^H G = c * ||s||^2 * I."""


TagMatrix = tuple[tuple[int, ...], ...]


def _integer(name: str, value) -> int:
    """`value` as an int, for integer types only (``operator.index``, so
    True is 1 and 2.0 or "2" is rejected)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


@dataclass(frozen=True)
class DispersionCode:
    """An orthogonal design described by its dispersion matrices.

    Parameters
    ----------
    id : str
        Short identifier ("g2", "g3", ...).
    n : int
        Number of transmit antennas (columns of the block).
    t : int
        Block length in time slots (rows of the block).
    k : int
        Number of complex symbols per block.
    c : int
        Gram scale: G^H G = c * sum|s_k|^2 * I_n.
    a_tags, b_tags : tuple of K tag matrices, each T x N
        Exact integer-tagged dispersion matrices for the real and
        imaginary symbol parts.
    """

    id: str
    n: int
    t: int
    k: int
    c: int
    a_tags: tuple[TagMatrix, ...]
    b_tags: tuple[TagMatrix, ...]

    def __post_init__(self) -> None:
        for field in ("n", "t", "k", "c"):
            object.__setattr__(self, field, _integer(field, getattr(self, field)))
        if min(self.n, self.t, self.k, self.c) < 1:
            raise ValueError("code dimensions and scale must be positive")
        for tags in (self.a_tags, self.b_tags):
            if len(tags) != self.k:
                raise ValueError(f"expected {self.k} dispersion matrices, got {len(tags)}")
            for mat in tags:
                if len(mat) != self.t or any(len(row) != self.n for row in mat):
                    raise ValueError(f"dispersion matrices must be {self.t}x{self.n}")
                for row in mat:
                    for tag in row:
                        # 1.0, True and np.int64(1) hash as 1 but are no tags
                        if type(tag) is not int or tag not in _TAG_VALUES:
                            raise ValueError(f"invalid entry tag {tag!r}")

    @cached_property
    def a(self) -> np.ndarray:
        """Float view of the A_k stack, shape (K, T, N), read-only."""
        return _tags_to_array(self.a_tags)

    @cached_property
    def b(self) -> np.ndarray:
        """Float view of the B_k stack, shape (K, T, N), read-only."""
        return _tags_to_array(self.b_tags)

    @property
    def rate(self) -> float:
        return self.k / self.t

    def __repr__(self) -> str:  # keep the matrices out of reprs
        return (f"DispersionCode(id={self.id!r}, n={self.n}, t={self.t}, "
                f"k={self.k}, c={self.c})")


def _tags_to_array(tags: tuple[TagMatrix, ...]) -> np.ndarray:
    arr = np.array([[[_TAG_VALUES[tag] for tag in row] for row in mat] for mat in tags])
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# built-in code definitions
# ---------------------------------------------------------------------------

_GEN_TOKEN = re.compile(r"^(-)?s(\d+)(\*)?$")


def _code_from_generator(cid: str, c: int, k: int,
                         rows: tuple[str, ...]) -> DispersionCode:
    """Build a code whose block entries are all of the form +-s_k or +-s_k*.

    Each row string holds N whitespace-separated tokens, one per antenna,
    e.g. "-s2* s1*".  An entry +-s_k contributes +-1 to both A_k and B_k;
    an entry +-s_k* contributes +-1 to A_k and -+1 to B_k.
    """
    t = len(rows)
    n = len(rows[0].split())
    a = [[[0] * n for _ in range(t)] for _ in range(k)]
    b = [[[0] * n for _ in range(t)] for _ in range(k)]
    for ti, row in enumerate(rows):
        for ni, token in enumerate(row.split()):
            minus, ki, conj = _GEN_TOKEN.match(token).groups()
            sign = -1 if minus else 1
            a[int(ki) - 1][ti][ni] = sign
            b[int(ki) - 1][ti][ni] = -sign if conj else sign
    freeze = lambda mats: tuple(tuple(tuple(row) for row in mat) for mat in mats)
    return DispersionCode(id=cid, n=n, t=t, k=k, c=c,
                          a_tags=freeze(a), b_tags=freeze(b))


# Tarokh, Jafarkhani & Calderbank's rate-1/2 G4 (IEEE Trans. IT 1999); their
# G3 is G4 on its first three antennas, each row without its last token.
_G4_ROWS = (
    "s1 s2 s3 s4",
    "-s2 s1 -s4 s3",
    "-s3 s4 s1 -s2",
    "-s4 -s3 s2 s1",
    "s1* s2* s3* s4*",
    "-s2* s1* -s4* s3*",
    "-s3* s4* s1* -s2*",
    "-s4* -s3* s2* s1*",
)


def _make_h3() -> DispersionCode:
    # The rate-3/4 block mixes real and imaginary symbol parts in single
    # entries, so it cannot be written with +-s_k tokens; the dispersion
    # matrices are given directly.  Tag 2 is 1/sqrt(2).
    a1 = ((1, 0, 0), (0, 1, 0), (0, 0, -1), (0, 0, 0))
    b1 = ((1, 0, 0), (0, -1, 0), (0, 0, 0), (0, 0, 1))
    a2 = ((0, 1, 0), (-1, 0, 0), (0, 0, 0), (0, 0, 1))
    b2 = ((0, 1, 0), (1, 0, 0), (0, 0, 1), (0, 0, 0))
    a3 = ((0, 0, 2), (0, 0, 2), (2, 2, 0), (2, -2, 0))
    b3 = ((0, 0, 2), (0, 0, 2), (-2, -2, 0), (-2, 2, 0))
    return DispersionCode(id="h3", n=3, t=4, k=3, c=1,
                          a_tags=(a1, a2, a3), b_tags=(b1, b2, b3))


# code id -> factory, called once per process behind get_code's cache
_BUILTINS = {
    "g2": lambda: _code_from_generator("g2", c=1, k=2,
                                       rows=("s1 s2", "-s2* s1*")),
    "g3": lambda: _code_from_generator("g3", c=2, k=4, rows=tuple(
        row.rsplit(maxsplit=1)[0] for row in _G4_ROWS)),
    "g4": lambda: _code_from_generator("g4", c=2, k=4, rows=_G4_ROWS),
    "h3": _make_h3,
}


def builtin_code_ids() -> tuple[str, ...]:
    return tuple(_BUILTINS)


@cache
def get_code(code_id: str) -> DispersionCode:
    """Return a built-in code by id ("g2", "g3", "g4", "h3")."""
    try:
        factory = _BUILTINS[code_id]
    except KeyError:
        raise UnknownCodeError(
            f"unknown code {code_id!r}; built-ins are {', '.join(_BUILTINS)}") from None
    return factory()


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def encode(code: DispersionCode, s) -> np.ndarray:
    """Map K complex symbols to the transmitted T x N block.

    Parameters
    ----------
    code : DispersionCode
    s : array_like, shape (K,)
        Complex symbol vector.

    Returns
    -------
    ndarray, complex, shape (T, N)
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (code.k,):
        raise ValueError(f"expected {code.k} symbols, got shape {s.shape}")
    return (np.tensordot(s.real, code.a, axes=(0, 0))
            + 1j * np.tensordot(s.imag, code.b, axes=(0, 0)))


# Gram entries are short sums of tag products, exact but for 1/sqrt(2).
_ORTHO_TOL = 1e-9


def measure_c(code: DispersionCode) -> int:
    """Read the Gram scale c off the dispersion matrices and check it.

    With C = (A_1..A_K, jB_1..jB_K), G^H G = c ||s||^2 I_N for every s iff
    C_i^H C_l + C_l^H C_i = 2c delta_il I_N (Tarokh, Jafarkhani & Calderbank,
    IEEE Trans. IT 1999), a finite exact check.  Raises OrthogonalityError,
    with the worst deviation, unless that holds for a positive integer c.
    """
    mats = np.concatenate([code.a, 1j * code.b])
    gram = np.einsum("itn,ltp->ilnp", mats.conj(), mats)
    sym = gram + gram.transpose(1, 0, 2, 3)
    c = round(sym[0, 0, 0, 0].real / 2)
    want = 2 * c * np.eye(2 * code.k)[:, :, None, None] * np.eye(code.n)
    worst = float(np.max(np.abs(sym - want)))
    if worst > _ORTHO_TOL or c < 1:
        raise OrthogonalityError(
            f"code {code.id!r} is not a scaled orthogonal design: "
            f"max deviation {worst:.3e} from integer scale c = {c}")
    return c


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
#
# code g2 N=2 T=2 K=2 c=1
# A1
# 1 0
# 0 1
# B1
# ...
#
# Entries are the exact tokens 0, 1, -1, r, -r with r = 1/sqrt(2).

_HEADER = re.compile(r"^code\s+(\S+)\s+N=(\d+)\s+T=(\d+)\s+K=(\d+)\s+c=(\d+)$")


def format_code_text(code: DispersionCode) -> str:
    lines = [f"code {code.id} N={code.n} T={code.t} K={code.k} c={code.c}"]
    for prefix, tags in (("A", code.a_tags), ("B", code.b_tags)):
        for ki, mat in enumerate(tags, start=1):
            lines.append(f"{prefix}{ki}")
            for row in mat:
                lines.append(" ".join(_TAG_TOKENS[tag] for tag in row))
    return "\n".join(lines) + "\n"


def parse_code_text(text: str) -> DispersionCode:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise CodeFormatError("empty code description")
    m = _HEADER.match(lines[0])
    if m is None:
        raise CodeFormatError(f"bad header line: {lines[0]!r}")
    cid, n, t, k, c = m.group(1), *map(int, m.groups()[1:])
    expected = [f"{p}{ki}" for p in ("A", "B") for ki in range(1, k + 1)]
    blocks: dict[str, TagMatrix] = {}
    pos = 1
    for label in expected:
        if pos >= len(lines) or lines[pos] != label:
            got = lines[pos] if pos < len(lines) else "<eof>"
            raise CodeFormatError(f"expected block {label!r}, got {got!r}")
        pos += 1
        rows = []
        for _ in range(t):
            if pos >= len(lines):
                raise CodeFormatError(f"block {label!r} is truncated")
            tokens = lines[pos].split()
            if len(tokens) != n:
                raise CodeFormatError(
                    f"block {label!r}: expected {n} entries per row, "
                    f"got {len(tokens)}")
            try:
                rows.append(tuple(_TOKEN_TAGS[tok] for tok in tokens))
            except KeyError as exc:
                raise CodeFormatError(
                    f"block {label!r}: bad entry token {exc.args[0]!r}") from None
            pos += 1
        blocks[label] = tuple(rows)
    if pos != len(lines):
        raise CodeFormatError(f"trailing content after last block: {lines[pos]!r}")
    try:
        return DispersionCode(
            id=cid, n=n, t=t, k=k, c=c,
            a_tags=tuple(blocks[f"A{ki}"] for ki in range(1, k + 1)),
            b_tags=tuple(blocks[f"B{ki}"] for ki in range(1, k + 1)))
    except ValueError as exc:
        raise CodeFormatError(str(exc)) from None


def load_code_file(path) -> DispersionCode:
    with open(path, "r", encoding="ascii") as fh:
        return parse_code_text(fh.read())


def save_code_file(code: DispersionCode, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_code_text(code))
