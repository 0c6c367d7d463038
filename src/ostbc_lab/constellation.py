"""Square QAM constellations with unit average symbol energy.

A constellation here is separable: the complex alphabet is the Cartesian
product of one real amplitude alphabet used independently for the in-phase
and quadrature components.  That separability is what lets maximum-likelihood
decoding of an orthogonal design reduce to per-component nearest-point
quantization.

Component amplitudes are the odd integers -(n-1)..(n-1) scaled so the average
complex symbol energy is exactly 1 (e.g. +-1/sqrt(2) for 4-QAM, {+-1, +-3}/
sqrt(10) for 16-QAM).  Bit labels are binary-reflected Gray codes applied per
component, so adjacent amplitudes differ in one bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .codes import _integer

__all__ = [
    "Constellation",
    "ConstellationError",
    "get_constellation",
    "constellation_names",
    "quantize_indices",
]


class ConstellationError(ValueError):
    """Unknown or unsupported (non-separable) constellation."""


@dataclass(frozen=True)
class Constellation:
    """A square QAM alphabet.

    Attributes
    ----------
    name : str
    levels : int
        Amplitudes per real dimension (sqrt of the constellation size).
    component_alphabet : ndarray, shape (levels,)
        Strictly ascending real amplitudes, unit average symbol energy.
    gray : ndarray, shape (levels,)
        Gray bit label of each amplitude index.
    bits_per_symbol : int
    """

    name: str
    levels: int
    component_alphabet: np.ndarray
    gray: np.ndarray
    bits_per_symbol: int

    @property
    def size(self) -> int:
        return self.levels ** 2

    def point(self, index: int) -> complex:
        """Complex symbol for index = re_index * levels + im_index, an index
        in [0, size)."""
        index = _integer("symbol index", index)
        if not 0 <= index < self.size:
            raise ValueError(f"symbol index {index} outside [0, {self.size})")
        re_i, im_i = divmod(index, self.levels)
        a = self.component_alphabet
        return complex(a[re_i], a[im_i])


def _square_qam(name: str, levels: int) -> Constellation:
    amps = np.arange(-(levels - 1), levels, 2, dtype=float)
    scale = math.sqrt(2.0 * float(np.mean(amps ** 2)))
    alphabet = amps / scale
    alphabet.setflags(write=False)
    gray = np.array([i ^ (i >> 1) for i in range(levels)])
    gray.setflags(write=False)
    bits = 2 * int(round(math.log2(levels)))
    return Constellation(name=name, levels=levels, component_alphabet=alphabet,
                         gray=gray, bits_per_symbol=bits)


_REGISTRY = {
    "4qam": lambda: _square_qam("4qam", 2),
    "16qam": lambda: _square_qam("16qam", 4),
}


def constellation_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


@cache
def get_constellation(name: str) -> Constellation:
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConstellationError(
            f"unknown constellation {name!r}; separable square QAM only "
            f"({', '.join(_REGISTRY)})") from None
    return factory()


def _midpoints(alphabet: np.ndarray) -> np.ndarray:
    alphabet = np.asarray(alphabet, dtype=float)
    if alphabet.ndim != 1 or alphabet.size == 0:
        raise ValueError("alphabet must be a nonempty 1-D array")
    if alphabet.size > 1 and not np.all(np.diff(alphabet) > 0):
        raise ValueError("alphabet must be strictly ascending")
    return (alphabet[:-1] + alphabet[1:]) / 2.0


def quantize_indices(z, alphabet) -> np.ndarray:
    """Indices of the nearest alphabet points to z; exact midpoints resolve
    to the lower index.

    The index of z is the number of midpoints below it, counted with one
    comparison per midpoint; that is bit for bit
    ``np.searchsorted(mids, z, side="left")`` (NaN maps to the last index,
    and a scalar z gives a scalar), at a few comparisons per value instead
    of a binary search.
    """
    z = np.asarray(z, dtype=float)
    idx = np.zeros(z.shape, dtype=np.intp)
    for mid in _midpoints(alphabet):
        # not (z <= mid), so that NaN counts every midpoint as below it
        idx += ~(z <= mid)
    return idx if idx.ndim else idx[()]
