"""Tarokh's rate-3/4 H4, a held-out design read from ``h4.code``.

H4 is not a built-in, so no bench digest, ``table`` row or ``TABLE_M``
depends on it.  It checks that the library takes a design from a file as it
takes its own, and it records where the built-ins' schedule order stops.
"""

from pathlib import Path

import numpy as np
import pytest

from lattice_ref import stack_received
from ostbc_lab.codes import get_code, load_code_file, measure_c
from ostbc_lab.constellation import get_constellation
from ostbc_lab.decoders import (
    decode_F,
    decode_Fprime,
    decode_lattice,
    decode_trace,
    exhaustive_ml,
)
from ostbc_lab.lattice import build_check_H, deinterleave
from ostbc_lab.schedule import LEVELS, OpCount, generate_schedule

H4 = Path(__file__).with_name("h4.code")


@pytest.fixture(scope="module")
def h4():
    return load_code_file(H4)


def test_h4_file_is_an_orthogonal_design(h4):
    assert (h4.id, h4.n, h4.t, h4.k, h4.c) == ("h4", 4, 4, 3, 1)
    assert measure_c(h4) == 1


def test_three_antenna_designs_are_four_antenna_ones_cut(h4):
    # Tarokh, Jafarkhani & Calderbank: G3 is G4 and H3 is H4 on their first
    # three antennas
    for small, big in ((get_code("g3"), get_code("g4")), (get_code("h3"), h4)):
        for tags, big_tags in ((small.a_tags, big.a_tags),
                               (small.b_tags, big.b_tags)):
            assert tags == tuple(tuple(row[:3] for row in mat)
                                 for mat in big_tags)


@pytest.mark.parametrize("m, want", [
    (1, ((66, 49), (68, 65), (68, 65))),
    (2, ((122, 105), (124, 137), (124, 137))),
])
def test_h4_counts_frozen(h4, m, want):
    counts = tuple(generate_schedule(h4, m, lv).count for lv in LEVELS)
    assert counts == tuple(OpCount(*c) for c in want)
    # unlike on every built-in, the sparse levels cost more than L0 here
    c0, c1, c2 = counts
    assert c1.rm > c0.rm and c2.rm > c0.rm


def test_h4_routes_and_exhaustive_agree(h4):
    const, m = get_constellation("16qam"), 2
    rng = np.random.default_rng(53)
    for _ in range(300):
        ch = (rng.standard_normal((h4.n, m))
              + 1j * rng.standard_normal((h4.n, m))) / np.sqrt(2.0)
        lat = build_check_H(h4, ch)
        x = const.component_alphabet[rng.integers(0, const.levels, 2 * h4.k)]
        yv = lat.hcheck @ x + 0.3 * rng.standard_normal(2 * m * h4.t)
        _, dec = decode_lattice(lat, yv, const)
        ml, _ = exhaustive_ml(lat, yv, const)
        np.testing.assert_array_equal(ml.indices, dec.indices)
        y_block = deinterleave(yv).reshape(h4.t, m, order="F")
        z, zprime = stack_received(y_block)
        for _, other in (decode_trace(h4, ch, y_block, const),
                         decode_F(h4, ch, z, const),
                         decode_Fprime(h4, ch, zprime, const)):
            np.testing.assert_array_equal(other.indices, dec.indices)
