"""Compiled programs and lattices checked exactly, over Q(sqrt 2).

``execute_schedule`` matches the lattice matched filter to a rounding
tolerance and the golden text freezes each program's form; neither proves
what a program computes.  Here each program's outputs are shown to be
(sum_p Hc[p, j](h) y_p) / sigma as polynomials, with Hc taken from the
symbolic lattice, and the lattice itself to satisfy Hc^T Hc = c ||h||^2 I
exactly, which ``verify_lattice`` checks only to 1e-9.  H4 is read from
``h4.code``: none of the schedule's rules were derived from it.
"""

from pathlib import Path

import pytest

from exact_programs import atom, channel_norm, lattice_polys, mul, \
    slot_values, total
from ostbc_lab.codes import builtin_code_ids, get_code, load_code_file
from ostbc_lab.lattice import build_symbolic_lattice
from ostbc_lab.schedule import LEVELS, generate_schedule

CODES = {**{cid: get_code(cid) for cid in builtin_code_ids()},
         "h4": load_code_file(Path(__file__).with_name("h4.code"))}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("cid", CODES)
def test_program_is_the_matched_filter_exactly(cid, m, level):
    code = CODES[cid]
    sched = generate_schedule(code, m, level)
    hc = lattice_polys(build_symbolic_lattice(code, m))
    values = slot_values(sched)
    # one reciprocal, of sigma, scales every output
    assert ("DIV4", sched.sigma_inv_slot, (sched.sigma_slot,)) in sched.ops
    inv = atom("inv", sched.sigma_inv_slot)
    for j, out in enumerate(sched.outputs):
        ybar = total(mul(row[j], atom("y", p)) for p, row in enumerate(hc))
        assert values[out] == mul(ybar, inv), f"z{j + 1}"
    sigma = total(mul(row[0], row[0]) for row in hc) if level == 0 \
        else channel_norm(code, m)
    assert values[sched.sigma_slot] == sigma


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("cid", CODES)
def test_lattice_gram_is_exactly_scaled_identity(cid, m):
    code = CODES[cid]
    hc = lattice_polys(build_symbolic_lattice(code, m))
    norm = channel_norm(code, m)
    for j in range(2 * code.k):
        for k in range(j, 2 * code.k):
            gram = total(mul(row[j], row[k]) for row in hc)
            assert gram == (norm if j == k else {}), (j, k)
