"""Reference forms of the real lattice's values, shared by the tests.

``linform_value`` evaluates one symbolic H_check entry term by term, the
loop that ``evaluate_lattice_batch`` and the schedule planner must match bit
for bit, and ``entries_value`` a whole H_check from the lattice's entries
with it, independently of the cached term table.  ``stack_received`` gives
the complex decode routes their inputs.
"""

import numpy as np

from ostbc_lab.codes import _TAG_VALUES
from ostbc_lab.lattice import LinForm


def linform_value(form: LinForm, h: np.ndarray) -> np.ndarray:
    """Evaluate one entry at coefficient vectors h (..., 2NM), terms in
    stored order."""
    acc = np.zeros(h.shape[:-1])
    for idx, tag in form:
        acc = acc + _TAG_VALUES[tag] * h[..., idx]
    return acc


def entries_value(sym, h: np.ndarray) -> np.ndarray:
    """H_check (B, 2MT, 2K) at a (B, 2NM) batch h, each entry of
    ``sym.entries`` summed by ``linform_value`` in stored order."""
    out = np.empty((h.shape[0], sym.rows, sym.cols))
    for p, row in enumerate(sym.entries):
        for j, form in enumerate(row):
            out[:, p, j] = linform_value(form, h)
    return out


def stack_received(y_block):
    """T x M received block -> (z, zprime): z = vec(Y), the columns stacked,
    and zprime = (Re z; Im z)."""
    z = np.asarray(y_block, dtype=complex).ravel(order="F")
    return z, np.concatenate([z.real, z.imag])
