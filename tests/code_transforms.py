"""Structure-preserving transforms of dispersion codes, shared by the tests.

G(s) -> diag(row_sign) G(s) P diag(col_sign), a signed permutation of the
transmit antennas and a sign flip of each time slot, keeps G^H G, so the
twin is an orthogonal design with the code's c.  It moves every entry to
other channel indices and signs while keeping each entry's number of terms.
"""

from dataclasses import replace

from hypothesis import strategies as st


def signed_twin(code, perm, col_sign, row_sign):
    """`code` with every dispersion matrix taken to
    diag(row_sign) X P diag(col_sign), P the column permutation `perm`."""

    def transform(mats):
        return tuple(tuple(tuple(row_sign[t] * col_sign[l] * mat[t][perm[l]]
                                 for l in range(code.n))
                           for t in range(code.t)) for mat in mats)

    return replace(code, a_tags=transform(code.a_tags),
                   b_tags=transform(code.b_tags))


def _signs(size):
    return st.lists(st.sampled_from((1, -1)), min_size=size, max_size=size)


@st.composite
def signed_twins(draw, code):
    """Hypothesis strategy: ``signed_twin`` of `code` under a drawn column
    permutation, column signs and row signs."""
    return signed_twin(code, draw(st.permutations(range(code.n))),
                       draw(_signs(code.n)), draw(_signs(code.t)))
