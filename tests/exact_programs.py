"""Exact values of compiled programs and lattice entries, for the tests.

Every value a ``Schedule`` computes is a polynomial in the channel
coefficients h and the received values y whose coefficients lie in Q(sqrt 2):
the entry tags are +-1 and +-1/sqrt(2), and the only constants are 0,
1/sqrt(2) and the code's c.  A coefficient a + b sqrt(2) is held as the pair
(a, b) of ``fractions.Fraction``, so two programs or a program and a lattice
compare exactly, where ``execute_schedule`` agrees with the matched filter
only to a rounding tolerance.

A polynomial is a dict from a monomial, the sorted tuple of its atoms, to a
nonzero coefficient.  Atoms are ("h", i), ("y", p) and ("inv", slot): DIV4's
result is opaque, one atom per DIV4 op, and stands for the reciprocal of
whatever its operand is.
"""

from fractions import Fraction

from ostbc_lab.schedule import Schedule

ZERO = Fraction(0)
# a tag's value: +-1 -> +-1, +-2 (+-1/sqrt 2) -> +-sqrt(2)/2
TAG_VALUES = {1: (Fraction(1), ZERO), -1: (Fraction(-1), ZERO),
              2: (ZERO, Fraction(1, 2)), -2: (ZERO, Fraction(-1, 2))}


def _times(u, v):
    (a, b), (c, d) = u, v
    return a * c + 2 * b * d, a * d + b * c


def constant(value) -> dict:
    """The constant polynomial of a coefficient pair (a, b)."""
    return {(): value} if value != (ZERO, ZERO) else {}


def atom(kind: str, index: int) -> dict:
    return {((kind, index),): (Fraction(1), ZERO)}


def _accumulate(out: dict, mono: tuple, value) -> None:
    """out[mono] += value in place, dropping a term that cancels."""
    a, b = out.pop(mono, (ZERO, ZERO))
    if (a + value[0], b + value[1]) != (ZERO, ZERO):
        out[mono] = (a + value[0], b + value[1])


def total(polys) -> dict:
    out: dict = {}
    for p in polys:
        for mono, value in p.items():
            _accumulate(out, mono, value)
    return out


def add(p: dict, q: dict) -> dict:
    return total((p, q))


def neg(p: dict) -> dict:
    return {mono: (-a, -b) for mono, (a, b) in p.items()}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for m1, u in p.items():
        for m2, v in q.items():
            _accumulate(out, tuple(sorted(m1 + m2)), _times(u, v))
    return out


def linform(form) -> dict:
    """A lattice entry, sum of tag x h_i over its terms."""
    return total(mul(constant(TAG_VALUES[tag]), atom("h", i))
                 for i, tag in form)


def _const(name: str) -> dict:
    # by name: matching the float RSQRT2 by value would miss by an ulp
    if name == "rsqrt2":
        return constant(TAG_VALUES[2])
    if name == "zero":
        return {}
    if name.startswith("c") and name[1:].isdigit():
        return constant((Fraction(int(name[1:])), ZERO))
    raise ValueError(f"unknown constant {name!r}")


def slot_values(sched: Schedule) -> list[dict]:
    """The exact polynomial of every slot of `sched`, by slot id."""
    values: list = [None] * len(sched.slots)
    for sid, slot in enumerate(sched.slots):
        if slot.kind in ("h", "y"):
            values[sid] = atom(slot.kind, slot.index)
        elif slot.kind == "entry":
            values[sid] = linform(slot.recipe)
        elif slot.kind == "const":
            values[sid] = _const(slot.name)
    for kind, dst, args in sched.ops:
        ins = [values[a] for a in args]
        if kind == "ADD":
            values[dst] = add(*ins)
        elif kind == "MUL":
            values[dst] = mul(*ins)
        elif kind == "NEG":
            values[dst] = neg(*ins)
        elif kind == "DIV4":
            values[dst] = atom("inv", dst)
        else:
            raise ValueError(f"unknown op {kind!r}")
    return values


def lattice_polys(sym) -> list[list[dict]]:
    """H_check of a ``SymbolicLattice`` as exact polynomials in h."""
    return [[linform(form) for form in row] for row in sym.entries]


def channel_norm(code, m: int) -> dict:
    """c ||H||_F^2 = c sum_i h_i^2 over the 2NM coefficients."""
    c = constant((Fraction(code.c), ZERO))
    return mul(c, total(mul(atom("h", i), atom("h", i))
                        for i in range(2 * code.n * m)))
