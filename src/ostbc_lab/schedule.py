"""Real-operation schedules for the matched-filter decode.

``generate_schedule`` compiles z = Hc^T ycheck / sigma for one code and
receive-antenna count into a flat single-assignment program over real
scalars, at one of three optimization levels:

* L0 -- stored-matrix baseline.  Hc is a dense 2MT x 2K array of precomputed
  reals bound as inputs; every output is a full-length inner product,
  structural zeros included, and sigma is the squared norm of the first
  lattice column.  The counts collapse to ``formula_column_sigma``.
* L1 -- structural zeros are skipped, a scalar common to a whole column
  (the 1/sqrt(2) of the rate-3/4 designs) is factored out and applied once
  after accumulation, and composite entries form their channel-coefficient
  combination with explicit ADDs, one formation per entry.  sigma switches
  to c ||H||^2 over the 2MN raw coefficients.
* L2 -- L1 plus coefficient grouping inside each column: entries sharing one
  core combination up to sign pre-sum their y operands (signed) and multiply
  once, and a composite combination is formed once per group.  Pre-sum ADDs
  replace merge ADDs one for one, so L1 and L2 report equal addition counts.

Combinations are local to their column: a core like h1+h3 appearing in two
columns is formed in each, never cached across outputs.

Cost model: MUL = 1 RM, ADD = 1 RA, NEG free, DIV4 (scalar reciprocal,
standing in for a real division) = 4 RM.  Subtraction is ADD of a NEG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .codes import DispersionCode, RSQRT2
from .lattice import LinForm, SymbolicLattice, build_symbolic_lattice, \
    linform_value

__all__ = [
    "Op",
    "Slot",
    "Schedule",
    "OpCount",
    "LEVELS",
    "generate_schedule",
    "count_ops",
    "execute_schedule",
    "dump_schedule",
    "formula_column_sigma",
    "formula_channel_sigma",
]

LEVELS = (0, 1, 2)


class OpCount(NamedTuple):
    """Real-operation tally: rm multiplications, ra additions."""

    rm: int
    ra: int


@dataclass(frozen=True)
class Op:
    """One scalar operation; args are slot ids, dst is a fresh slot."""

    kind: str  # "ADD" | "MUL" | "NEG" | "DIV4"
    dst: int
    args: tuple[int, ...]


@dataclass(frozen=True)
class Slot:
    """A named scalar: input (h/y/entry), constant, or computed temp.

    Entry slots carry the linear form over h that yields their value; the
    executor evaluates it at bind time and the cost model charges nothing,
    matching a receiver that stores the lattice matrix.
    """

    name: str
    kind: str  # "h" | "y" | "entry" | "const" | "temp"
    index: int = -1
    recipe: LinForm | None = None
    value: float = 0.0


@dataclass(frozen=True)
class Schedule:
    """Immutable compiled decode program."""

    code_id: str
    m: int
    level: int
    n_h: int
    n_y: int
    slots: tuple[Slot, ...]
    ops: tuple[Op, ...]
    outputs: tuple[int, ...]
    sigma_slot: int
    sigma_inv_slot: int

    @property
    def count(self) -> OpCount:
        return count_ops(self)


def _coerce_level(level) -> int:
    if isinstance(level, str):
        text = level.strip().lower().lstrip("l")
        if text.isdigit():
            level = int(text)
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS} (or 'L0'..'L2')")
    return int(level)


class _Builder:
    """Accumulates slots and ops; interns inputs and constants."""

    def __init__(self) -> None:
        self.slots: list[Slot] = []
        self.ops: list[Op] = []
        self._interned: dict[tuple, int] = {}
        self._temps = 0

    def _new(self, slot: Slot) -> int:
        self.slots.append(slot)
        return len(self.slots) - 1

    def _intern(self, key: tuple, slot: Slot) -> int:
        if key not in self._interned:
            self._interned[key] = self._new(slot)
        return self._interned[key]

    def h(self, i: int) -> int:
        return self._intern(("h", i), Slot(f"h{i + 1}", "h", index=i))

    def y(self, i: int) -> int:
        return self._intern(("y", i), Slot(f"y{i + 1}", "y", index=i))

    def entry(self, p: int, j: int, form: LinForm) -> int:
        return self._intern(("e", p, j),
                            Slot(f"e{p + 1}_{j + 1}", "entry", recipe=form))

    def const(self, name: str, value: float) -> int:
        return self._intern(("const", name), Slot(name, "const", value=value))

    def rsqrt2(self) -> int:
        return self.const("rsqrt2", RSQRT2)

    def emit(self, kind: str, *args: int) -> int:
        dst = self._new(Slot(f"t{self._temps + 1}", "temp"))
        self._temps += 1
        self.ops.append(Op(kind, dst, args))
        return dst

    def add(self, a: int, b: int) -> int:
        return self.emit("ADD", *sorted((a, b)))

    def mul(self, a: int, b: int) -> int:
        return self.emit("MUL", *sorted((a, b)))

    def neg(self, a: int) -> int:
        return self.emit("NEG", a)

    def div4(self, a: int) -> int:
        return self.emit("DIV4", a)

    def sum_chain(self, slots: list[int]) -> int:
        if not slots:
            return self.const("zero", 0.0)
        acc = slots[0]
        for s in slots[1:]:
            acc = self.add(acc, s)
        return acc

    def signed_sum(self, pairs: list[tuple[int, int]]) -> int:
        """Sum of +-operands with exactly len(pairs)-1 ADDs; NEG is free."""
        pos = [s for sign, s in pairs if sign > 0]
        neg = [s for sign, s in pairs if sign < 0]
        if not neg:
            return self.sum_chain(pos)
        nacc = self.neg(self.sum_chain(neg))
        if not pos:
            return nacc
        return self.add(self.sum_chain(pos), nacc)


def _decompose(form: LinForm) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Split an entry into (root, core).

    root is True when every term carries the 1/sqrt(2) magnitude; the core
    then holds bare signs.  Otherwise the core keeps the raw tags and any
    root-tagged term is scaled inline.
    """
    if form and all(abs(tag) == 2 for _, tag in form):
        return True, tuple((i, 1 if tag > 0 else -1) for i, tag in form)
    return False, form


def _canonical(core):
    """Flip signs so the first coefficient is positive; return (core, sign)."""
    if core and core[0][1] < 0:
        return tuple((i, -c) for i, c in core), -1
    return core, 1


def _emit_core(b: _Builder, core, scale_after: bool) -> int:
    pairs = []
    for i, coef in core:
        s = b.h(i)
        if abs(coef) == 2:
            s = b.mul(b.rsqrt2(), s)
        pairs.append((1 if coef > 0 else -1, s))
    slot = b.signed_sum(pairs)
    if scale_after:
        slot = b.mul(b.rsqrt2(), slot)
    return slot


def _columns_dense(b: _Builder, sym: SymbolicLattice) -> list[int]:
    ybar = []
    for j in range(sym.cols):
        prods = [b.mul(b.entry(p, j, sym.entries[p][j]), b.y(p))
                 for p in range(sym.rows)]
        ybar.append(b.sum_chain(prods))
    return ybar


def _columns_sparse(b: _Builder, sym: SymbolicLattice, group: bool) -> list[int]:
    ybar = []
    for j in range(sym.cols):
        items = []
        for p in range(sym.rows):
            form = sym.entries[p][j]
            if form:
                root, core = _decompose(form)
                items.append((p, root, core))
        column_r = bool(items) and all(root for _, root, _ in items)
        # ungrouped (L1) is grouping with one row per group
        occ: dict[tuple, list[tuple[int, int]]] = {}
        for p, root, core in items:
            core, sign = _canonical(core)
            key = (root and not column_r, core, None if group else p)
            occ.setdefault(key, []).append((p, sign))
        prods = []
        for (scaled, core, _), uses in occ.items():
            core_slot = _emit_core(b, core, scaled)
            osum = b.signed_sum([(sign, b.y(p)) for p, sign in uses])
            prods.append(b.mul(core_slot, osum))
        acc = b.sum_chain(prods)
        if column_r:
            acc = b.mul(b.rsqrt2(), acc)
        ybar.append(acc)
    return ybar


def _sigma_column(b: _Builder, sym: SymbolicLattice) -> int:
    squares = []
    for p in range(sym.rows):
        e = b.entry(p, 0, sym.entries[p][0])
        squares.append(b.mul(e, e))
    return b.sum_chain(squares)


def _sigma_channel(b: _Builder, code: DispersionCode, m: int) -> int:
    squares = [b.mul(b.h(i), b.h(i)) for i in range(2 * code.n * m)]
    acc = b.sum_chain(squares)
    if code.c > 1:
        acc = b.mul(b.const(f"c{code.c}", float(code.c)), acc)
    return acc


def generate_schedule(code: DispersionCode, m: int, level=2) -> Schedule:
    """Compile the decode of `code` with m receive antennas at one level."""
    level = _coerce_level(level)
    if m < 1:
        raise ValueError("m must be >= 1")
    sym = build_symbolic_lattice(code, m)
    b = _Builder()
    if level == 0:
        ybar = _columns_dense(b, sym)
        sigma = _sigma_column(b, sym)
    else:
        ybar = _columns_sparse(b, sym, group=(level == 2))
        sigma = _sigma_channel(b, code, m)
    sigma_inv = b.div4(sigma)
    outputs = tuple(b.mul(y, sigma_inv) for y in ybar)
    return Schedule(code_id=code.id, m=m, level=level,
                    n_h=2 * code.n * m, n_y=2 * m * code.t,
                    slots=tuple(b.slots), ops=tuple(b.ops),
                    outputs=outputs, sigma_slot=sigma,
                    sigma_inv_slot=sigma_inv)


def count_ops(sched: Schedule) -> OpCount:
    rm = ra = 0
    for op in sched.ops:
        if op.kind == "MUL":
            rm += 1
        elif op.kind == "DIV4":
            rm += 4
        elif op.kind == "ADD":
            ra += 1
    return OpCount(rm, ra)


def execute_schedule(sched: Schedule, h, ycheck) -> np.ndarray:
    """Run the program on channel coefficients h and received ycheck.

    Both accept a leading batch dimension; (2MN,) and (B, 2MN) h shapes
    pair with (2MT,) and (B, 2MT) ycheck.
    """
    h = np.asarray(h, dtype=float)
    yv = np.asarray(ycheck, dtype=float)
    if h.shape[-1] != sched.n_h:
        raise ValueError(f"h has {h.shape[-1]} coefficients, need {sched.n_h}")
    if yv.shape[-1] != sched.n_y:
        raise ValueError(f"ycheck has {yv.shape[-1]} values, need {sched.n_y}")
    vals: list = [None] * len(sched.slots)
    for sid, slot in enumerate(sched.slots):
        if slot.kind == "h":
            vals[sid] = h[..., slot.index]
        elif slot.kind == "y":
            vals[sid] = yv[..., slot.index]
        elif slot.kind == "const":
            vals[sid] = slot.value
        elif slot.kind == "entry":
            vals[sid] = linform_value(slot.recipe, h)
    for op in sched.ops:
        a = vals[op.args[0]]
        if a is None:
            raise RuntimeError(f"unbound slot {sched.slots[op.args[0]].name}")
        if op.kind == "ADD":
            vals[op.dst] = a + vals[op.args[1]]
        elif op.kind == "MUL":
            vals[op.dst] = a * vals[op.args[1]]
        elif op.kind == "NEG":
            vals[op.dst] = -a
        elif op.kind == "DIV4":
            vals[op.dst] = 1.0 / a
        else:
            raise RuntimeError(f"unknown op kind {op.kind!r}")
    return np.stack(np.broadcast_arrays(*(vals[i] for i in sched.outputs)),
                    axis=-1)


def _render_form(form: LinForm) -> str:
    if not form:
        return "0"
    parts = []
    for i, tag in form:
        sign = "-" if tag < 0 else ("+" if parts else "")
        mag = f"r*h{i + 1}" if abs(tag) == 2 else f"h{i + 1}"
        parts.append(sign + mag)
    return "".join(parts)


def dump_schedule(sched: Schedule) -> str:
    """Text form: header, one op per line, count trailer."""
    names = {sid: f"z{j + 1}" for j, sid in enumerate(sched.outputs)}
    names[sched.sigma_slot] = "sigma"
    names[sched.sigma_inv_slot] = "sigma_inv"

    def name(sid: int) -> str:
        return names.get(sid, sched.slots[sid].name)

    lines = [f"schedule {sched.code_id} M={sched.m} level=L{sched.level}"]
    for slot in sched.slots:
        if slot.kind == "entry":
            lines.append(f"# {slot.name} = {_render_form(slot.recipe)}")
    for op in sched.ops:
        operands = " ".join(name(a) for a in op.args)
        lines.append(f"{op.kind} {name(op.dst)} <- {operands}")
    rm, ra = count_ops(sched)
    lines.append(f"count RM={rm} RA={ra}")
    return "\n".join(lines) + "\n"


def formula_column_sigma(k: int, m: int, t: int) -> OpCount:
    """Dense-decode closed form with sigma from a length-2MT lattice column."""
    if min(k, m, t) < 1:
        raise ValueError("arguments must be positive")
    return OpCount(4 * k * m * t + 2 * m * t + 2 * k + 4,
                   4 * k * m * t + 2 * m * t - 2 * k - 1)


def formula_channel_sigma(k: int, m: int, t: int, n: int) -> OpCount:
    """Dense-decode closed form with sigma from the 2MN channel coefficients."""
    if min(k, m, t, n) < 1:
        raise ValueError("arguments must be positive")
    return OpCount(4 * k * m * t + 2 * m * n + 2 * k + 4,
                   4 * k * m * t + 2 * m * n - 2 * k - 1)
