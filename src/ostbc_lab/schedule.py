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
``_KINDS`` holds each kind's ufunc, operand count and cost, and both
``count_ops`` and the executor read it, so an op the executor rejects
raises the same error when counted.

Representation: ``Op`` and ``Slot`` are ``typing.NamedTuple``s, immutable
and hashable; derive a changed copy with ``op._replace(...)``, since
``dataclasses.replace`` does not accept them.  The builder makes one ``Op``
per emitted op, built straight from ``tuple.__new__``.  Temp slots are
shared value objects: temp t<k> is the same ``Slot`` in every schedule, so
the builder appends the module's k-th temp instead of making one per op.
``Schedule`` is a frozen dataclass holding tuples of them.

Execution: on its first ``execute_schedule`` a schedule is compiled once
into a register plan by a linear scan over its ops (Poletto & Sarkar,
"Linear Scan Register Allocation", TOPLAS 21(5), 1999).  Every temp and
entry slot gets a register, which returns to a free list after the last op
that reads it; outputs stay live to the end.  An entry slot is bound just
before its first use, not up front, as 0.0 plus each term in stored order:
a +-1-tag term is one ADD or SUB of its h column from the running sum (IEEE
defines a - b as a + (-b), signed zeros included), and a +-1/sqrt(2)-tag
term a MUL by the tag, then an ADD.  Plan constants are NumPy float64
scalars.  Each call then allocates one (``Schedule.registers``, *batch)
float64 block and runs every step as one NumPy ufunc writing into its
register, reading h and ycheck as contiguous (n, *batch) columns.  Peak
memory is about registers x B x 8 bytes plus the inputs, their column
copies and the output.  The outputs are bit for bit those of evaluating the
ops one by one in program order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .codes import _TAG_VALUES, DispersionCode, RSQRT2
from .lattice import LinForm, SymbolicLattice, _require_real, \
    build_symbolic_lattice

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


class Op(NamedTuple):
    """One scalar operation; args are slot ids, dst is a fresh slot."""

    kind: str  # a key of _KINDS: "ADD" | "MUL" | "NEG" | "DIV4"
    dst: int
    args: tuple[int, ...]


class Slot(NamedTuple):
    """A named scalar: input (h/y/entry), constant, or computed temp.

    Entry slots carry the linear form over h that yields their value; the
    executor evaluates it just before its first use and the cost model
    charges nothing, matching a receiver that stores the lattice matrix.
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

    @cached_property
    def count(self) -> OpCount:
        return count_ops(self)

    @property
    def registers(self) -> int:
        """Rows of the (registers, *batch) block ``execute_schedule`` uses."""
        return self._plan.registers

    @cached_property
    def _plan(self) -> _Plan:
        return _compile_plan(self)


def _coerce_level(level) -> int:
    if isinstance(level, str):
        text = level.strip().lower().lstrip("l")
        if text.isdigit():
            level = int(text)
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS} (or 'L0'..'L2')")
    return int(level)


# Op without the NamedTuple's Python-level __new__: Op is built once per
# emitted op, and this makes the same tuple in about 60% of the time.
_new_op = partial(tuple.__new__, Op)

# _TEMPS[k] is temp slot t<k+1>.  A temp slot holds no value of its own, so
# every schedule shares these objects; the list grows under the lock so that
# builders on several threads cannot misnumber it.
_TEMPS: list[Slot] = []
_TEMPS_LOCK = threading.Lock()


def _temp(k: int) -> Slot:
    with _TEMPS_LOCK:
        while len(_TEMPS) <= k:
            _TEMPS.append(Slot(f"t{len(_TEMPS) + 1}", "temp"))
    return _TEMPS[k]


class _Builder:
    """Accumulates slots and ops; interns inputs and constants.

    Every op writes the next temp slot, so temp t<k> is the k-th op's dst.
    """

    def __init__(self) -> None:
        self.slots: list[Slot] = []
        self.ops: list[Op] = []
        self._interned: dict[tuple, int] = {}

    def _intern(self, key: tuple, *fields) -> int:
        """Add Slot(*fields) under key; callers have looked key up."""
        sid = self._interned[key] = len(self.slots)
        self.slots.append(Slot(*fields))
        return sid

    def h(self, i: int) -> int:
        sid = self._interned.get(("h", i))
        if sid is None:
            sid = self._intern(("h", i), f"h{i + 1}", "h", i)
        return sid

    def y(self, i: int) -> int:
        sid = self._interned.get(("y", i))
        if sid is None:
            sid = self._intern(("y", i), f"y{i + 1}", "y", i)
        return sid

    def entry(self, p: int, j: int, form: LinForm) -> int:
        sid = self._interned.get(("e", p, j))
        if sid is None:
            sid = self._intern(("e", p, j), f"e{p + 1}_{j + 1}", "entry", -1,
                               form)
        return sid

    def const(self, name: str, value: float) -> int:
        sid = self._interned.get(("const", name))
        if sid is None:
            sid = self._intern(("const", name), name, "const", -1, None, value)
        return sid

    def rsqrt2(self) -> int:
        return self.const("rsqrt2", RSQRT2)

    def emit(self, kind: str, args: tuple[int, ...]) -> int:
        slots, ops = self.slots, self.ops
        dst, k = len(slots), len(ops)
        slots.append(_TEMPS[k] if k < len(_TEMPS) else _temp(k))
        ops.append(_new_op((kind, dst, args)))
        return dst

    # ADD and MUL commute; their operands are stored in ascending order.
    def add(self, a: int, b: int) -> int:
        return self.emit("ADD", (a, b) if a <= b else (b, a))

    def mul(self, a: int, b: int) -> int:
        return self.emit("MUL", (a, b) if a <= b else (b, a))

    def neg(self, a: int) -> int:
        return self.emit("NEG", (a,))

    def div4(self, a: int) -> int:
        return self.emit("DIV4", (a,))

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
    sym = build_symbolic_lattice(code, m)
    m = sym.m
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


# The instruction set, read by count_ops and the planner alike: each op
# kind's (ufunc, operand count, RM, RA).
_KINDS = {"ADD": (np.add, 2, 0, 1), "MUL": (np.multiply, 2, 1, 0),
          "NEG": (np.negative, 1, 0, 0), "DIV4": (np.divide, 1, 4, 0)}


def _unknown_op(kind: str, args: tuple[int, ...]) -> RuntimeError:
    return RuntimeError(f"unknown op {kind!r} of {len(args)} operands")


def count_ops(sched: Schedule) -> OpCount:
    rm = ra = 0
    for kind, _, args in sched.ops:
        spec = _KINDS.get(kind)
        if spec is None or spec[1] != len(args):
            raise _unknown_op(kind, args)
        rm += spec[2]
        ra += spec[3]
    return OpCount(rm, ra)


class _Plan(NamedTuple):
    """A schedule laid out on a register file.

    Operands index one per-call table: the n_h h columns, the n_y ycheck
    columns, ``consts``, then the rows of the register block in reverse, so
    that register r is operand ~r.  A step is (ufunc, a, b, out); b is None
    for NEG, and DIV4 divides the constant 1.0 by a.
    """

    registers: int
    consts: tuple[np.float64, ...]
    steps: tuple[tuple, ...]
    outputs: tuple[int, ...]


def _compile_plan(sched: Schedule) -> _Plan:
    """Linear-scan register allocation over the single-assignment ops.

    A slot's register is freed after the last op that reads it, outputs
    excepted, and a temp may take a register its own operands free.  An
    entry slot is bound just before the first op that reads it, as
    ``linform_value`` sums it: 0.0 plus each term in stored order.
    """
    ops, slots = sched.ops, sched.slots
    end = len(ops)
    last = [end] * len(slots)  # index of the op that reads a slot last
    for k, op in enumerate(ops):
        for a in op.args:
            last[a] = k
    for o in sched.outputs:
        last[o] = end  # past every op, so never freed
    inputs = {"h": (0, sched.n_h), "y": (sched.n_h, sched.n_y)}
    consts: dict = {}
    bound: list[int | None] = [None] * len(slots)  # operand of each slot
    free: list[int] = []
    steps: list[tuple] = []
    registers = 0

    def const(key, value: float) -> int:
        """Operand of a constant; key is a const slot id or a str."""
        if key not in consts:
            consts[key] = (len(consts), np.float64(value))
        return sched.n_h + sched.n_y + consts[key][0]

    def alloc() -> int:
        nonlocal registers
        if free:
            return free.pop()
        registers += 1
        return -registers

    def bind_entry(name: str, form: LinForm) -> int:
        acc = const("zero", 0.0)
        for i, tag in form:
            if not 0 <= i < sched.n_h:
                raise RuntimeError(f"slot {name} reads h index {i} of "
                                   f"{sched.n_h}")
            t = alloc()
            if abs(tag) == 1:  # acc - h is acc + (-1.0 * h) exactly
                steps.append((np.add if tag == 1 else np.subtract, acc, i, t))
            else:
                steps.append((np.multiply, i,
                              const(f"tag{tag}", _TAG_VALUES[tag]), t))
                steps.append((np.add, acc, t, t))
            if acc < 0:
                free.append(acc)
            acc = t
        return acc

    def bind(sid: int) -> int:
        name, kind, index, recipe, value = slots[sid]
        if kind in inputs:
            first, n = inputs[kind]
            if not 0 <= index < n:
                raise RuntimeError(f"slot {name} reads {kind} index {index} "
                                   f"of {n}")
            r = first + index
        elif kind == "const":
            r = const(sid, value)
        elif kind == "entry":
            r = bind_entry(name, recipe)
        else:
            raise RuntimeError(f"unbound slot {name}")
        bound[sid] = r
        return r

    for k, (kind, dst, args) in enumerate(ops):
        spec = _KINDS.get(kind)
        if spec is None or spec[1] != len(args):
            raise _unknown_op(kind, args)
        a = args[0]
        x = bound[a]
        if x is None:
            x = bind(a)
        y = None
        if len(args) == 2:
            b = args[1]
            y = bound[b]
            if y is None:
                y = bind(b)
            if last[b] == k:
                last[b] = end  # so that a repeated operand is freed once
                if y < 0:
                    free.append(y)
        if last[a] == k:
            last[a] = end
            if x < 0:
                free.append(x)
        if kind == "DIV4":
            x, y = const("one", 1.0), x
        bound[dst] = out = alloc()
        steps.append((spec[0], x, y, out))
    outputs = tuple(bind(o) if bound[o] is None else bound[o]
                    for o in sched.outputs)
    return _Plan(registers, tuple(value for _, value in consts.values()),
                 tuple(steps), outputs)


def execute_schedule(sched: Schedule, h, ycheck) -> np.ndarray:
    """Run the program on channel coefficients h and received ycheck.

    Both accept leading batch dimensions that broadcast against each
    other, e.g. (2MN,) or (B, 2MN) h with (2MT,) or (B, 2MT) ycheck.  Both
    must be real; ``lattice.vectorize_received`` interleaves complex values.
    """
    _require_real("h", h)
    _require_real("ycheck", ycheck)
    h = np.asarray(h, dtype=float)
    yv = np.asarray(ycheck, dtype=float)
    if h.shape[-1] != sched.n_h:
        raise ValueError(f"h has {h.shape[-1]} coefficients, need {sched.n_h}")
    if yv.shape[-1] != sched.n_y:
        raise ValueError(f"ycheck has {yv.shape[-1]} values, need {sched.n_y}")
    plan = sched._plan
    regs = np.empty((plan.registers,
                     *np.broadcast_shapes(h.shape[:-1], yv.shape[:-1])))
    table = [*np.ascontiguousarray(np.moveaxis(h, -1, 0)),
             *np.ascontiguousarray(np.moveaxis(yv, -1, 0)),
             *plan.consts,
             *(regs[r, ...] for r in reversed(range(plan.registers)))]
    for f, a, b, out in plan.steps:
        if b is None:
            f(table[a], table[out])
        else:
            f(table[a], table[b], table[out])
    return np.stack(np.broadcast_arrays(*(table[o] for o in plan.outputs)),
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
