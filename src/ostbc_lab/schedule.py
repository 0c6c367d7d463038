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
columns is formed in each, never cached across outputs.  Each column's
entries, split into sign x core and grouped for L1 and for L2, are computed
once per symbolic lattice and cached on it (``_column_groups``), so a call
at L1 or L2 only emits ops.

Cost model: MUL = 1 RM, ADD = 1 RA, NEG free, DIV4 (scalar reciprocal,
standing in for a real division) = 4 RM.  Subtraction is ADD of a NEG.
``_KINDS`` holds each kind's ufunc, operand count and cost, and both
``count_ops`` and the executor read it, so an op the executor rejects
raises the same error when counted.

Representation: ``Op`` and ``Slot`` are ``typing.NamedTuple``s, immutable
and hashable; derive a changed copy with ``op._replace(...)``, since
``dataclasses.replace`` does not accept them.  The builder makes one ``Op``
per emitted op, built straight from ``tuple.__new__``; one method appends a
single op and one a whole ADD chain.  Slots are shared value objects, made
once and appended by every schedule that uses them: temp t<k>, input h<i>
and y<i> are the module's own, a constant is the module's for its name and
value (sign of zero included), and the entry slots of L0 are cached on the
symbolic lattice (``_entry_slots``).  ``Schedule`` is a frozen dataclass
holding tuples of them.

Execution: on its first ``execute_schedule`` a schedule is compiled once
into a register plan by a linear scan over its ops (Poletto & Sarkar,
"Linear Scan Register Allocation", TOPLAS 21(5), 1999).  The plan's steps
are one flat tuple, four fields a step: ufunc, two operands (the second
None for NEG and DIV4) and the destination.  An op that writes an output
writes straight into that output's row of the result block; every other
temp slot, and every entry slot of more than one term, gets a register,
which returns to a free list after the last op that reads it.  An entry
slot is bound just before its first use, not up front, as 0.0 plus each
term in stored order.  0.0 plus its first term is read from the call's
first-term table, which holds 0.0 + c h for each (tag c, h column) that
some entry starts with: 0.0 + h or 0.0 - h for c = +-1 (IEEE defines a - b
as a + (-b), signed zeros included), h times c then 0.0 plus that for
c = +-1/sqrt(2), one or two ufuncs per run of adjacent columns (one run per
tag when, as in g2, g3 and g4, a tag starts entries in every column), the
same operands in the same order as binding the term on its own.  No step
writes a table row and none is freed, so a one-term entry costs no step
and no register.  Each further term is one ADD or SUB of its h column
into the running sum, or a MUL by the tag and then an ADD.  Plan constants
are NumPy float64 scalars, handed to the ufuncs as 0-d arrays.  Each call
copies h and ycheck into C-contiguous (n, *batch) column arrays, allocates
the C-contiguous (2K, *batch) float64 result block and one float64 block
for the table's rows and the ``Schedule.registers`` registers, and runs
every step as one NumPy ufunc writing into its register or output row.  An
output that no op writes into its row (an input, an entry, a slot listed
twice) is copied there at the end.  It returns the block's (*batch, 2K)
view: the last axis is the strided one, B x 8 bytes apart for a (B,)
batch, so ``np.ascontiguousarray`` of the result makes a row-major copy.
Peak memory is about (registers + table rows + 2K) x B x 8 bytes plus the
inputs and their column copies.  The outputs are bit for bit those of
evaluating the ops one by one in program order.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .codes import _TAG_VALUES, DispersionCode, RSQRT2, _integer
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


# The level spellings a string may take, around white space.
_LEVEL_NAMES = {f"{p}{n}": n for n in LEVELS for p in ("", "L", "l")}


def _coerce_level(level) -> int:
    """level as 0, 1 or 2: an integer type (``operator.index``, so True is 1
    and 2.0 is rejected) or a string in ``_LEVEL_NAMES``."""
    try:
        level = operator.index(level)
    except TypeError:
        level = _LEVEL_NAMES.get(level.strip()) if isinstance(level, str) \
            else None
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS} (or 'L0'..'L2')")
    return level


# Op without the NamedTuple's Python-level __new__: the builder makes one
# Op per emitted op, and this makes the same tuple in about 60% of the time.
_new_op = partial(tuple.__new__, Op)

# Shared slots.  A temp, h or y slot holds no value of its own, so every
# schedule shares these objects: _TEMPS[k] is temp t<k+1> and _INPUTS["h"][i]
# is h<i+1>.  Each list grows under the lock so that builders on several
# threads cannot misnumber it.  _CONSTS holds each constant slot by its name
# and its value's hex form, which keeps 0.0 and -0.0 apart.
_TEMPS: list[Slot] = []
_INPUTS: dict[str, list[Slot]] = {"h": [], "y": []}
_CONSTS: dict[tuple[str, str], Slot] = {}
_SHARED_LOCK = threading.Lock()


def _temp(k: int) -> Slot:
    with _SHARED_LOCK:
        while len(_TEMPS) <= k:
            _TEMPS.append(Slot(f"t{len(_TEMPS) + 1}", "temp"))
    return _TEMPS[k]


def _input(kind: str, i: int) -> Slot:
    slots = _INPUTS[kind]
    with _SHARED_LOCK:
        while len(slots) <= i:
            slots.append(Slot(f"{kind}{len(slots) + 1}", kind, len(slots)))
    return slots[i]


class _Builder:
    """Accumulates slots and ops; interns inputs and constants.

    Every op writes the next temp slot, so temp t<k> is the k-th op's dst.
    ``emit`` appends one op and ``chain`` a whole ADD chain; nothing else
    appends ops.
    """

    def __init__(self) -> None:
        self.slots: list[Slot] = []
        self.ops: list[Op] = []
        self._h: dict[int, int] = {}
        self._y: dict[int, int] = {}
        self._consts: dict[str, int] = {}

    def h(self, i: int) -> int:
        sid = self._h.get(i)
        if sid is None:
            sid = self._h[i] = len(self.slots)
            self.slots.append(_input("h", i))
        return sid

    def y(self, i: int) -> int:
        sid = self._y.get(i)
        if sid is None:
            sid = self._y[i] = len(self.slots)
            self.slots.append(_input("y", i))
        return sid

    def const(self, name: str, value: float) -> int:
        sid = self._consts.get(name)
        if sid is None:
            sid = self._consts[name] = len(self.slots)
            key = (name, value.hex())
            self.slots.append(_CONSTS.get(key) or _CONSTS.setdefault(
                key, Slot(name, "const", value=value)))
        return sid

    def rsqrt2(self) -> int:
        return self.const("rsqrt2", RSQRT2)

    def emit(self, kind: str, a: int, b: int | None = None) -> int:
        """Append one op on a (and b); MUL's operands are stored in
        ascending order, since it commutes."""
        slots, ops = self.slots, self.ops
        dst, k = len(slots), len(ops)
        slots.append(_TEMPS[k] if k < len(_TEMPS) else _temp(k))
        ops.append(_new_op((kind, dst, (a,) if b is None else
                            (a, b) if a <= b else (b, a))))
        return dst

    def chain(self, terms: list[int]) -> int:
        """Sum of terms by ADDs from left to right, each storing its
        operands in ascending order; the constant 0.0 if there are none."""
        n = len(terms) - 1
        if n < 1:
            return terms[0] if terms else self.const("zero", 0.0)
        slots, ops = self.slots, self.ops
        acc = terms[0]
        dst, k = len(slots), len(ops)
        if k + n > len(_TEMPS):
            _temp(k + n - 1)
        slots += _TEMPS[k:k + n]
        for s in terms[1:]:
            ops.append(_new_op(("ADD", dst, (acc, s) if acc <= s else
                                (s, acc))))
            acc = dst
            dst += 1
        return acc

    def signed_sum(self, pos: list[int], neg: list[int]) -> int:
        """sum(pos) - sum(neg) with exactly len(pos)+len(neg)-1 ADDs: the
        negated sum of neg, if any, is pos's last term.  NEG is free."""
        if neg:
            nacc = self.emit("NEG", self.chain(neg))
            if not pos:
                return nacc
            pos.append(nacc)
        return self.chain(pos)


def _emit_core(b: _Builder, core, scale_after: bool) -> int:
    pos, neg = [], []
    for i, coef in core:
        s = b.h(i)
        if abs(coef) == 2:
            s = b.emit("MUL", b.rsqrt2(), s)
        (pos if coef > 0 else neg).append(s)
    slot = b.signed_sum(pos, neg)
    if scale_after:
        slot = b.emit("MUL", b.rsqrt2(), slot)
    return slot


def _level0(b: _Builder, sym: SymbolicLattice) -> tuple[list[int], int]:
    """Dense columns, then sigma from the first column's entries.  The entry
    slots are the lattice's own, shared by its every L0 schedule."""
    slots, ybar, first = b.slots, [], []
    for j, column in enumerate(sym._entry_slots):
        prods = []
        for p, slot in enumerate(column):
            e = len(slots)
            slots.append(slot)
            if j == 0:
                first.append(e)
            prods.append(b.emit("MUL", e, b.y(p)))
        ybar.append(b.chain(prods))
    return ybar, b.chain([b.emit("MUL", e, e) for e in first])


def _columns_sparse(b: _Builder, sym: SymbolicLattice, group: bool) -> list[int]:
    ybar = []
    for column_r, groups in sym._column_groups[group]:
        prods = []
        for scaled, core, uses in groups:
            core_slot = _emit_core(b, core, scaled)
            pos, neg = [], []
            for p, sign in uses:
                (pos if sign > 0 else neg).append(b.y(p))
            prods.append(b.emit("MUL", core_slot, b.signed_sum(pos, neg)))
        acc = b.chain(prods)
        if column_r:
            acc = b.emit("MUL", b.rsqrt2(), acc)
        ybar.append(acc)
    return ybar


def _sigma_channel(b: _Builder, code: DispersionCode, m: int) -> int:
    acc = b.chain([b.emit("MUL", b.h(i), b.h(i))
                   for i in range(2 * code.n * m)])
    if code.c > 1:
        acc = b.emit("MUL", b.const(f"c{code.c}", float(code.c)), acc)
    return acc


def generate_schedule(code: DispersionCode, m: int, level=2) -> Schedule:
    """Compile the decode of `code` with m receive antennas at one level."""
    level = _coerce_level(level)
    sym = build_symbolic_lattice(code, m)
    m = sym.m
    b = _Builder()
    if level == 0:
        ybar, sigma = _level0(b, sym)
    else:
        ybar = _columns_sparse(b, sym, group=(level == 2))
        sigma = _sigma_channel(b, code, m)
    sigma_inv = b.emit("DIV4", sigma)
    outputs = tuple(b.emit("MUL", y, sigma_inv) for y in ybar)
    return Schedule(code_id=code.id, m=m, level=level,
                    n_h=2 * code.n * m, n_y=2 * m * code.t,
                    slots=tuple(b.slots), ops=tuple(b.ops),
                    outputs=outputs, sigma_slot=sigma,
                    sigma_inv_slot=sigma_inv)


# The instruction set, read by count_ops and the planner alike: each op
# kind's (ufunc, operand count, RM, RA).
_KINDS = {"ADD": (np.add, 2, 0, 1), "MUL": (np.multiply, 2, 1, 0),
          "NEG": (np.negative, 1, 0, 0), "DIV4": (np.reciprocal, 1, 4, 0)}


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
    columns, the first-term table (n_h rows per tag of ``_FIRST_TAGS``, of
    which only the runs in ``firsts`` are built), the rows of the output
    block, ``consts``, then the rows of the register block in reverse, so
    that register r is operand ~r.  A run (tag, lo, hi) is the tag's rows
    for h columns lo to hi - 1.  ``steps`` is flat, four fields a step:
    ufunc, a, b, out, b None for the one-operand kinds, NEG and DIV4.
    ``copies`` holds the (row, operand) of each output that no op writes
    into its row of the output block.
    """

    registers: int
    firsts: tuple[tuple[int, int, int], ...]
    consts: tuple[np.float64, ...]
    steps: tuple
    copies: tuple[tuple[int, int], ...]


# The planner's own constants by key; a const slot's key is its slot id.
_PLAN_CONSTS = {"zero": 0.0,
                **{f"tag{tag}": v for tag, v in _TAG_VALUES.items()}}

# Each nonzero tag's block of the first-term table, in table order.
_FIRST_TAGS = {tag: k for k, tag in enumerate(t for t in _TAG_VALUES if t)}


def _first_terms(hrows: np.ndarray, tag: int, out: np.ndarray) -> None:
    """out = 0.0 + tag x h for every h row, with the operands, in the
    order, of binding one term on its own: 0.0 + h or 0.0 - h for a +-1
    tag, h times the tag then 0.0 plus that for a +-1/sqrt(2) one."""
    if abs(tag) == 1:
        (np.add if tag == 1 else np.subtract)(0.0, hrows, out=out)
    else:
        np.multiply(hrows, _TAG_VALUES[tag], out=out)
        np.add(0.0, out, out=out)


def _compile_plan(sched: Schedule) -> _Plan:
    """Linear-scan register allocation over the single-assignment ops.

    Registers are counted down from -1: a new one is taken from the free
    list, the last freed first, else it is one below the lowest taken so
    far, and the plan's register count is minus the lowest one taken.  A
    slot's register is freed after the last op that reads it, outputs
    excepted, and a temp may take a register its own operands free.  An op
    that writes an output writes its first row of the output block instead,
    which is never freed.  An entry slot is bound just before the first op
    that reads it, summed in ``evaluate_lattice_batch``'s order: 0.0 plus
    each term in stored order.  0.0 plus its first term is a row of the
    first-term table, which no step writes and which is never freed, so a
    one-term entry costs no step and no register; only the rows read are
    built.  One loop binds, frees and allocates inline; after the last op it
    reads each output once more, so that an output no op writes is bound
    too, and copied into its row.
    """
    ops, slots, n_h, outputs = sched.ops, sched.slots, sched.n_h, \
        sched.outputs
    end = len(ops)
    last = [end] * len(slots)  # index of the op that reads a slot last
    for k, op in enumerate(ops):
        for a in op.args:
            last[a] = k
    inputs = {"h": (0, n_h), "y": (n_h, sched.n_y)}
    firsts = n_h + sched.n_y  # operand of the first-term table's first row
    rows = firsts + len(_FIRST_TAGS) * n_h  # operand of the output block
    base = rows + len(outputs)  # operand of the first constant
    home: list[int | None] = [None] * len(slots)  # output row of a slot
    for j in range(len(outputs) - 1, -1, -1):  # its first listing last
        home[outputs[j]] = rows + j
        last[outputs[j]] = end  # past every op, so never freed
    read: set[int] = set()  # the first-term rows read
    consts: dict = {}  # key -> operand, in first-use order
    bound: list[int | None] = [None] * len(slots)  # operand of each slot
    free: list[int] = []
    steps: list = []
    top = 0  # the lowest register taken
    for k, (kind, dst, args) in enumerate(
            (*ops, *[(None, -1, (o,)) for o in outputs])):
        spec = _KINDS.get(kind)
        if (spec is None or spec[1] != len(args)) and k < end:
            raise _unknown_op(kind, args)
        a = args[0]
        b = args[-1]
        x = bound[a]
        y = bound[b]
        while x is None or y is None:
            s = a if x is None else b
            name, skind, index, recipe, value = slots[s]
            if skind == "entry":
                r = None
                for i, tag in recipe:
                    if not 0 <= i < n_h:
                        raise RuntimeError(f"slot {name} reads h index {i} "
                                           f"of {n_h}")
                    if r is None:
                        r = firsts + _FIRST_TAGS[tag] * n_h + i
                        read.add(r)
                        continue
                    t = free.pop() if free else (top := top - 1)
                    if abs(tag) == 1:  # r - h is r + (-1.0 * h) exactly
                        steps += (np.add if tag == 1 else np.subtract,
                                  r, i, t)
                    else:
                        steps += (np.multiply, i, consts.setdefault(
                            f"tag{tag}", base + len(consts)), t,
                                  np.add, r, t, t)
                    if r < 0:
                        free.append(r)
                    r = t
                if r is None:
                    r = consts.setdefault("zero", base + len(consts))
            elif skind in inputs:
                first, n = inputs[skind]
                if not 0 <= index < n:
                    raise RuntimeError(f"slot {name} reads {skind} index "
                                       f"{index} of {n}")
                r = first + index
            elif skind == "const":
                r = consts.setdefault(s, base + len(consts))
            else:
                raise RuntimeError(f"unbound slot {name}")
            bound[s] = r
            x = bound[a]
            y = bound[b]
        if k >= end:
            continue
        if len(args) == 2:
            if last[b] == k:
                last[b] = end  # so that a repeated operand is freed once
                if y < 0:
                    free.append(y)
        else:
            y = None
        if last[a] == k:
            last[a] = end
            if x < 0:
                free.append(x)
        out = home[dst]
        if out is None:
            out = free.pop() if free else (top := top - 1)
        bound[dst] = out
        steps += (spec[0], x, y, out)
    tags = tuple(_FIRST_TAGS)
    runs: list[list[int]] = []  # [tag, lo, hi] of the first-term rows read
    for r in sorted(read):
        k, i = divmod(r - firsts, n_h)
        if runs and runs[-1][0] == tags[k] and runs[-1][2] == i:
            runs[-1][2] += 1
        else:
            runs.append([tags[k], i, i + 1])
    values = tuple(np.float64(_PLAN_CONSTS[key] if type(key) is str
                              else slots[key].value) for key in consts)
    return _Plan(-top, tuple(map(tuple, runs)), values, tuple(steps),
                 tuple((j, bound[o]) for j, o in enumerate(outputs)
                       if bound[o] != rows + j))


def _columns(x: np.ndarray) -> np.ndarray:
    """x's last axis moved first, as a C-contiguous (n, *batch) copy."""
    cols = np.empty(x.shape[-1:] + x.shape[:-1])
    np.copyto(cols, x.transpose(-1, *range(x.ndim - 1)))
    return cols


def execute_schedule(sched: Schedule, h, ycheck) -> np.ndarray:
    """Run the program on channel coefficients h and received ycheck.

    Both accept leading batch dimensions that broadcast against each
    other, e.g. (2MN,) or (B, 2MN) h with (2MT,) or (B, 2MT) ycheck.  Both
    must be real; ``lattice.vectorize_received`` interleaves complex values.
    The result is the (*batch, 2K) view of a C-contiguous (2K, *batch)
    block.
    """
    _require_real("h", h)
    _require_real("ycheck", ycheck)
    h = np.asarray(h, dtype=float)
    yv = np.asarray(ycheck, dtype=float)
    for name, x, n in (("h", h, sched.n_h), ("ycheck", yv, sched.n_y)):
        if x.shape[-1:] != (n,):
            raise ValueError(f"{name} has shape {x.shape}, need a last axis "
                             f"of length {n}")
    plan = sched._plan
    batch = np.broadcast_shapes(h.shape[:-1], yv.shape[:-1])
    n_h = sched.n_h
    firsts = n_h + sched.n_y
    built = sum(hi - lo for _, lo, hi in plan.firsts)
    block = np.empty((len(sched.outputs), *batch))
    # the first-term table's rows, then the registers, in one block
    work = np.empty((built + plan.registers, *batch))
    hcols = _columns(h)
    table = [*hcols, *_columns(yv), *[None] * (len(_FIRST_TAGS) * n_h)]
    # h's columns against the whole batch, for a table row per column
    hrows = hcols.reshape(n_h, *[1] * (len(batch) + 1 - h.ndim),
                          *h.shape[:-1])
    row = 0
    for tag, lo, hi in plan.firsts:
        n = hi - lo
        _first_terms(hrows[lo:hi], tag, work[row:row + n])
        at = firsts + _FIRST_TAGS[tag] * n_h + lo
        table[at:at + n] = [work[r, ...] for r in range(row, row + n)]
        row += n
    table += [*[block[j, ...] for j in range(len(block))],
              # a 0-d array operand costs a ufunc less than a scalar one
              *map(np.asarray, plan.consts),
              *[work[r, ...] for r in range(len(work) - 1, row - 1, -1)]]
    steps = iter(plan.steps)
    for f, a, b, out in zip(steps, steps, steps, steps):
        if b is None:
            f(table[a], table[out])
        else:
            f(table[a], table[b], table[out])
    for j, o in plan.copies:
        block[j] = table[o]
    return block.transpose(*range(1, block.ndim), 0)


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


def _dense_count(k, m, t, n) -> OpCount:
    """A dense decode whose sigma sums 2Mn squares (n = T for a lattice
    column, N for the channel): 2K inner products of length 2MT, the
    squares, one DIV4 and 2K scalings."""
    k, m, t, n = (_integer(name, value)
                  for name, value in zip("kmtn", (k, m, t, n)))
    if min(k, m, t, n) < 1:
        raise ValueError("arguments must be positive")
    return OpCount(4 * k * m * t + 2 * m * n + 2 * k + 4,
                   4 * k * m * t + 2 * m * n - 2 * k - 1)


def formula_column_sigma(k: int, m: int, t: int) -> OpCount:
    """Dense-decode closed form with sigma from a length-2MT lattice column."""
    return _dense_count(k, m, t, t)


def formula_channel_sigma(k: int, m: int, t: int, n: int) -> OpCount:
    """Dense-decode closed form with sigma from the 2MN channel coefficients."""
    return _dense_count(k, m, t, n)
