import hashlib
import re
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from code_transforms import signed_twins
from lattice_ref import linform_value
from ostbc_lab import schedule
from ostbc_lab.codes import DispersionCode, builtin_code_ids, get_code, \
    load_code_file
from ostbc_lab.lattice import build_check_H, build_symbolic_lattice, \
    channel_sigma, evaluate_lattice_batch, unvectorize
from ostbc_lab.schedule import (
    LEVELS,
    Op,
    OpCount,
    Schedule,
    Slot,
    count_ops,
    dump_schedule,
    execute_schedule,
    formula_channel_sigma,
    formula_column_sigma,
    generate_schedule,
)

# Frozen operation counts for the built-in designs at their reference
# receive-antenna counts.  These are the numbers the whole counting model
# stands on; any generator change that moves them is a regression.
GOLDEN_COUNTS = [
    ("g2", 1, 0, 28, 15),
    ("g2", 1, 1, 28, 15),
    ("g2", 1, 2, 28, 15),
    ("g3", 2, 0, 300, 279),
    ("g3", 2, 1, 217, 195),
    ("g3", 2, 2, 121, 195),
    ("g4", 1, 0, 156, 135),
    ("g4", 1, 1, 149, 127),
    ("g4", 1, 2, 85, 127),
    ("h3", 1, 0, 66, 49),
    ("h3", 1, 1, 58, 47),
    ("h3", 1, 2, 54, 47),
]

DENSE1 = DispersionCode(id="dense1", n=1, t=1, k=1, c=1,
                        a_tags=(((1,),),), b_tags=(((1,),),))


def random_h(rng, code, m):
    return rng.standard_normal(2 * code.n * m)


# -- golden counts and closed forms -----------------------------------------

@pytest.mark.parametrize("cid,m,level,rm,ra", GOLDEN_COUNTS,
                         ids=[f"{c}-M{m}-L{l}" for c, m, l, _, _ in GOLDEN_COUNTS])
def test_golden_counts(cid, m, level, rm, ra):
    sched = generate_schedule(get_code(cid), m, level)
    assert sched.count == OpCount(rm, ra)
    assert count_ops(sched) == sched.count


@pytest.mark.parametrize("cid", builtin_code_ids())
def test_count_is_computed_once(cid):
    for m in (1, 2):
        for level in LEVELS:
            sched = generate_schedule(get_code(cid), m, level)
            assert sched.count == count_ops(sched)
            assert sched.count is sched.count


@pytest.mark.parametrize("args,want", [
    ((2, 1, 2), (28, 15)),
    ((4, 2, 8), (300, 279)),
    ((4, 1, 8), (156, 135)),
    ((3, 1, 4), (66, 49)),
    ((2, True, 2), (28, 15)),  # True is 1, as for m and level
])
def test_formula_column_sigma(args, want):
    assert formula_column_sigma(*args) == OpCount(*want)


@pytest.mark.parametrize("args,want", [
    ((2, 1, 2, 2), (28, 15)),
    ((4, 2, 8, 3), (280, 259)),
    ((4, 1, 8, 4), (148, 127)),
    ((3, 1, 4, 3), (64, 47)),
    ((2, 1, 2, True), (26, 13)),
])
def test_formula_channel_sigma(args, want):
    assert formula_channel_sigma(*args) == OpCount(*want)


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
def test_formula_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        formula_column_sigma(*bad)
    with pytest.raises(ValueError):
        formula_channel_sigma(*bad, 1)


@pytest.mark.parametrize("at", range(4))
@pytest.mark.parametrize("bad", [1.5, 2.0, "2"])
def test_formula_takes_integers_only(at, bad):
    args = [2, 1, 2, 2]
    args[at] = bad
    match = f"^{'kmtn'[at]} must be an integer$"
    with pytest.raises(ValueError, match=match):
        formula_channel_sigma(*args)
    if at < 3:
        with pytest.raises(ValueError, match=match):
            formula_column_sigma(*args[:3])


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
def test_dense_level_matches_column_formula(cid, m):
    code = get_code(cid)
    sched = generate_schedule(code, m, 0)
    assert sched.count == formula_column_sigma(code.k, m, code.t)


@pytest.mark.parametrize("m,want", [(1, (12, 3)), (2, (18, 9))])
def test_fully_dense_design_matches_channel_formula(m, want):
    # A 1x1 design with no structural zeros: zero-skipping has nothing to
    # skip, so L1 collapses to the channel-sigma closed form exactly.
    sched = generate_schedule(DENSE1, m, 1)
    assert sched.count == OpCount(*want)
    assert sched.count == formula_channel_sigma(1, m, 1, 1)


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2, 3])
def test_level_monotonicity(cid, m):
    # a fact of the built-ins, not of orthogonal designs: on Tarokh's H4
    # (tests/h4.code) L1 and L2 cost more than L0, see test_h4_counts_frozen
    code = get_code(cid)
    c0, c1, c2 = (generate_schedule(code, m, lv).count for lv in LEVELS)
    assert c2.rm <= c1.rm <= c0.rm
    assert c1.ra <= c0.ra
    # grouping trades merge ADDs for pre-sum ADDs one for one
    assert c2.ra == c1.ra


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(builtin_code_ids()), st.sampled_from((1, 2)),
       st.data())
def test_schedules_of_signed_twins(cid, m, data):
    # a signed column permutation and row-sign flip keeps each entry's
    # terms, so every level still decodes and the levels stay ordered
    code = data.draw(signed_twins(get_code(cid)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    h = rng.standard_normal((4, 2 * code.n * m))
    yv = rng.standard_normal((4, 2 * m * code.t))
    hc = evaluate_lattice_batch(build_symbolic_lattice(code, m), h)
    want = np.einsum("bpj,bp->bj", hc, yv) / channel_sigma(code, h)[:, None]
    counts = []
    for level in LEVELS:
        sched = generate_schedule(code, m, level)
        np.testing.assert_allclose(execute_schedule(sched, h, yv), want,
                                   rtol=1e-12, atol=1e-12 * np.abs(want).max())
        counts.append(count_ops(sched))
    c0, c1, c2 = counts
    assert c2.rm <= c1.rm <= c0.rm
    assert c2.ra <= c1.ra <= c0.ra


# -- program structure -------------------------------------------------------

@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("level", LEVELS)
def test_single_assignment(cid, level):
    sched = generate_schedule(get_code(cid), 2, level)
    seen = set()
    for op in sched.ops:
        assert op.dst not in seen
        seen.add(op.dst)
        assert sched.slots[op.dst].kind == "temp"
        for a in op.args:
            assert a < op.dst
        if op.kind in ("ADD", "MUL"):
            assert len(op.args) == 2
            assert op.args[0] <= op.args[1]
        else:
            assert len(op.args) == 1
    assert len(sched.outputs) == 2 * get_code(cid).k
    assert sched.slots[sched.sigma_inv_slot].kind == "temp"


def test_count_ops_hand_built():
    slots = (Slot("h1", "h", index=0), Slot("t1", "temp"))
    empty = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                     slots=slots[:1], ops=(), outputs=(0,),
                     sigma_slot=0, sigma_inv_slot=0)
    assert count_ops(empty) == OpCount(0, 0)
    one_div = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                       slots=slots, ops=(Op("DIV4", 1, (0,)),),
                       outputs=(1,), sigma_slot=0, sigma_inv_slot=1)
    assert count_ops(one_div) == OpCount(4, 0)


def test_div4_edge_values_bitwise():
    # a DIV4 step gives exactly the bytes of 1.0 / sigma, signed zeros,
    # infinities, NaN, a subnormal and the largest double included
    sched = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                     slots=(Slot("h1", "h", index=0), Slot("t1", "temp")),
                     ops=(Op("DIV4", 1, (0,)),), outputs=(1,), sigma_slot=0,
                     sigma_inv_slot=1)
    h = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                  1.7976931348623157e308, 3.0])
    with np.errstate(divide="ignore", over="ignore"):
        got = execute_schedule(sched, h[:, None], np.zeros((len(h), 1)))
        want = 1.0 / h
    assert got.shape == (len(h), 1)
    assert np.array_equal(got[:, 0].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("kind,args", [("SQRT", (0,)), ("ADD", (0,))],
                         ids=["unknown-kind", "wrong-arity"])
def test_count_ops_rejects_what_execute_rejects(kind, args):
    # one instruction table: an op the executor cannot run has no count
    bad = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                   slots=(Slot("h1", "h", index=0), Slot("t1", "temp")),
                   ops=(Op(kind, 1, args),), outputs=(1,), sigma_slot=0,
                   sigma_inv_slot=0)
    with pytest.raises(RuntimeError) as counted:
        count_ops(bad)
    with pytest.raises(RuntimeError) as executed:
        execute_schedule(bad, [1.0], [1.0])
    assert str(counted.value) == str(executed.value) == \
        f"unknown op {kind!r} of {len(args)} operands"


def test_level_coercion():
    code = get_code("g2")
    base = dump_schedule(generate_schedule(code, 1, 1))
    for alias in ("L1", "l1", " l1 ", 1, True, np.int64(1)):
        assert dump_schedule(generate_schedule(code, 1, alias)) == base
    for bad in (3, -1, "L7", "fast", None, "LL2", "lll0", "02", "L\u0662",
                2.0, np.float64(1.0)):
        with pytest.raises(ValueError):
            generate_schedule(code, 1, bad)
    with pytest.raises(ValueError):
        generate_schedule(code, 0, 1)


# -- execution ---------------------------------------------------------------

@pytest.mark.parametrize("level", LEVELS)
def test_execute_hand_case(level):
    sched = generate_schedule(get_code("g2"), 1, level)
    z = execute_schedule(sched, [1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(z, [1.0, 2.0, -3.0, 4.0], atol=1e-15)


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", LEVELS)
def test_execute_matches_lattice_decode(cid, m, level):
    code = get_code(cid)
    sched = generate_schedule(code, m, level)
    rng = np.random.default_rng([int.from_bytes(cid.encode(), "little"),
                                 m, level])
    for _ in range(25):
        h = random_h(rng, code, m)
        lat = build_check_H(code, unvectorize(h, code.n))
        yv = rng.standard_normal(2 * m * code.t)
        want = lat.hcheck.T @ yv / lat.sigma
        got = execute_schedule(sched, h, yv)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


@pytest.mark.parametrize("cid", builtin_code_ids())
def test_execute_zero_received(cid):
    code = get_code(cid)
    rng = np.random.default_rng(7)
    sched = generate_schedule(code, 1, 2)
    z = execute_schedule(sched, random_h(rng, code, 1), np.zeros(2 * code.t))
    np.testing.assert_array_equal(z, np.zeros(2 * code.k))


def test_execute_batch_matches_loop():
    code = get_code("g4")
    sched = generate_schedule(code, 2, 2)
    rng = np.random.default_rng(11)
    hb = rng.standard_normal((7, 2 * code.n * 2))
    yb = rng.standard_normal((7, 2 * 2 * code.t))
    batch = execute_schedule(sched, hb, yb)
    assert batch.shape == (7, 2 * code.k)
    for i in range(7):
        np.testing.assert_array_equal(batch[i], execute_schedule(sched, hb[i], yb[i]))


# Row 0 of A_1 mixes a 1/sqrt(2) tag with a unit one, so its entries scale
# the root term inline; row 1 is all 1/sqrt(2) in a column that is not, so
# its entries scale after their core; B_1 = 0 leaves column 1 empty, a sum of
# nothing.  No built-in code reaches these compiler branches.
MIXED = DispersionCode(id="mixed", n=2, t=2, k=1, c=1,
                       a_tags=(((2, 1), (2, 2)),), b_tags=(((0, 0), (0, 0)),))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", LEVELS)
def test_execute_mixed_root_code_matches_lattice(m, level):
    # MIXED is not orthogonal, so its lattice is read directly: Hc^T y over
    # the sigma each level computes (c ||H||^2 at L1 and L2, the first
    # column's squared norm at L0).  Its counts are not in level order
    # (at m = 1, L1 has RA 10 against L0's 9), so none is asserted.
    sched = generate_schedule(MIXED, m, level)
    rng = np.random.default_rng([m, level])
    h = rng.standard_normal((64, 2 * MIXED.n * m))
    yv = rng.standard_normal((64, 2 * m * MIXED.t))
    hc = evaluate_lattice_batch(build_symbolic_lattice(MIXED, m), h)
    sigma = (np.sum(hc[:, :, 0] ** 2, axis=1) if level == 0
             else channel_sigma(MIXED, h))
    want = np.einsum("bpj,bp->bj", hc, yv) / sigma[:, None]
    assert np.allclose(execute_schedule(sched, h, yv), want, rtol=1e-9)


def test_execute_rejects_wrong_lengths():
    sched = generate_schedule(get_code("g2"), 1, 1)
    with pytest.raises(ValueError):
        execute_schedule(sched, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        execute_schedule(sched, np.zeros(4), np.zeros(5))


@pytest.mark.parametrize("name", ["h", "ycheck"])
def test_execute_rejects_0d_input(name):
    # h.shape[-1] of a 0-d array raises IndexError
    sched = generate_schedule(get_code("g2"), 1, 1)
    args = {"h": np.zeros(4), "ycheck": np.zeros(4), name: np.float64(1.0)}
    with pytest.raises(ValueError, match=rf"^{name} has shape \(\), need a "
                                         "last axis of length 4$"):
        execute_schedule(sched, **args)


def test_execute_rejects_complex_input():
    # np.asarray(..., dtype=float) would keep only the real part
    sched = generate_schedule(get_code("g2"), 1, 2)
    for h, y, name in ((np.ones(4), np.arange(4) + 1j, "ycheck"),
                       (np.ones(4) + 0j, np.arange(4.0), "h"),
                       ([1, 0, 0, 1j], np.arange(4.0), "h")):
        with pytest.raises(ValueError, match=f"^{name} is complex; "
                                             ".*vectorize_received"):
            execute_schedule(sched, h, y)


# -- the register plan against the eager interpreter ------------------------

def reference_execute(sched, h, ycheck):
    """Every slot bound up front, one array per op, in program order."""
    h = np.asarray(h, dtype=float)
    yv = np.asarray(ycheck, dtype=float)
    vals = [None] * len(sched.slots)
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
        if op.kind == "ADD":
            vals[op.dst] = a + vals[op.args[1]]
        elif op.kind == "MUL":
            vals[op.dst] = a * vals[op.args[1]]
        elif op.kind == "NEG":
            vals[op.dst] = -a
        elif op.kind == "DIV4":
            vals[op.dst] = 1.0 / a
    return np.stack(np.broadcast_arrays(*(vals[i] for i in sched.outputs)),
                    axis=-1)


def plan_steps(plan):
    """The plan's flat step fields, four at a time: (ufunc, a, b, out)."""
    assert len(plan.steps) % 4 == 0
    return list(zip(*[iter(plan.steps)] * 4))


# H4's L0 entries have two terms, and their first terms all four tags
@pytest.mark.parametrize("cid", [*builtin_code_ids(), "h4"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", LEVELS)
def test_execute_bitwise_equals_reference(cid, m, level):
    code = load_code_file(Path(__file__).with_name("h4.code")) \
        if cid == "h4" else get_code(cid)
    sched = generate_schedule(code, m, level)
    rng = np.random.default_rng([m, level, len(cid), ord(cid[-1])])
    hb = rng.standard_normal((33, sched.n_h))
    yb = rng.standard_normal((33, sched.n_y))
    hb[0, ::2] = -0.0  # signed zeros reach entries and outputs
    hb[0, 1::4] = np.inf  # and so do infinities, and the NaNs they make
    hb[0, 3::4] = -np.inf
    yb[0] = -0.0
    # one vector against a batch either way, strided and Fortran-ordered
    # inputs, and a two-axis batch, also against a one-axis one
    for h, y in ((hb, yb), (hb[1], yb[1]), (hb[2], yb), (hb, yb[1]),
                 (hb[::2], yb[::2]),
                 (np.asfortranarray(hb), np.asfortranarray(yb)),
                 (hb.reshape(3, 11, -1), yb.reshape(3, 11, -1)),
                 (hb.reshape(3, 11, -1), yb[:11])):
        with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
            got = execute_schedule(sched, h, y)
            want = reference_execute(sched, h, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_entries_sharing_a_first_term_keep_its_table_row():
    # e1 and e2 both start with +h1, so both read one row of the first-term
    # table; e1's last reader comes before e2 is bound, and its t1 would be
    # written over that row if the row were freed with e1
    slots = (Slot("e1_1", "entry", recipe=((0, 1),)),
             Slot("e2_1", "entry", recipe=((0, 1), (1, -1))),
             Slot("y1", "y", index=0), Slot("t1", "temp"), Slot("t2", "temp"),
             Slot("t3", "temp"), Slot("t4", "temp"))
    sched = Schedule(code_id="x", m=1, level=0, n_h=2, n_y=1, slots=slots,
                     ops=(Op("MUL", 3, (0, 2)), Op("MUL", 4, (2, 3)),
                          Op("MUL", 5, (1, 2)), Op("ADD", 6, (4, 5))),
                     outputs=(3, 6), sigma_slot=0, sigma_inv_slot=0)
    plan = sched._plan
    row = sched.n_h + sched.n_y + schedule._FIRST_TAGS[1] * sched.n_h
    steps = plan_steps(plan)
    assert plan.firsts == ((1, 0, 1),)  # the one row read, +h1's
    assert len(steps) == len(sched.ops) + 1  # e2's SUB of h2 only
    assert sum(row in (a, b) for _, a, b, _ in steps) == 2
    # the outputs t1 and t4 are written into their rows of the output block,
    # after the first-term table; every other step writes a register
    outs = [out for *_, out in steps]
    rows = sched.n_h + sched.n_y + len(schedule._FIRST_TAGS) * sched.n_h
    assert [outs[0], outs[-1]] == [rows, rows + 1]
    assert all(out < 0 for out in outs[1:-1])
    assert plan.copies == ()
    h = np.array([[-0.0, 2.0], [3.0, -0.0], [np.inf, 1.0], [-0.0, -0.0]])
    y = np.array([[5.0], [-0.0], [2.0], [7.0]])
    got = execute_schedule(sched, h, y)
    assert got.tobytes() == reference_execute(sched, h, y).tobytes()
    np.testing.assert_array_equal(got[0], [0.0, -2.0 * 5.0 + 0.0])


def test_execute_returns_a_view_of_the_output_block():
    # each output is a contiguous row of one (2K, *batch) block
    sched = generate_schedule(get_code("g4"), 2, 2)
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 5, sched.n_h))
    z = execute_schedule(sched, h, rng.standard_normal(sched.n_y))
    assert z.shape == (3, 5, 8)
    assert z.strides == (40, 8, 120)
    assert z.base.shape == (8, 3, 5) and z.base.flags.c_contiguous


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", LEVELS)
def test_plan_steps(cid, m, level):
    # one step per op, and an entry binds as 0.0 plus each term: its first
    # term is a row of the first-term table, no step, and each later term
    # is one ADD or SUB if +-1, a MUL by the tag and an ADD if +-1/sqrt(2)
    sched = generate_schedule(get_code(cid), m, level)
    terms = [abs(tag) for slot in sched.slots if slot.kind == "entry"
             for _, tag in slot.recipe]
    later = [abs(tag) for slot in sched.slots if slot.kind == "entry"
             for _, tag in slot.recipe[1:]]
    assert len(plan_steps(sched._plan)) == \
        len(sched.ops) + later.count(1) + 2 * later.count(2)
    assert len(terms) == terms.count(1) + terms.count(2)
    assert all(type(c) is np.float64 for c in sched._plan.consts)
    # one flat tuple of fields, none of them a per-step tuple
    assert type(sched._plan.steps) is tuple
    for f, a, b, out in plan_steps(sched._plan):
        assert isinstance(f, np.ufunc)
        assert all(type(x) is int for x in (a, out))
        assert b is None or type(b) is int


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", LEVELS)
def test_generate_schedule_is_repeatable(cid, m, level):
    # temp, h, y, constant and entry slots are shared between schedules: a
    # second compile must still give an equal program, named alike
    code = get_code(cid)
    first, second = (generate_schedule(code, m, level) for _ in range(2))
    assert first == second
    assert all(a is b for a, b in zip(first.slots, second.slots)
               if a.kind == "temp")
    assert all(a is b for a, b in zip(first.slots, second.slots))
    assert dump_schedule(first) == dump_schedule(second)


def test_shared_constants_keep_the_sign_of_zero():
    # 0.0 == -0.0, so a constant shared by value alone would lose its sign
    plus, minus = schedule._Builder(), schedule._Builder()
    zero = plus.slots[plus.const("z", 0.0)]
    negative_zero = minus.slots[minus.const("z", -0.0)]
    assert np.signbit([zero.value, negative_zero.value]).tolist() == \
        [False, True]
    again = schedule._Builder()
    assert again.slots[again.const("z", -0.0)] is negative_zero


def test_shared_temps_grow_consistently_across_threads(monkeypatch):
    # every builder appends the module's temp and y slots; threads that
    # grow the lists at once must not misnumber them
    code = get_code("g4")
    want = generate_schedule(code, 2, 0)
    names = [f"t{k + 1}" for k in range(len(want.ops))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(schedule, "_TEMPS", [])
            monkeypatch.setattr(schedule, "_INPUTS", {"h": [], "y": []})
            start, got = threading.Barrier(6), []

            def compile_one():
                start.wait(timeout=60)
                got.append(generate_schedule(code, 2, 0))

            threads = [threading.Thread(target=compile_one)
                       for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * len(threads)
            assert [s.name for s in schedule._TEMPS] == names
            assert [(s.name, s.index) for s in schedule._INPUTS["y"]] == \
                [(f"y{i + 1}", i) for i in range(want.n_y)]
    finally:
        sys.setswitchinterval(interval)


def test_output_read_by_a_later_op_keeps_its_register():
    # t2 could otherwise be written over t1 once t1's last reader has run;
    # both ops write their output's row of the output block, so no register
    slots = (Slot("h1", "h", index=0), Slot("y1", "y", index=0),
             Slot("t1", "temp"), Slot("t2", "temp"))
    sched = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1, slots=slots,
                     ops=(Op("MUL", 2, (0, 1)), Op("ADD", 3, (1, 2))),
                     outputs=(2, 3), sigma_slot=0, sigma_inv_slot=0)
    h, y = np.array([[2.0], [3.0]]), np.array([[5.0], [7.0]])
    assert sched.registers == 0
    np.testing.assert_array_equal(execute_schedule(sched, h, y),
                                  [[10.0, 15.0], [21.0, 28.0]])
    assert execute_schedule(sched, h, y).tobytes() == \
        reference_execute(sched, h, y).tobytes()


# Outputs that no op writes into their own row: a slot listed twice (its
# second row is a copy of its first), an h and a y slot, and an entry that is
# one first-term row.
HAND_OUTPUTS = {
    "listed-twice": ((Slot("h1", "h", index=0), Slot("y1", "y", index=0),
                      Slot("t1", "temp"), Slot("t2", "temp")),
                     (Op("MUL", 2, (0, 1)), Op("ADD", 3, (1, 2))),
                     (2, 3, 2, 3)),
    "inputs": ((Slot("h1", "h", index=0), Slot("y1", "y", index=0),
                Slot("t1", "temp")),
               (Op("MUL", 2, (0, 1)),), (0, 2, 1, 0)),
    "entry": ((Slot("e1_1", "entry", recipe=((0, -2),)),
               Slot("y1", "y", index=0), Slot("t1", "temp")),
              (Op("MUL", 2, (0, 1)),), (0, 2)),
}


@pytest.mark.parametrize("name", HAND_OUTPUTS)
def test_outputs_no_op_writes_are_copied(name):
    slots, ops, outputs = HAND_OUTPUTS[name]
    sched = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1, slots=slots,
                     ops=ops, outputs=outputs, sigma_slot=0,
                     sigma_inv_slot=0)
    written = {op.dst for op in ops}
    first = {o: outputs.index(o) for o in outputs}
    assert [j for j, _ in sched._plan.copies] == \
        [j for j, o in enumerate(outputs) if o not in written or first[o] != j]
    h = np.array([[2.0], [-0.0], [np.inf], [-3.0]])
    y = np.array([[5.0], [7.0], [-0.0], [np.nan]])
    for hv, yv in ((h, y), (h[0], y), (h, y[3]), (h[1], y[2])):
        with np.errstate(invalid="ignore"):  # inf * -0.0
            got = execute_schedule(sched, hv, yv)
            want = reference_execute(sched, hv, yv)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cid", [*builtin_code_ids(), "h4"])
@pytest.mark.parametrize("m", [1, 2])
def test_first_term_rows_built_are_read(cid, m):
    # the table builds the runs of rows that some step reads, and only them
    code = load_code_file(Path(__file__).with_name("h4.code")) \
        if cid == "h4" else get_code(cid)
    sched = generate_schedule(code, m, 0)
    plan, n_h = sched._plan, sched.n_h
    firsts = n_h + sched.n_y
    built = [firsts + schedule._FIRST_TAGS[tag] * n_h + i
             for tag, lo, hi in plan.firsts for i in range(lo, hi)]
    read = {x for _, a, b, _ in plan_steps(plan) for x in (a, b)}
    read |= {o for _, o in plan.copies}
    table = range(firsts, firsts + len(schedule._FIRST_TAGS) * n_h)
    assert len(set(built)) == len(built)
    assert set(built) == {x for x in read if x in table}
    # runs are maximal and in table order
    assert sorted(built) == built
    for (t1, _, hi), (t2, lo, _) in zip(plan.firsts, plan.firsts[1:]):
        assert t1 != t2 or hi < lo
    if cid in ("g2", "g3", "g4"):
        # every tag the plan reads it reads in every column: one run a tag
        assert all((lo, hi) == (0, n_h) for _, lo, hi in plan.firsts)
    elif cid == "h3":
        assert len(built) == (18, 36)[m - 1]  # of 24 and 48 rows


def test_execute_hand_built_failures():
    h1, t1 = Slot("h1", "h", index=0), Slot("t1", "temp")
    # t1 is read before any op writes it
    unbound = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                       slots=(h1, t1, t1), ops=(Op("ADD", 2, (0, 1)),),
                       outputs=(2,), sigma_slot=0, sigma_inv_slot=0)
    with pytest.raises(RuntimeError, match="unbound slot t1"):
        execute_schedule(unbound, [1.0], [1.0])
    # a column outside h would otherwise alias a register
    no_index = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                        slots=(Slot("h1", "h"), t1), ops=(Op("NEG", 1, (0,)),),
                        outputs=(1,), sigma_slot=0, sigma_inv_slot=0)
    with pytest.raises(RuntimeError, match="slot h1 reads h index -1 of 1"):
        execute_schedule(no_index, [1.0], [1.0])
    # an entry term outside h would otherwise read ycheck: 3.0 * 3.0
    wide_entry = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                          slots=(Slot("e1_1", "entry", recipe=((1, 1),)),
                                 Slot("y1", "y", index=0), t1),
                          ops=(Op("MUL", 2, (0, 1)),), outputs=(2,),
                          sigma_slot=0, sigma_inv_slot=0)
    with pytest.raises(RuntimeError, match="slot e1_1 reads h index 1 of 1"):
        execute_schedule(wide_entry, [2.0], [3.0])
    for kind, args in (("SQRT", (0,)), ("ADD", (0,)), ("NEG", (0, 0))):
        bad = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                       slots=(h1, t1), ops=(Op(kind, 1, args),),
                       outputs=(1,), sigma_slot=0, sigma_inv_slot=0)
        with pytest.raises(RuntimeError,
                           match=f"unknown op '{kind}' of {len(args)} "):
            execute_schedule(bad, [1.0], [1.0])


def test_readme_library_example():
    # README's python block runs as printed: its count is the one it shows,
    # and the schedule's z is the lattice decode's
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b for b in re.findall(r"```python\n(.*?)```", text, re.S)
                if "execute_schedule(" in b]
    ns: dict = {}
    exec(block, ns)
    assert ns["sched"].count == OpCount(rm=54, ra=47)
    assert ns["z"].shape == ns["soft"].shape == (6,)
    np.testing.assert_allclose(ns["z"], ns["soft"], rtol=1e-12, atol=0)


# Rows of the register block per built-in code at m = 1 and 2, L0..L2.
REGISTERS = {
    "g2": ((8, 8, 8), (12, 12, 12)),
    "g3": ((24, 19, 14), (40, 31, 20)),
    "g4": ((24, 23, 16), (40, 39, 24)),
    "h3": ((14, 14, 12), (22, 22, 18)),
}


@pytest.mark.parametrize("cid", builtin_code_ids())
def test_register_counts(cid):
    code = get_code(cid)
    got = tuple(tuple(generate_schedule(code, m, lv).registers
                      for lv in LEVELS) for m in (1, 2))
    assert got == REGISTERS[cid]


def test_execute_traced_peak():
    # 40 registers and two 16-row first-term tag blocks x 4096 trials x 8
    # bytes = 2.4 MB, plus the column copies of h and ycheck and the
    # output: 4.2 MB measured.  Holding every slot to the end took 27.6 MB.
    code = get_code("g4")
    sched = generate_schedule(code, 2, 0)
    rng = np.random.default_rng(3)
    h = rng.standard_normal((4096, sched.n_h))
    y = rng.standard_normal((4096, sched.n_y))
    tracemalloc.start()
    try:
        execute_schedule(sched, h, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


# -- text dump ---------------------------------------------------------------

OP_LINE = re.compile(r"^(ADD|MUL|NEG|DIV4) \S+ <- \S+( \S+)?$")


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("level", LEVELS)
def test_dump_grammar(cid, level):
    sched = generate_schedule(get_code(cid), 1, level)
    text = dump_schedule(sched)
    assert text == dump_schedule(sched)  # deterministic
    lines = text.splitlines()
    assert lines[0] == f"schedule {cid} M=1 level=L{level}"
    rm, ra = count_ops(sched)
    assert lines[-1] == f"count RM={rm} RA={ra}"
    body = [ln for ln in lines[1:-1] if not ln.startswith("# ")]
    assert len(body) == len(sched.ops)
    for ln in body:
        assert OP_LINE.match(ln), ln


def test_dump_names_and_comments():
    text = dump_schedule(generate_schedule(get_code("g2"), 1, 0))
    assert "# e1_1 = h1" in text
    assert "# e3_2 = " in text
    assert re.search(r"^DIV4 sigma_inv <- sigma$", text, re.M)
    assert re.search(r"^MUL z1 <- ", text, re.M)
    assert re.search(r"^MUL z4 <- ", text, re.M)
    # sparse levels bind raw coefficients, not stored entries
    assert "# e" not in dump_schedule(generate_schedule(get_code("g2"), 1, 2))


def test_dump_scaled_entries_render_root():
    text = dump_schedule(generate_schedule(get_code("h3"), 1, 0))
    assert "r*h5" in text


# SHA-256 of dump_schedule(s) and of repr(s) for every built-in code, m and
# level: the emitted programs, slot names and operand order, byte for byte.
GOLDEN_PROGRAMS = {
    ("g2", 1, 0): (
        "81111fb90936b7bc89f94021f60a55f90e7527576e37cb8458c95b2f42d628c4",
        "4497382e73c5213bd44cda8f8713931280aac692b4ac43430f37db242e883ce8"),
    ("g2", 1, 1): (
        "b734c215d3749ce367bc83d732af7944c3f0a4e26c380fd9f8dbfbc007433438",
        "6d79dbed698b809715de0d59be5dc8ec1ad54db6afc0fbc190fb73a09074b917"),
    ("g2", 1, 2): (
        "66e34225a524bc2705990bca9f5e2c389145039f2ddf7818a484d37cbe0aba50",
        "bf7953c90540a23734e02c1a4352747c5c2e5af1cb96290e55c9ab8d858460b3"),
    ("g2", 2, 0): (
        "5083565fc3e442f57d88c55523f43d00838cc774401b487070bea1689abbee60",
        "e39c895c737cd4e56deea3b144187f8f946597c69e86807c45610e318170d802"),
    ("g2", 2, 1): (
        "c4b19006bdb04ad465409c2c1fb3fa9ee282f1b17c176e29a3e2f6047b3717e4",
        "d3a1f3646940a06468dcd8d926598017ac7ac006db33fe43bc787d0d98e6d3a6"),
    ("g2", 2, 2): (
        "a968512e6c68690c1f46ca775c1c5bf1e6c0ade3ab2bcb1b4bfa9ea05be619e9",
        "ee71171965c62cfbe67683375eaabbc4033282035137b07c0a0754fca617ef73"),
    ("g3", 1, 0): (
        "f8d9b70b2c5d737887591b1048579668b5c87d60b9836812268651854c42a0b2",
        "2ce9a7fd24a71d35955a73c59826900ad9bf9185033e397576d8d8be84976a5b"),
    ("g3", 1, 1): (
        "0682e4af4f1bd3f72e720b62c65b1c714e774c6757a55d05d91899043305bdcc",
        "8cfb33323765c59b5c485a3f0801ff27936edae64853a4ab4760f3c634422aad"),
    ("g3", 1, 2): (
        "287b855a0041f4e5aee0e0bd8574238e10e913e32b6bf1180ae2f81b8a59c1e5",
        "7113295d98bfe27c10d977f1f0a760d33de421083bd0e982416d49722dcc98c1"),
    ("g3", 2, 0): (
        "e8c79cb926546187a4459ea1364e7477339a325caeaa131fcb70b586f92519b7",
        "a7b1e50b5e999aea79d01b74d1b91cbab45a60453f113dff12cd0aa89d6839e7"),
    ("g3", 2, 1): (
        "5e96a96baa483933fb0d596929c7ed8a3365b9b911e59596d070488c12f77d65",
        "fcde9bd881ebe08f9124bc478e7bbee830c8e19970d0eeacddd9c467367e3ce7"),
    ("g3", 2, 2): (
        "4cd96b05759badf8da67c7e52796f8c5367dbb82fc4798094b8b934ff35719f9",
        "47e38ef37f87d43d45acb0f1880e07fe7d5544163267ceae3cae1e8e77f93129"),
    ("g4", 1, 0): (
        "f04812898e918085662756e2a87d94937b48f06e59b979a23892f175ff6a089b",
        "41cc7c7edb09d93242b780d0dc983f5fe0f6c164c24db85a2c443af4d8ad6826"),
    ("g4", 1, 1): (
        "730b27850a895666400ab01704a37a688d0fddca7406db4c340f6d40bce3b6e2",
        "06dac8b7ee1991f166dfa72a93afe55b7b664d5fc1238ed54dfba38b48e135c6"),
    ("g4", 1, 2): (
        "d1f8a1cda801ca9674f2f1e5f7e05fb7732f3cc87184d949de8bfbfe2dceab4d",
        "0afbb2a07df318a8b204c9911e1022ec7209fab5b128ede5a1e6407f567561fa"),
    ("g4", 2, 0): (
        "b88a8331e25753a2a1b101daea01e5714e1e427bfb985ff004cc07fd1ff810e4",
        "3482e5efbdf655ae80dc17e13675864bd97c37da272e8d16e9af40d75a969db6"),
    ("g4", 2, 1): (
        "588d28c321d0f937bf0945e400eea079b745be8c0aba7f226753d784fe71b5c8",
        "e626fc67e5b2d4ad1b900bdbace6b5e35cd59d49ce1f72c078341fc3339a8b26"),
    ("g4", 2, 2): (
        "dea60389b98d54293b722145139baf27d918f5eada21a19310d1f731f87e1681",
        "e197d9e6e16d5dfb2f530057f1b2f4b93f7888a93b78bdfeec5a8d7b5fc609c6"),
    ("h3", 1, 0): (
        "c2257e665c3df058763d4b3f357baf98ff8e972ca21b77de3e4c26171bc9fcaa",
        "b22e8468df917147fd51955f03be34d252066fa1baae4f1630bf03592c95edc8"),
    ("h3", 1, 1): (
        "eedb7ee53566c6d01e0c06cde8a96ff67939b5de32fdf48e03b06677112216d7",
        "7a1be4927fd87885c6ecb14750b17ca56c530d5a6eb38ff72db7f953cac380d0"),
    ("h3", 1, 2): (
        "74e6ad7d52d4ddaa850d5c150cf328d6f4dcce7b2af6624f75b7be04310d0da5",
        "7c049fceec3cf2c4c70d30bd154575de3cf042c2468bb0809285257903930d3d"),
    ("h3", 2, 0): (
        "3071670f6f00cd425d0b640cad1e997908dae882b6f003460d119c19ad62a1ba",
        "5399cc09cfe0bde5bdcc5eb63b8048a48bea806bde520d7d25dfff77ea14b44f"),
    ("h3", 2, 1): (
        "e60b2cc4b4dc0875d8dd08a7af8487f7bd77a613395926a67d11635e69780c92",
        "cac9a0815c2d1fd68016a3ac8487244bd531044ffd15973eac03bc9d2915ae22"),
    ("h3", 2, 2): (
        "de81cfa7b8427addd45e875ff99f0a6bc37a497a34a30158cedb62df88e4edaa",
        "0f18b488dcec50d9b627ba395255cae6ea55fccc6d44c5360615b4222d336605"),
}


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("level", LEVELS)
def test_golden_programs(cid, m, level):
    sched = generate_schedule(get_code(cid), m, level)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (dump_schedule(sched), repr(sched)))
    assert digests == GOLDEN_PROGRAMS[cid, m, level]


def test_ops_and_slots_are_immutable_and_hashable():
    sched = generate_schedule(get_code("h3"), 1, 0)
    op = sched.ops[0]
    slot = next(s for s in sched.slots if s.kind == "entry")
    for obj, field in ((op, "dst"), (slot, "recipe")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert hash(op) == hash(Op(op.kind, op.dst, op.args))
    assert hash(slot) == hash(Slot(slot.name, slot.kind, slot.index,
                                   slot.recipe, slot.value))
    assert len(set(sched.ops)) == len(sched.ops)
    assert len({s for s in sched.slots if s.kind == "temp"}) == len(sched.ops)
