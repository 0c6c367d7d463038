import re
import tracemalloc

import numpy as np
import pytest

from ostbc_lab.codes import DispersionCode, builtin_code_ids, get_code
from ostbc_lab.lattice import ChannelRealization, build_check_H, \
    linform_value
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


@pytest.mark.parametrize("args,want", [
    ((2, 1, 2), (28, 15)),
    ((4, 2, 8), (300, 279)),
    ((4, 1, 8), (156, 135)),
    ((3, 1, 4), (66, 49)),
])
def test_formula_column_sigma(args, want):
    assert formula_column_sigma(*args) == OpCount(*want)


@pytest.mark.parametrize("args,want", [
    ((2, 1, 2, 2), (28, 15)),
    ((4, 2, 8, 3), (280, 259)),
    ((4, 1, 8, 4), (148, 127)),
    ((3, 1, 4, 3), (64, 47)),
])
def test_formula_channel_sigma(args, want):
    assert formula_channel_sigma(*args) == OpCount(*want)


@pytest.mark.parametrize("bad", [(0, 1, 1), (1, -1, 1), (1, 1, 0)])
def test_formula_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        formula_column_sigma(*bad)
    with pytest.raises(ValueError):
        formula_channel_sigma(*bad, 1)


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
    code = get_code(cid)
    c0, c1, c2 = (generate_schedule(code, m, lv).count for lv in LEVELS)
    assert c2.rm <= c1.rm <= c0.rm
    assert c1.ra <= c0.ra
    # grouping trades merge ADDs for pre-sum ADDs one for one
    assert c2.ra == c1.ra


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


def test_level_coercion():
    code = get_code("g2")
    base = dump_schedule(generate_schedule(code, 1, 1))
    for alias in ("L1", "l1", " l1 ", 1):
        assert dump_schedule(generate_schedule(code, 1, alias)) == base
    for bad in (3, -1, "L7", "fast", None):
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
        lat = build_check_H(code, ChannelRealization.from_h(h, code.n, m))
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


def test_execute_rejects_wrong_lengths():
    sched = generate_schedule(get_code("g2"), 1, 1)
    with pytest.raises(ValueError):
        execute_schedule(sched, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        execute_schedule(sched, np.zeros(4), np.zeros(5))


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


@pytest.mark.parametrize("cid", builtin_code_ids())
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("level", LEVELS)
def test_execute_bitwise_equals_reference(cid, m, level):
    code = get_code(cid)
    sched = generate_schedule(code, m, level)
    rng = np.random.default_rng([m, level, len(cid), ord(cid[-1])])
    hb = rng.standard_normal((33, sched.n_h))
    yb = rng.standard_normal((33, sched.n_y))
    hb[0, ::2] = -0.0  # signed zeros reach entries and outputs
    yb[0] = -0.0
    for h, y in ((hb, yb), (hb[1], yb[1]), (hb[2], yb)):
        got = execute_schedule(sched, h, y)
        want = reference_execute(sched, h, y)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_output_read_by_a_later_op_keeps_its_register():
    # t2 could otherwise be written over t1 once t1's last reader has run
    slots = (Slot("h1", "h", index=0), Slot("y1", "y", index=0),
             Slot("t1", "temp"), Slot("t2", "temp"))
    sched = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1, slots=slots,
                     ops=(Op("MUL", 2, (0, 1)), Op("ADD", 3, (1, 2))),
                     outputs=(2, 3), sigma_slot=0, sigma_inv_slot=0)
    h, y = np.array([[2.0], [3.0]]), np.array([[5.0], [7.0]])
    assert sched.registers == 2
    np.testing.assert_array_equal(execute_schedule(sched, h, y),
                                  [[10.0, 15.0], [21.0, 28.0]])
    assert execute_schedule(sched, h, y).tobytes() == \
        reference_execute(sched, h, y).tobytes()


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
    for kind, args in (("SQRT", (0,)), ("ADD", (0,)), ("NEG", (0, 0))):
        bad = Schedule(code_id="x", m=1, level=0, n_h=1, n_y=1,
                       slots=(h1, t1), ops=(Op(kind, 1, args),),
                       outputs=(1,), sigma_slot=0, sigma_inv_slot=0)
        with pytest.raises(RuntimeError,
                           match=f"unknown op '{kind}' of {len(args)} "):
            execute_schedule(bad, [1.0], [1.0])


# Rows of the register block per built-in code at m = 1 and 2, L0..L2.
REGISTERS = {
    "g2": ((11, 8, 8), (19, 12, 12)),
    "g3": ((35, 19, 14), (63, 31, 20)),
    "g4": ((39, 23, 16), (71, 39, 24)),
    "h3": ((20, 14, 12), (34, 22, 18)),
}


@pytest.mark.parametrize("cid", builtin_code_ids())
def test_register_counts(cid):
    code = get_code(cid)
    got = tuple(tuple(generate_schedule(code, m, lv).registers
                      for lv in LEVELS) for m in (1, 2))
    assert got == REGISTERS[cid]


def test_execute_traced_peak():
    # 71 registers x 4096 trials x 8 bytes = 2.3 MB, plus the column copies
    # of h and ycheck and the output: 4.2 MB measured.  Holding every slot
    # to the end took 27.6 MB.
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
