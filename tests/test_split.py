"""Channel-side and block-side operation counts of compiled schedules.

A receiver computes what depends on the channel alone once per channel
realization, and what reads the received block once per block.  An op is
block-side if it reads a y slot, directly or through an earlier block-side
op; every other op is channel-side.  L0 binds Hc's entries as free inputs,
so its channel side is sigma alone, while L1 and L2 also form the entries
they use from h; one (RM, RA) pair mixes the two costs.
"""

from pathlib import Path

import pytest

from ostbc_lab.codes import get_code, load_code_file
from ostbc_lab.schedule import _KINDS, LEVELS, OpCount, generate_schedule

CODES = ("g2", "g3", "g4", "h3", "h4")


def load(cid):
    """A built-in, or H4 from its file next to this one."""
    if cid == "h4":
        return load_code_file(Path(__file__).with_name("h4.code"))
    return get_code(cid)


def split_counts(sched) -> tuple[OpCount, OpCount]:
    """(channel-side, block-side) counts of a schedule, by ``_KINDS``'
    costs: one pass over its ops, marking each op that reads a y slot or an
    earlier block-side op's result."""
    block = {sid for sid, slot in enumerate(sched.slots) if slot.kind == "y"}
    sides = [[0, 0], [0, 0]]  # [channel, block] x [rm, ra]
    for kind, dst, args in sched.ops:
        side = int(any(a in block for a in args))
        if side:
            block.add(dst)
        _, _, rm, ra = _KINDS[kind]
        sides[side][0] += rm
        sides[side][1] += ra
    return OpCount(*sides[0]), OpCount(*sides[1])


@pytest.mark.parametrize("cid", CODES)
@pytest.mark.parametrize("m", [1, 2])
def test_split_sums_to_count(cid, m):
    code = load(cid)
    for level in LEVELS:
        sched = generate_schedule(code, m, level)
        channel, block = split_counts(sched)
        assert OpCount(channel.rm + block.rm, channel.ra + block.ra) \
            == sched.count, (cid, m, level)
        # every output reads y, and sigma's reciprocal (DIV4) reads h only
        assert block.rm >= len(sched.outputs) and channel.rm >= 4


# (channel-side, block-side) (RM, RA) at M = 1, for L0 | L1 | L2
SPLIT_M1 = {
    "g2": (((8, 3), (20, 12)),) * 3,
    "g3": (((20, 15), (136, 120)), ((11, 5), (104, 88)),
           ((11, 5), (56, 88))),
    "g4": (((20, 15), (136, 120)), ((13, 7), (136, 120)),
           ((13, 7), (72, 120))),
    "h3": (((12, 7), (54, 42)), ((10, 13), (48, 34)), ((10, 13), (44, 34))),
    "h4": (((12, 7), (54, 42)), ((12, 23), (56, 42)), ((12, 23), (56, 42))),
}


@pytest.mark.parametrize("cid", CODES)
def test_split_frozen_at_one_antenna(cid):
    code = load(cid)
    got = tuple(split_counts(generate_schedule(code, 1, level))
                for level in LEVELS)
    assert got == tuple((OpCount(*ch), OpCount(*bl))
                        for ch, bl in SPLIT_M1[cid])

