"""Acceptance gate: every shipped guarantee, one PASS/FAIL line each.

Run with -s to see the lines; each criterion asserts, so a regression fails
the suite, not just the printout.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from ostbc_lab.cli import main, table_csv
from ostbc_lab.codes import builtin_code_ids, get_code
from ostbc_lab.constellation import get_constellation
from ostbc_lab.decoders import (
    decode_F,
    decode_Fprime,
    decode_lattice,
    decode_trace,
    exhaustive_ml,
)
from ostbc_lab.lattice import (
    build_check_H,
    build_symbolic_lattice,
    deinterleave,
    verify_lattice,
    vectorize_received,
)
from ostbc_lab.schedule import (
    LEVELS,
    OpCount,
    execute_schedule,
    formula_channel_sigma,
    formula_column_sigma,
    generate_schedule,
)
from ostbc_lab.sim import SimConfig, run_ber

from lattice_ref import linform_value, stack_received
from test_lattice import GOLDEN_ROWS, parse_token, sample_channel_matrix

ALL_CODES = builtin_code_ids()


def _report(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {label}: PASS")
        return wrapper
    return deco


@_report(1, "golden op counts")
def test_criterion_1_golden_counts():
    start = time.perf_counter()
    for level in LEVELS:
        assert generate_schedule(get_code("g2"), 1, level).count == (28, 15)
    assert generate_schedule(get_code("g3"), 2, 1).count == (217, 195)
    assert generate_schedule(get_code("g3"), 2, 2).count == (121, 195)
    assert generate_schedule(get_code("g4"), 1, 1).count == (149, 127)
    assert generate_schedule(get_code("g4"), 1, 2).count == (85, 127)
    assert generate_schedule(get_code("h3"), 1, 2).count == (54, 47)
    assert time.perf_counter() - start < 1.0


@_report(2, "closed-form count formulas")
def test_criterion_2_formulas():
    column = [((2, 1, 2), (28, 15)), ((4, 2, 8), (300, 279)),
              ((4, 1, 8), (156, 135)), ((3, 1, 4), (66, 49))]
    channel = [((2, 1, 2, 2), (28, 15)), ((4, 2, 8, 3), (280, 259)),
               ((4, 1, 8, 4), (148, 127)), ((3, 1, 4, 3), (64, 47))]
    for args, want in column:
        assert formula_column_sigma(*args) == OpCount(*want)
    for args, want in channel:
        assert formula_channel_sigma(*args) == OpCount(*want)


@_report(3, "lattice matrix goldens")
def test_criterion_3_lattice_goldens():
    for (cid, m), rows in GOLDEN_ROWS.items():
        code = get_code(cid)
        sym = build_symbolic_lattice(code, m)
        for r, row_text in rows.items():
            want = tuple(parse_token(tok) for tok in row_text.split())
            assert sym.entries[r] == want, f"{cid} row {r}"
        rng = np.random.default_rng(303)
        for _ in range(100):
            H = sample_channel_matrix(rng, code.n, m)
            hc, h = build_check_H(code, H).hcheck, vectorize_received(H)
            for r, row_text in rows.items():
                want = [linform_value(parse_token(tok), h)
                        for tok in row_text.split()]
                np.testing.assert_array_equal(hc[r], want)


@_report(4, "orthogonality and sigma properties")
def test_criterion_4_orthogonality():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for cid in ALL_CODES:
        code = get_code(cid)
        for _ in range(1000):
            H = sample_channel_matrix(rng, code.n, 1)
            lat = build_check_H(code, H)
            rep = verify_lattice(lat)
            assert rep.passed, (cid, rep)
            norm_route = code.c * float(np.sum(np.abs(H) ** 2))
            assert abs(lat.sigma - norm_route) <= 1e-9 * norm_route
    assert time.perf_counter() - start < 5.0


@_report(5, "four-decoder equivalence")
def test_criterion_5_decoder_equivalence():
    start = time.perf_counter()
    const = get_constellation("4qam")
    noise = math.sqrt(10.0 ** -1.0 / 2.0)  # 10 dB
    for cid in ALL_CODES:
        code = get_code(cid)
        rng = np.random.default_rng(505)
        for _ in range(1000):
            ch = sample_channel_matrix(rng, code.n, 1)
            lat = build_check_H(code, ch)
            idx = rng.integers(0, const.levels, 2 * code.k)
            x = const.component_alphabet[idx]
            yv = lat.hcheck @ x + noise * rng.standard_normal(2 * code.t)
            soft, dec = decode_lattice(lat, yv, const)
            y_block = deinterleave(yv).reshape(code.t, 1, order="F")
            z, zprime = stack_received(y_block)
            others = [decode_trace(code, ch, y_block, const),
                      decode_F(code, ch, z, const),
                      decode_Fprime(code, ch, zprime, const)]
            scale = max(float(np.max(np.abs(soft))), 1e-30)
            for osoft, odec in others:
                assert np.max(np.abs(osoft - soft)) <= 1e-9 * scale
                assert np.array_equal(odec.indices, dec.indices)
    assert time.perf_counter() - start < 10.0


@_report(6, "exhaustive ML oracle")
def test_criterion_6_ml_oracle():
    start = time.perf_counter()
    noise = math.sqrt(10.0 ** -0.6 / 2.0)  # 6 dB, errors do occur
    for cid in ALL_CODES:
        code = get_code(cid)
        for mod in ("4qam", "16qam"):
            const = get_constellation(mod)
            rng = np.random.default_rng(606)
            for _ in range(1000):
                lat = build_check_H(code,
                                    sample_channel_matrix(rng, code.n, 1))
                idx = rng.integers(0, const.levels, 2 * code.k)
                x = const.component_alphabet[idx]
                yv = lat.hcheck @ x + noise * rng.standard_normal(2 * code.t)
                _, dec = decode_lattice(lat, yv, const)
                ml, _ = exhaustive_ml(lat, yv, const)
                assert np.array_equal(ml.indices, dec.indices)
    assert time.perf_counter() - start < 300.0


@_report(7, "schedule semantics")
def test_criterion_7_schedule_semantics():
    const = get_constellation("4qam")
    for cid in ALL_CODES:
        code = get_code(cid)
        for m in (1, 2):
            rng = np.random.default_rng(707)
            hs = np.empty((1000, 2 * code.n * m))
            ys = np.empty((1000, 2 * m * code.t))
            soft = np.empty((1000, 2 * code.k))
            for i in range(1000):
                H = sample_channel_matrix(rng, code.n, m)
                lat = build_check_H(code, H)
                hs[i] = vectorize_received(H)
                ys[i] = rng.standard_normal(2 * m * code.t)
                soft[i] = decode_lattice(lat, ys[i], const)[0]
            scale = np.maximum(1.0, np.max(np.abs(soft), axis=1))
            for level in LEVELS:
                sched = generate_schedule(code, m, level)
                got = execute_schedule(sched, hs, ys)
                err = np.max(np.abs(got - soft), axis=1)
                assert np.all(err <= 1e-12 * scale), (cid, m, level)


@_report(8, "noise-free round trip")
def test_criterion_8_noise_free():
    for cid in ALL_CODES:
        for mod in ("4qam", "16qam"):
            cfg = SimConfig(code=cid, constellation=mod,
                            snr_db=(math.inf,), trials=1000, seed=808)
            point = run_ber(cfg).points[0]
            assert point.sym_errors == 0, (cid, mod)
            assert point.bit_errors == 0, (cid, mod)


@_report(9, "deterministic outputs and SER trend")
def test_criterion_9_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    assert table_csv() == table_csv()
    for name in ("t1.csv", "t2.csv"):
        assert main(["table", "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    for name in ("s1", "s2"):
        rc = main(["simulate", "--code", "g2", "--mod", "16qam",
                   "--snr", "2,10", "--trials", "500", "--seed", "42",
                   "--out", str(tmp_path / name)])
        assert rc == 0
    capsys.readouterr()
    for ext in (".json", ".csv"):
        assert (tmp_path / f"s1{ext}").read_bytes() == \
            (tmp_path / f"s2{ext}").read_bytes()
    doc = json.loads((tmp_path / "s1.json").read_text())
    assert doc["schema"] == "ostbc-lab/1"

    cfg = SimConfig(code="g2", constellation="4qam",
                    snr_db=(0.0, 6.0, 12.0, 18.0), trials=100000, seed=909)
    sers = [p.ser for p in run_ber(cfg).points]
    assert all(a > b for a, b in zip(sers, sers[1:])), sers
    assert sers[0] > 0.0


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-v"])
