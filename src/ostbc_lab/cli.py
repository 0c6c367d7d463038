"""Command-line front end.

Subcommands: codes, verify, count, table, schedule-dump, simulate.
Exit codes: 0 success / checks PASS, 1 invariant failure, 2 usage error.
Every run echoes its resolved configuration to stderr; stdout carries only
the command's payload, so redirected output is machine-clean.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

from . import __version__
from ._substreams import trial_rng
from .codes import (
    CodeFormatError,
    OrthogonalityError,
    UnknownCodeError,
    builtin_code_ids,
    get_code,
    load_code_file,
    measure_c,
)
from .constellation import ConstellationError, constellation_names
from .lattice import build_check_H, verify_lattice
from .schedule import (
    LEVELS,
    count_ops,
    dump_schedule,
    formula_channel_sigma,
    formula_column_sigma,
    generate_schedule,
)
from .sim import (
    DECODER_NAMES,
    SCHEMA,
    SimConfig,
    ber_to_csv,
    ber_to_json,
    run_ber,
    sample_channel,
)

__all__ = ["main", "entry", "table_csv", "TABLE_M"]

# Receive-antenna counts the reference tallies are quoted at.
TABLE_M = {"g2": 1, "g3": 2, "g4": 1, "h3": 1}


def _echo_config(args: argparse.Namespace) -> None:
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {json.dumps(shown, default=str, sort_keys=True)}",
          file=sys.stderr)


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def cmd_codes(args) -> int:
    for cid in builtin_code_ids():
        code = get_code(cid)
        print(f"{cid} N={code.n} T={code.t} K={code.k} c={code.c} "
              f"rate={code.rate:g}")
    return 0


def _verify_failure(code, reason: str) -> int:
    print(json.dumps({"schema": SCHEMA, "code": code.id, "pass": False,
                      "reason": reason}, sort_keys=True))
    return 1


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.m < 1:
        raise ValueError("--m must be >= 1")
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError("--seed must fit in 64 bits")
    code = load_code_file(args.file) if args.file \
        else get_code(args.code or "g2")
    # c is checked on the dispersion matrices before any channel is drawn:
    # a wrong declared c would otherwise surface only as disagreeing sigmas
    try:
        measured = measure_c(code)
    except OrthogonalityError as err:
        return _verify_failure(code, str(err))
    if measured != code.c:
        return _verify_failure(
            code, f"code {code.id!r} declares c = {code.c} but its "
                  f"dispersion matrices give c = {measured}")
    rng = trial_rng(args.seed, 0, 0)
    ok = True
    offdiag = spread = mismatch = 0.0
    for _ in range(args.trials):
        lat = build_check_H(code, sample_channel(code.n, args.m, rng))
        rep = verify_lattice(lat)
        ok = ok and rep.passed
        offdiag = max(offdiag, rep.max_offdiag_rel)
        spread = max(spread, rep.max_diag_spread_rel)
        mismatch = max(mismatch, rep.sigma_mismatch_rel)
    doc = {
        "schema": SCHEMA,
        "code": code.id,
        "m": args.m,
        "trials": args.trials,
        "seed": args.seed,
        "c": measured,
        "max_offdiag_rel": offdiag,
        "max_diag_spread_rel": spread,
        "max_sigma_mismatch_rel": mismatch,
        "pass": bool(ok),
    }
    print(json.dumps(doc, sort_keys=True))
    return 0 if ok else 1


def cmd_count(args) -> int:
    sched = generate_schedule(get_code(args.code), args.m, args.level)
    rm, ra = count_ops(sched)
    print(f"RM={rm} RA={ra}")
    return 0


def table_csv() -> str:
    """Counts for every built-in code at its reference antenna count:
    generated schedules at each level plus both closed-form tallies."""
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA}\n")
    buf.write("code,m,source,rm,ra\n")
    for cid in builtin_code_ids():
        code, m = get_code(cid), TABLE_M[cid]
        rows = [(f"L{lvl}", count_ops(generate_schedule(code, m, lvl)))
                for lvl in LEVELS]
        rows.append(("formula_column_sigma",
                     formula_column_sigma(code.k, m, code.t)))
        rows.append(("formula_channel_sigma",
                     formula_channel_sigma(code.k, m, code.t, code.n)))
        for source, (rm, ra) in rows:
            buf.write(f"{cid},{m},{source},{rm},{ra}\n")
    return buf.getvalue()


def cmd_table(args) -> int:
    _write_or_print(table_csv(), args.out)
    return 0


def cmd_schedule_dump(args) -> int:
    sched = generate_schedule(get_code(args.code), args.m, args.level)
    _write_or_print(dump_schedule(sched), args.out)
    return 0


def _parse_snr(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad --snr list {text!r}") from None


def cmd_simulate(args) -> int:
    config = SimConfig(code=args.code, constellation=args.mod,
                       snr_db=_parse_snr(args.snr), trials=args.trials,
                       seed=args.seed, m=args.m,
                       decoders=tuple(args.decoders.split(",")))
    prefix = args.out or f"ber-{config.code}-{config.constellation}"
    json_path, csv_path = Path(f"{prefix}.json"), Path(f"{prefix}.csv")
    # fail before the sweep, not after it
    if not json_path.parent.is_dir():
        raise FileNotFoundError(
            f"--out directory {str(json_path.parent)!r} does not exist")
    for path in (json_path, csv_path):
        if path.is_dir():
            raise IsADirectoryError(f"--out file {str(path)!r} is a directory")
    result = run_ber(config)
    json_path.write_text(ber_to_json(result))
    csv_path.write_text(ber_to_csv(result))
    print(f"seed={config.seed} agreement={result.agreement:.17g} "
          f"wrote {json_path} {csv_path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ostbc-lab",
        description="Orthogonal space-time block codes: encoding, ML "
                    "decoding, real-operation counting, simulation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("codes", help="list built-in codes").set_defaults(
        func=cmd_codes)

    p = sub.add_parser("verify", help="check orthogonality invariants")
    source = p.add_mutually_exclusive_group()
    # no default: argparse counts an argument that is the default object as
    # absent, so an interned "g2" would slip past the exclusion in-process
    source.add_argument("--code", choices=builtin_code_ids(),
                        help="a built-in code (g2 when neither is given)")
    source.add_argument("--file", help="verify a code file, not a built-in")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="real-operation count of one schedule")
    p.add_argument("--code", required=True, choices=builtin_code_ids())
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--level", default=2)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="full count reproduction table as CSV")
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("schedule-dump", help="print one compiled schedule")
    p.add_argument("--code", required=True, choices=builtin_code_ids())
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--level", default=2)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=cmd_schedule_dump)

    p = sub.add_parser("simulate", help="Monte-Carlo error-rate sweep")
    p.add_argument("--code", required=True, choices=builtin_code_ids())
    p.add_argument("--mod", required=True,
                   help=f"constellation ({', '.join(constellation_names())})")
    p.add_argument("--snr", required=True,
                   help="comma-separated SNR list in dB (per-receive-antenna "
                        "Es/N0)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--decoders", default="lattice",
                   help=f"comma-separated: {','.join(DECODER_NAMES)} or all")
    p.add_argument("--out", help="output path prefix (default ber-CODE-MOD)")
    p.set_defaults(func=cmd_simulate)
    return parser


def _attach_snr(argv: list[str]) -> list[str]:
    """argv with each ``--snr V`` whose V starts with '-' as ``--snr=V``
    (``--sn``, its one abbreviation, too): argparse takes a value such as
    -5,0, which is not a plain number, for an option, and would refuse
    --snr for want of its value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--sn", "--snr") and arg.startswith("-"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_snr(argv))
    _echo_config(args)
    try:
        return args.func(args)
    except (OrthogonalityError, ArithmeticError) as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return 1
    except (UnknownCodeError, CodeFormatError, ConstellationError,
            FileNotFoundError, IsADirectoryError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
