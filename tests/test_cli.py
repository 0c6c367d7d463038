import itertools
import json
import re
import sys
from pathlib import Path

import pytest

from fresh_python import run_python
from ostbc_lab import cli, sim
from ostbc_lab.cli import main, table_csv
from ostbc_lab.codes import format_code_text, get_code


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_codes_listing(capsys):
    rc, out, _ = run(capsys, "codes")
    assert rc == 0
    lines = out.splitlines()
    assert "g2 N=2 T=2 K=2 c=1 rate=1" in lines
    assert "g3 N=3 T=8 K=4 c=2 rate=0.5" in lines
    assert "g4 N=4 T=8 K=4 c=2 rate=0.5" in lines
    assert "h3 N=3 T=4 K=3 c=1 rate=0.75" in lines


def test_config_echo_on_stderr(capsys):
    _, out, err = run(capsys, "codes")
    assert err.startswith("config: ")
    assert "config:" not in out


@pytest.mark.parametrize("argv,line", [
    (("count", "--code", "g2", "--m", "1", "--level", "0"), "RM=28 RA=15"),
    (("count", "--code", "g3", "--m", "2", "--level", "L1"), "RM=217 RA=195"),
    (("count", "--code", "g4", "--level", "2"), "RM=85 RA=127"),
    (("count", "--code", "h3", "--level", "L2"), "RM=54 RA=47"),
])
def test_count_golden(capsys, argv, line):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out.strip() == line


def test_schedule_dump_out_file(capsys, tmp_path):
    path = tmp_path / "g2.sched"
    rc, out, err = run(capsys, "schedule-dump", "--code", "g2", "--out",
                       str(path))
    assert rc == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith("schedule g2 M=1 level=L2\n")
    assert text.rstrip().endswith("count RM=28 RA=15")
    assert f"wrote {path}" in err


def test_console_script_is_entry(capsys, monkeypatch):
    # the [project.scripts] table read by a regex: tomllib is 3.11+, and
    # the package supports 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", text,
                        re.M)
    assert scripts.group(1).splitlines() == [
        'ostbc-lab = "ostbc_lab.cli:entry"']
    monkeypatch.setattr(sys, "argv",
                        ["ostbc-lab", "count", "--code", "g2", "--m", "0"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: m must be >= 1" in captured.err


def test_unknown_code_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--code", "g9"])
    assert exc.value.code == 2


# The paper's counts, through the schedule compiler.
PAPER_ROWS = ["g2,1,L2,28,15", "g3,2,L1,217,195", "g3,2,L2,121,195",
              "g4,1,L1,149,127", "g4,1,L2,85,127", "h3,1,L2,54,47"]


def test_table_stdout_matches_library(capsys):
    rc, out, _ = run(capsys, "table")
    assert rc == 0
    assert out == table_csv()
    lines = out.splitlines()
    assert lines[0] == "# schema: ostbc-lab/1"
    assert lines[1] == "code,m,source,rm,ra"
    assert [row for row in PAPER_ROWS if row not in lines] == []
    assert "g3,2,formula_column_sigma,300,279" in lines
    assert "g4,1,formula_channel_sigma,148,127" in lines
    assert "h3,1,L1,58,47" in lines


def test_table_file_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "table", "--out", str(a))[0] == 0
    assert run(capsys, "table", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_schedule_dump_and_level_alias(capsys):
    rc, out, _ = run(capsys, "schedule-dump", "--code", "g4", "--level", "L2")
    assert rc == 0
    assert out.startswith("schedule g4 M=1 level=L2\n")
    assert out.rstrip().endswith("count RM=85 RA=127")
    assert run(capsys, "schedule-dump", "--code", "g4", "--level", "2")[1] == out


def test_count_rejects_malformed_level(capsys):
    rc, out, err = run(capsys, "count", "--code", "g2", "--level", "LL2")
    assert rc == 2
    assert out == ""
    assert "error: level must be one of" in err


BUILTIN_C = {"g2": 1, "g3": 2, "g4": 2, "h3": 1}


@pytest.mark.parametrize("cid,m", itertools.product(BUILTIN_C, (1, 2)))
def test_verify_builtin_passes(capsys, cid, m):
    rc, out, _ = run(capsys, "verify", "--code", cid, "--m", str(m),
                     "--trials", "200")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["c"] == BUILTIN_C[cid]
    assert doc["max_offdiag_rel"] < 1e-9


def test_verify_corrupted_file_fails(capsys, tmp_path):
    lines = format_code_text(get_code("g2")).splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.split() == ["1", "0"])
    lines[row] = "-1 0"
    path = tmp_path / "bad.code"
    path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, "verify", "--file", str(path), "--trials", "20")
    assert rc == 1
    assert json.loads(out)["pass"] is False


def test_verify_malformed_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "short.code"
    path.write_text(format_code_text(get_code("g2")).rsplit("\n", 2)[0] + "\n")
    rc, out, err = run(capsys, "verify", "--file", str(path), "--trials", "5")
    assert rc == 2
    assert out == ""
    assert "error: block 'B2' is truncated" in err


def test_verify_file_with_wrong_declared_c_fails(capsys, tmp_path):
    # a g2 file that declares c = 2: the dispersion matrices give c = 1
    text = format_code_text(get_code("g2")).replace(" c=1", " c=2", 1)
    assert " c=2" in text
    path = tmp_path / "g2c2.code"
    path.write_text(text)
    rc, out, err = run(capsys, "verify", "--file", str(path), "--trials", "5")
    assert rc == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert "c = 2" in doc["reason"] and "c = 1" in doc["reason"]
    assert "invariant failure" not in err


@pytest.mark.parametrize("file_first", [True, False])
def test_verify_rejects_file_next_to_code(capsys, tmp_path, file_first):
    # allowed, the config line echoed "code": "g4" while the file's g2 was
    # verified, with exit 0; "--code g2" slipped past in-process while g2
    # was --code's default, since argparse saw the interned default itself
    path = tmp_path / "g2.code"
    path.write_text(format_code_text(get_code("g2")))
    for cid in ("g4", "g2"):
        first, second = ["--file", str(path)], ["--code", cid]
        if not file_first:
            first, second = second, first
        argv = ["verify", *first, *second]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "not allowed with argument" in captured.err


def test_verify_echoes_only_the_code_it_verifies(capsys):
    # with --code defaulting to g2, "verify --file h4.code" echoed
    # "code": "g2" while it verified h4
    path = str(Path(__file__).with_name("h4.code"))
    rc, out, err = run(capsys, "verify", "--file", path, "--trials", "3")
    assert rc == 0 and json.loads(out)["code"] == "h4"
    config = json.loads(err.removeprefix("config: ").splitlines()[0])
    assert config["file"] == path and config["code"] is None
    # with neither option, verify still checks g2
    rc, out, err = run(capsys, "verify", "--trials", "3")
    assert rc == 0 and json.loads(out)["code"] == "g2"


@pytest.mark.parametrize("module", ["ostbc_lab", "ostbc_lab.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = run_python("-m", module, "verify", "--code", "g3", "--m", "2",
                      "--trials", "50", timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True
    proc = run_python("-m", module, "verify", "--m", "0", timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--m" in proc.stderr
    h4 = str(Path(__file__).with_name("h4.code"))
    proc = run_python("-m", module, "verify", "--file", h4, "--code", "g2",
                      timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not allowed with argument" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--trials", "0"],
    ["--trials", "-3"],
    ["--seed", "-1"],
    ["--seed", str(2 ** 64)],
    ["--m", "0"],
    ["--m", "-1"],
])
def test_verify_rejects_vacuous_or_out_of_range(capsys, argv):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 2
    assert out == ""
    assert "error:" in err
    assert argv[0] in err  # the message names the offending option


def test_simulate_outputs(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("OSTBC_LAB_THREADS", raising=False)
    pre1, pre2 = tmp_path / "r1", tmp_path / "r2"
    rc, out, _ = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                     "--snr", "0,6", "--trials", "200", "--seed", "5",
                     "--out", str(pre1))
    assert rc == 0
    assert out.startswith("seed=5 agreement=1 wrote ")
    rc2, _, _ = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                    "--snr", "0,6", "--trials", "200", "--seed", "5",
                    "--out", str(pre2))
    assert rc2 == 0
    for ext in (".json", ".csv"):
        f1 = (tmp_path / ("r1" + ext)).read_bytes()
        f2 = (tmp_path / ("r2" + ext)).read_bytes()
        assert f1 == f2
    doc = json.loads((tmp_path / "r1.json").read_text())
    assert doc["schema"] == "ostbc-lab/1"
    assert doc["config"]["trials"] == 200


# Each sweep at seed 5 on one worker and on two:
# - g3-m2: one SNR point cut into three (point, block) tasks.
# - g2: two points of 16385 trials, three tasks per point. A g2 draw block
#   holds 1433 trials, which does not divide the 8192-trial task, so each
#   task ends on a clipped block and the 1-trial last task is a block of
#   its own.
# - h3-all: two points of 9000 trials, two tasks per point, one of them
#   partial, and all five decode routes.
# - g3-m2-all: the exhaustive search covers 4**8 = 65536 candidates per
#   trial, and two points of 2000 trials are two tasks, one per worker.
# - g4-m2-all: the complex routes build F from every (trial, receive
#   antenna) pair at once, so a slip in the receive antenna order of F's
#   rows breaks agreement with the lattice route and the search here,
#   where M = 1 cannot show it.
WORKER_SWEEPS = {
    "g3-m2": "--code g3 --m 2 --mod 16qam --snr 0 --trials 20000",
    "g2": "--code g2 --mod 16qam --snr 0,6 --trials 16385",
    "h3-all": "--code h3 --mod 4qam --snr 0,6 --trials 9000 --decoders all",
    "g3-m2-all": "--code g3 --m 2 --mod 16qam --snr 0,6 --trials 2000 "
                 "--decoders all",
    "g4-m2-all": "--code g4 --m 2 --mod 4qam --snr 0,6 --trials 9000 "
                 "--decoders all",
}


@pytest.mark.parametrize("name", WORKER_SWEEPS)
def test_simulate_independent_of_worker_count(capsys, tmp_path, monkeypatch,
                                              no_live_pool, name):
    # the files must be byte-identical, and every selected decode route
    # must agree on every trial; the CPU count is raised so "2" runs two
    # pool workers on any host
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    for threads in ("1", "2"):
        monkeypatch.setenv("OSTBC_LAB_THREADS", threads)
        rc, _, _ = run(capsys, "simulate", *WORKER_SWEEPS[name].split(),
                       "--seed", "5", "--out", str(tmp_path / threads))
        assert rc == 0
    assert sim._POOL[1] == 2
    for ext in (".json", ".csv"):
        assert (tmp_path / f"1{ext}").read_bytes() \
            == (tmp_path / f"2{ext}").read_bytes()
    assert json.loads((tmp_path / "1.json").read_text())["agreement"] == 1.0


def test_simulate_out_into_missing_directory_fails_before_sweep(
        capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_ber", lambda config: calls.append(config))
    rc, out, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                       "--snr", "0", "--trials", "10",
                       "--out", str(tmp_path / "missing" / "x"))
    assert rc == 2
    assert out == ""
    assert "error: --out directory" in err and "missing" in err
    assert calls == []


@pytest.mark.parametrize("ext", [".json", ".csv"])
def test_simulate_out_onto_a_directory_fails_before_sweep(
        capsys, tmp_path, monkeypatch, ext):
    calls = []
    monkeypatch.setattr(cli, "run_ber", lambda config: calls.append(config))
    (tmp_path / f"x{ext}").mkdir()
    rc, out, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                       "--snr", "0", "--trials", "10",
                       "--out", str(tmp_path / "x"))
    assert rc == 2
    assert out == ""
    assert "error: --out file" in err and f"x{ext}" in err
    assert calls == []


def test_simulate_unknown_constellation(capsys, tmp_path):
    rc, _, err = run(capsys, "simulate", "--code", "g2", "--mod", "8psk",
                     "--snr", "0", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "error:" in err


def test_simulate_bad_snr_list(capsys, tmp_path):
    rc, _, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                     "--snr", "3,x", "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "bad --snr" in err


def test_simulate_bad_thread_count_names_variable(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("OSTBC_LAB_THREADS", "abc")
    rc, _, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                     "--snr", "3", "--trials", "10",
                     "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "error: OSTBC_LAB_THREADS" in err


@pytest.mark.parametrize("snr", ["nan", "0,-inf", "-4000"])
def test_simulate_rejects_undefined_snr(capsys, tmp_path, snr):
    rc, out, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                       "--snr", snr, "--trials", "10",
                       "--out", str(tmp_path / "x"))
    assert rc == 2
    assert out == ""
    assert "snr_db" in err
    assert not (tmp_path / "x.json").exists()


def test_simulate_snr_list_below_zero(capsys, tmp_path):
    # argparse reads a value that starts with '-' and is not a plain number
    # as an option; a list from below 0 dB is still --snr's value
    base = ["simulate", "--code", "g2", "--mod", "4qam", "--trials", "5"]
    rc, out, err = run(capsys, *base, "--snr", "-5,0",
                       "--out", str(tmp_path / "a"))
    assert rc == 0, err
    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["config"]["snr_db"] == [-5.0, 0.0]
    rc, out, err = run(capsys, *base, "--sn", "-5,0",
                       "--out", str(tmp_path / "abbreviated"))
    assert rc == 0, err
    assert (tmp_path / "abbreviated.json").read_bytes() == \
        (tmp_path / "a.json").read_bytes()
    rc, out, err = run(capsys, *base, "--snr", "-inf,0",
                       "--out", str(tmp_path / "b"))
    assert rc == 2
    assert out == ""
    assert "snr_db" in err
    assert not (tmp_path / "b.json").exists()
    proc = run_python("-m", "ostbc_lab", *base, "--snr", "-5,0",
                      "--out", str(tmp_path / "c"), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "c.json").read_bytes() == \
        (tmp_path / "a.json").read_bytes()
    proc = run_python("-m", "ostbc_lab", *base, "--snr", "-inf,0",
                      "--out", str(tmp_path / "d"), timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "snr_db" in proc.stderr
    assert not (tmp_path / "d.json").exists()


@pytest.mark.parametrize("decoders, match", [
    ("all,bogus", r"unknown decoders \['bogus'\]"),
    ("lattice,lattice", "decoders must not repeat a name"),
], ids=["unknown-next-to-all", "repeated"])
def test_simulate_rejects_decoder_list(capsys, tmp_path, decoders, match):
    rc, out, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                       "--snr", "0", "--trials", "10", "--decoders",
                       decoders, "--out", str(tmp_path / "x"))
    assert rc == 2
    assert out == ""
    assert re.search(match, err)
    assert not (tmp_path / "x.json").exists()


def test_simulate_negative_trials_names_the_option(capsys, tmp_path):
    rc, out, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                       "--snr", "0", "--trials", "-5",
                       "--out", str(tmp_path / "x"))
    assert rc == 2
    assert out == ""
    assert "error: trials must be >= 1" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
