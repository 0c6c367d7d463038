import json

import pytest

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


def test_count_dump_file(capsys, tmp_path):
    path = tmp_path / "g2.sched"
    rc, out, err = run(capsys, "count", "--code", "g2", "--dump", str(path))
    assert rc == 0
    text = path.read_text()
    assert text.startswith("schedule g2 M=1 level=L2\n")
    assert text.rstrip().endswith("count RM=28 RA=15")
    assert f"wrote {path}" in err


def test_unknown_code_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--code", "g9"])
    assert exc.value.code == 2


def test_table_stdout_matches_library(capsys):
    rc, out, _ = run(capsys, "table")
    assert rc == 0
    assert out == table_csv()
    lines = out.splitlines()
    assert lines[0] == "# schema: ostbc-lab/1"
    assert lines[1] == "code,m,source,rm,ra"
    assert "g3,2,L2,121,195" in lines
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


def test_verify_builtin_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--code", "h3", "--trials", "50")
    assert rc == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["c"] == 1
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


@pytest.mark.parametrize("snr", ["nan", "0,-inf"])
def test_simulate_rejects_undefined_snr(capsys, tmp_path, snr):
    rc, _, err = run(capsys, "simulate", "--code", "g2", "--mod", "4qam",
                     "--snr", snr, "--out", str(tmp_path / "x"))
    assert rc == 2
    assert "snr_db" in err
    assert not (tmp_path / "x.json").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
