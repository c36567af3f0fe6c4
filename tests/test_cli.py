import json
import os
import subprocess
from fractions import Fraction as F

from finfree import cli
from finfree.cli import main
from finfree.poly import Polynomial


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_hyper_conv_roots_pipeline(tmp_path):
    assert run(tmp_path, "hyper", "--n", "4", "--a", "3,5/2", "--b", "1,7/3", "--out", "p.json") == 0
    assert run(tmp_path, "hyper", "--n", "4", "--a", "2", "--b", "3", "--out", "q.json") == 0
    assert run(tmp_path, "conv", "--op", "mult", "--n", "4", "--p", "p.json", "--q", "q.json", "--out", "r.json") == 0
    assert run(tmp_path, "roots", "--p", "r.json", "--out", "roots.csv") == 0
    lines = (tmp_path / "roots.csv").read_text().splitlines()
    assert lines[0] == "index,re,im"
    assert len(lines) == 5
    # histogram needs a real spectrum: a Laguerre-type 1F1 qualifies
    assert run(tmp_path, "hyper", "--n", "4", "--b", "2", "--out", "lag.json") == 0
    assert run(tmp_path, "roots", "--p", "lag.json", "--out", "lroots.csv", "--hist", "4", "--hist-out", "h.csv") == 0
    hist = (tmp_path / "h.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count,density"
    assert sum(int(r.split(",")[2]) for r in hist[1:]) == 4
    # sidecars carry command and precision
    meta = json.loads((tmp_path / "roots.csv.meta.json").read_text())
    assert "precision_bits" in meta and "command" in meta and "revision" in meta


def test_json_round_trip_through_cli(tmp_path):
    assert run(tmp_path, "hyper", "--n", "3", "--a", "5/2", "--b", "7/3", "--out", "p.json") == 0
    p = Polynomial.from_json((tmp_path / "p.json").read_text())
    assert p.to_json() == (tmp_path / "p.json").read_text().strip()


def test_byte_identical_reruns(tmp_path):
    for _ in range(2):
        assert run(tmp_path, "mop", "--family", "jp2", "--n", "2,2", "--alpha", "1/2,3/7",
                   "--beta", "1", "--out", "P.json", "--emit", "roots.csv", "--prec", "128") == 0
        if not (tmp_path / "first_roots.csv").exists():
            (tmp_path / "first_roots.csv").write_bytes((tmp_path / "roots.csv").read_bytes())
    assert (tmp_path / "roots.csv").read_bytes() == (tmp_path / "first_roots.csv").read_bytes()


def test_mop_typeI_alias(tmp_path):
    assert run(tmp_path, "mop", "--family", "jp1-typeI", "--i", "1", "--n", "3,4",
               "--alpha", "1/2,3/7", "--beta", "1", "--emit", "roots.csv") == 0
    rows = (tmp_path / "roots.csv").read_text().splitlines()[1:]
    assert len(rows) == 2  # degree n_1 - 1
    assert all(float(r.split(",")[1]) < 0 for r in rows)  # negative zeros at r = 2


def test_limit_and_density(tmp_path):
    assert run(tmp_path, "limit", "--family", "jp1", "--theta", "1/3,2/3", "--K", "4",
               "--out", "fam.json") == 0
    desc = json.loads((tmp_path / "fam.json").read_text())
    assert desc["family"] == "jp1"
    assert desc["moments"][0] == "-1/4"
    assert desc["s_transform"]["A"] == ["3", "-2"]
    assert run(tmp_path, "density", "--family", "jp1-r2", "--theta", "1/3", "--grid", "10",
               "--emit", "d.csv") == 0
    rows = (tmp_path / "d.csv").read_text().splitlines()
    assert rows[0] == "x,density" and len(rows) == 11
    assert all(float(r.split(",")[1]) >= 0 for r in rows[1:])


def test_verify_subcommand(tmp_path, capsys):
    assert run(tmp_path, "verify", "--suite", "identities", "--n", "6", "--draws", "5") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_usage_and_error_exit_codes(tmp_path):
    assert run(tmp_path, "bogus-subcommand") == 2
    # numeric failure: unknown mop family exits 1 with a diagnostic
    assert run(tmp_path, "mop", "--family", "nope", "--n", "2,2", "--alpha", "1/2,3/7") == 1


def test_sidecar_records_the_argv_given_to_main(tmp_path):
    argv = ["hyper", "--n", "3", "--a", "5/2", "--b", "7/3", "--out", "p.json"]
    assert run(tmp_path, *argv) == 0
    meta = json.loads((tmp_path / "p.json.meta.json").read_text())
    assert " ".join(argv) in meta["command"]


def test_git_describe_runs_once_per_process(tmp_path, monkeypatch):
    calls = []
    real_run = subprocess.run
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: calls.append(a) or real_run(*a, **k))
    cli._git_describe.cache_clear()
    assert run(tmp_path, "mop", "--family", "jp2", "--n", "2,2", "--alpha", "1/2,3/7",
               "--beta", "1", "--out", "P.json", "--emit", "roots.csv") == 0
    metas = [json.loads((tmp_path / f"{name}.meta.json").read_text()) for name in ("P.json", "roots.csv")]
    assert metas[0]["revision"] == metas[1]["revision"]
    assert len(calls) == 1


def test_roots_sidecars_carry_the_certificate(tmp_path):
    meta = lambda name: json.loads((tmp_path / f"{name}.meta.json").read_text())
    assert run(tmp_path, "hyper", "--n", "5", "--b", "2", "--out", "lag.json") == 0
    assert run(tmp_path, "roots", "--p", "lag.json", "--out", "lag.csv") == 0
    assert meta("lag.csv")["certificate"] == {"real": True, "isolated": 5}
    assert "certificate" not in meta("lag.json")
    # x^2 + 1 fails Descartes: the complex path runs, and no certificate holds
    (tmp_path / "c.json").write_text(Polynomial.from_monomial([1, 0, 1]).to_json() + "\n")
    assert run(tmp_path, "roots", "--p", "c.json", "--out", "c.csv", "--prec", "128") == 0
    assert meta("c.csv")["certificate"] is None
    assert meta("c.csv")["precision_bits"] == 128
    assert run(tmp_path, "mop", "--family", "jp2", "--n", "3,3", "--alpha", "1/2,3/7",
               "--beta", "1", "--emit", "jp.csv") == 0
    assert meta("jp.csv")["certificate"] == {"real": True, "isolated": 6}
