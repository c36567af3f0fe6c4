import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("family,theta,digest", [
    ("jp1-r2", "1/3", "d3d6868102779e2556ec341271070f9d1c9cf11a15c4d6425c5b1f03090c3214"),
    ("jp1-r2", "1/2", "003998fb41fccd64e9d8dc2d7a63dd5c6d6886a40852169beabf9c0c4477e027"),
    ("jp2-r2", "1/3", "b65fd22e88708b1131e35c7dec606818fd9b1913334bd9e055084527ab103d42"),
])
def test_density_csv_keeps_its_bytes(tmp_path, family, theta, digest):
    assert run(tmp_path, "density", "--family", family, "--theta", theta, "--emit", "d.csv") == 0
    assert hashlib.sha256((tmp_path / "d.csv").read_bytes()).hexdigest() == digest


# roots (complex and real path), a histogram and curve samples: the CSV bytes
# and the sidecar's certificate and precision, pinned before the CSV writers
# were merged into one
PRODUCT = (("hyper", "--n", "4", "--a", "3,5/2", "--b", "1,7/3", "--out", "p.json"),
           ("hyper", "--n", "4", "--a", "2", "--b", "3", "--out", "q.json"),
           ("conv", "--op", "mult", "--n", "4", "--p", "p.json", "--q", "q.json", "--out", "r.json"))
LAGUERRE = (("hyper", "--n", "6", "--b", "2", "--out", "lag.json"),)


@pytest.mark.parametrize("setup,argv,name,digest,meta", [
    (PRODUCT, ("roots", "--p", "r.json", "--out", "roots.csv"), "roots.csv",
     "849d997b3e08fc2b7773aa50ff034a29a951e2852287e6de12c6a04e5e672c66",
     {"certificate": None, "precision_bits": 256}),
    (LAGUERRE, ("roots", "--p", "lag.json", "--out", "lroots.csv", "--hist", "4", "--hist-out", "h.csv"), "lroots.csv",
     "ae2e63ae9d9fb1a95d26474e5f8f3bb6459ffc44ae9aa8e39e1aed671c67e8e7",
     {"certificate": {"isolated": 6, "real": True}, "precision_bits": 256}),
    (LAGUERRE, ("roots", "--p", "lag.json", "--out", "lroots.csv", "--hist", "4", "--hist-out", "h.csv"), "h.csv",
     "1e022b9ca6e4af650d922d3f2230a0a181abf33a87da89cd0b3a9daee0c14e6f",
     {"precision_bits": 256}),
    ((), ("limit", "--family", "jp1", "--theta", "1/3,2/3", "--K", "4", "--out", "fam.json",
          "--samples", "s.csv", "--grid", "7"), "s.csv",
     "e100d0c8a89670eda9e972f7d7d67a63c3b9c49478c67a821ff2c14ef2f4ea92",
     {"precision_bits": None}),
], ids=["roots-complex", "roots-real", "hist", "limit-samples"])
def test_csv_outputs_keep_their_bytes(tmp_path, setup, argv, name, digest, meta):
    for step in (*setup, argv):
        assert run(tmp_path, *step) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
    sidecar = json.loads((tmp_path / f"{name}.meta.json").read_text())
    assert set(sidecar) == {"command", "revision", *meta}
    assert {k: sidecar[k] for k in meta} == meta
    assert sidecar["command"] == "finfree " + " ".join(argv)


def test_limit_samples_are_curve_roots_to_the_last_bits(tmp_path):
    # the samples pinned above: each within 1e-14 relative of the branch root
    # that 50-digit Newton reaches from it on the exact curve
    import mpmath

    argv = ("limit", "--family", "jp1", "--theta", "1/3,2/3", "--K", "4", "--out", "fam.json",
            "--samples", "s.csv", "--grid", "7")
    assert run(tmp_path, *argv) == 0
    coeffs = json.loads((tmp_path / "fam.json").read_text())["curve"]
    terms = [(*map(int, k.split(",")), F(v)) for k, v in coeffs.items()]
    rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    assert len(rows) == 7
    with mpmath.workdps(50):
        terms = [(i, j, mpmath.mpf(c.numerator) / c.denominator) for i, j, c in terms]
        for row in rows:
            u_re, re_y, im_y = map(float, row.split(","))
            u, y_csv = mpmath.mpc(u_re, 1e-3), mpmath.mpc(re_y, im_y)
            y = y_csv
            for _ in range(20):
                f = sum(c * y**i * u**j for i, j, c in terms)
                df = sum(c * i * y ** (i - 1) * u**j for i, j, c in terms if i)
                step = f / df
                y -= step
            assert abs(step) < mpmath.mpf(10) ** -40 * abs(y)
            assert abs(y_csv - y) <= 1e-14 * abs(y), row


def test_verify_subcommand(tmp_path, capsys):
    assert run(tmp_path, "verify", "--suite", "identities", "--n", "6", "--draws", "5") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert run(tmp_path, "verify", "--suite", "mp-chain") == 0
    assert "PASS  support candidates [0, 4]  [[0.0, 4.0]]\n" in capsys.readouterr().out


def test_usage_and_error_exit_codes(tmp_path, capsys):
    assert run(tmp_path, "bogus-subcommand") == 2
    assert run(tmp_path, "verify", "--suite", "nope") == 2
    assert "error: argument --suite: invalid choice: 'nope'" in capsys.readouterr().err
    # numeric failure: unknown mop family exits 1 with a diagnostic
    assert run(tmp_path, "mop", "--family", "nope", "--n", "2,2", "--alpha", "1/2,3/7") == 1


@pytest.mark.parametrize("text", [
    None,
    "{not json",
    '{"n": 1, "e": ["1", "x"]}',
    '{"n": 1, "e": ["1", "1/0"]}',
    "[1, 2]",
], ids=["missing", "bad-json", "bad-fraction", "zero-denominator", "not-an-object"])
@pytest.mark.parametrize("cmd", ["roots", "conv"])
def test_unreadable_polynomial_files_are_errors(tmp_path, capsys, text, cmd):
    if text is not None:
        (tmp_path / "p.json").write_text(text)
    if cmd == "roots":
        argv = ("roots", "--p", "p.json", "--out", "roots.csv")
    else:
        argv = ("conv", "--op", "mult", "--n", "1", "--p", "p.json", "--q", "p.json", "--out", "r.json")
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read polynomial file p.json") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("hyper", "--n", "3", "--a", "5/2,x", "--out", "p.json"),
    ("hyper", "--n", "3", "--scale", "1/0", "--out", "p.json"),
    ("mop", "--family", "jp2", "--n", "2,x", "--alpha", "1/2,3/7"),
    ("mop", "--family", "jp2", "--n", "2,2", "--alpha", "1/2,3/7", "--beta", "one"),
    ("limit", "--family", "jp1", "--theta", "abc", "--out", "f.json"),
])
def test_malformed_numbers_are_usage_errors(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("hyper", "--n", "-3", "--out", "p.json"),
    ("hyper", "--n", "3.5", "--out", "p.json"),
    ("conv", "--op", "mult", "--n", "-1", "--p", "p.json", "--q", "q.json", "--out", "r.json"),
    ("roots", "--p", "p.json", "--prec", "-5", "--out", "roots.csv"),
    ("roots", "--p", "p.json", "--hist", "-2", "--out", "roots.csv"),
    ("mop", "--family", "jp2", "--n", "2,2", "--alpha", "1/2,3/7", "--emit", "r.csv", "--prec", "-1"),
    ("limit", "--family", "jp1", "--theta", "1/3,2/3", "--K", "-1", "--out", "f.json"),
    ("limit", "--family", "jp1", "--theta", "1/3,2/3", "--grid", "-4", "--out", "f.json"),
    ("density", "--family", "jp2", "--theta", "1/2", "--grid", "-1", "--emit", "d.csv"),
    ("verify", "--suite", "identities", "--draws", "-1"),
    ("verify", "--suite", "identities", "--n", "-3"),
])
def test_negative_counts_are_usage_errors(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "not a non-negative integer" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_identity_suite_below_degree_two_is_an_error(tmp_path, capsys):
    assert run(tmp_path, "verify", "--suite", "identities", "--n", "1") == 1
    assert "n_max = 1" in capsys.readouterr().err


def test_limit_at_order_zero_writes_no_moments(tmp_path):
    assert run(tmp_path, "limit", "--family", "jp1", "--theta", "1/3,2/3", "--K", "0", "--out", "f.json") == 0
    assert json.loads((tmp_path / "f.json").read_text())["moments"] == []


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


def test_roots_sidecars_read_the_certificate_of_the_solve(tmp_path, monkeypatch):
    from finfree import roots

    calls = []
    isolate = roots._isolate
    monkeypatch.setattr(roots, "_isolate", lambda *a: calls.append(1) or isolate(*a))
    meta = lambda name: json.loads((tmp_path / f"{name}.meta.json").read_text())
    assert run(tmp_path, "hyper", "--n", "6", "--b", "2", "--out", "lag.json") == 0
    assert run(tmp_path, "roots", "--p", "lag.json", "--out", "lag.csv", "--hist", "3", "--hist-out", "h.csv") == 0
    assert meta("lag.csv")["certificate"] == {"real": True, "isolated": 6} and len(calls) == 1
    assert run(tmp_path, "mop", "--family", "jp2", "--n", "3,3", "--alpha", "1/2,3/7",
               "--beta", "1", "--emit", "jp.csv") == 0
    assert meta("jp.csv")["certificate"] == {"real": True, "isolated": 6} and len(calls) == 2
    # zero roots: one is simple and isolated with the rest, two are not simple
    for name, zeros, cert in (("x", [0], {"real": True, "isolated": 1}), ("x1", [0, 1], {"real": True, "isolated": 2}),
                              ("x2", [0, 0], None), ("x21", [0, 0, 1], None)):
        (tmp_path / f"{name}.json").write_text(Polynomial.from_roots(zeros).to_json() + "\n")
        assert run(tmp_path, "roots", "--p", f"{name}.json", "--out", f"{name}.csv") == 0
        assert meta(f"{name}.csv")["certificate"] == cert


@pytest.mark.xfail(strict=True, reason="known wrong answer (ROADMAP direction 5): the complex path writes "
                                       "iteration noise (-6.1e-92, 2.9e-90) as the im of the two real roots")
def test_real_roots_of_a_complex_spectrum_are_written_exactly_real(tmp_path):
    for step in (*PRODUCT, ("roots", "--p", "r.json", "--out", "roots.csv")):
        assert run(tmp_path, *step) == 0
    ims = [float(row.split(",")[2]) for row in (tmp_path / "roots.csv").read_text().splitlines()[1:]]
    near = [im for im in ims if abs(im) < 1e-6]
    assert len(near) == 2 and near == [0.0, 0.0]


def test_roots_sidecar_certifies_roots_closer_than_a_double(tmp_path):
    # 1/3 and 1/3 + 2^-70 round to one double; the certificate reads each root whole
    p = Polynomial.from_roots([F(1, 3), F(1, 3) + F(1, 2**70), 2])
    (tmp_path / "close.json").write_text(p.to_json() + "\n")
    assert run(tmp_path, "roots", "--p", "close.json", "--out", "close.csv", "--prec", "128") == 0
    meta = json.loads((tmp_path / "close.csv.meta.json").read_text())
    assert meta["certificate"] == {"real": True, "isolated": 3}


def test_histogram_of_roots_beyond_the_double_range_is_an_error(tmp_path, capsys):
    # the CSV columns are doubles (2^-1100 -> 0.0, 2^1100 -> inf); the certificate reads the roots whole
    p = Polynomial.from_roots([F(1, 2**1100), F(1, 3), F(2**1100)])
    (tmp_path / "far.json").write_text(p.to_json() + "\n")
    assert run(tmp_path, "roots", "--p", "far.json", "--prec", "128", "--out", "far.csv", "--hist", "4") == 1
    err = capsys.readouterr().err
    assert err == "error: histogram needs finite real parts, but a root's is inf as a double\n"
    assert (tmp_path / "far.csv").read_text().splitlines()[1:] == ["0,0.0,0.0", "1,0.3333333333333333,0.0", "2,inf,0.0"]
    meta = json.loads((tmp_path / "far.csv.meta.json").read_text())
    assert meta["certificate"] == {"real": True, "isolated": 3}


def test_one_parser_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli.build_parser.cache_clear()
    ap = cli.build_parser()
    assert cli.build_parser() is ap
    n_built = len(built)
    seen = []
    parse = ap.parse_args

    def spy(argv):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(ap, "parse_args", spy)
    assert run(tmp_path, "hyper", "--n", "4", "--b", "2", "--out", "lag.json") == 0
    assert run(tmp_path, "roots", "--p", "lag.json", "--out", "r.csv", "--hist", "2", "--hist-out", "h.csv") == 0
    assert run(tmp_path, "mop", "--family", "jp2", "--n", "2,x", "--alpha", "1/2,3/7") == 2
    assert run(tmp_path, "mop", "--family", "jp2", "--n", "2,2", "--alpha", "1/2,3/7", "--emit", "m.csv") == 0
    assert len(built) == n_built
    hyper, roots, mop = map(vars, seen)
    assert len({id(ns) for ns in seen}) == 3
    assert (hyper["cmd"], hyper["b"], hyper["fn"]) == ("hyper", (F(2),), cli._cmd_hyper) and "hist" not in hyper
    assert (roots["cmd"], roots["hist"], roots["fn"]) == ("roots", 2, cli._cmd_roots) and "b" not in roots
    assert (mop["cmd"], mop["n"], mop["beta"], mop["fn"]) == ("mop", (2, 2), F(0), cli._cmd_mop)
    assert "hist" not in mop and "b" not in mop


def test_python_dash_m_runs_the_command_line(tmp_path):
    # the package's own directory first, so the run needs no installed entry point
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-m", "finfree", "verify", "--suite", "endpoints"],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert [line.split()[0] for line in out.stdout.splitlines()] == ["PASS"] * 5
