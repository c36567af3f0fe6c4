"""One family registry: every entry point resolves the six family names alike."""

import json
import os
from fractions import Fraction as F

import pytest

from finfree.cli import main
from finfree.errors import UnknownFamily
from finfree.families import FAMILIES, endpoints, resolve
from finfree.mop import (
    JPSpec,
    ML1Spec,
    ML2Spec,
    jp_typeI,
    jp_typeII,
    ml1_typeI,
    ml1_typeII,
    ml2_typeI,
    ml2_typeII,
)

# every spelling that `mop`, `limit` or `family_curves` accepted before the
# registry, with the family it names
SPELLINGS = {
    "jp1": ("jp1", "jp-i", "jp-typei", "jp1-typei", "jp1-typeI", "jp-typeI", "jp_i"),
    "jp2": ("jp2", "jp-ii", "jp-typeii", "jp-typeII", "jp_ii"),
    "ml1-1": ("ml1-1", "ml1-i", "ml1-typei", "ml11", "ml1-typeI", "ml1_1"),
    "ml1-2": ("ml1-2", "ml1-ii", "ml1-typeii", "ml12", "ml1-typeII", "ml1_ii"),
    "ml2-1": ("ml2-1", "ml2-i", "ml2-typei", "ml21", "ml2-typeI", "ml2_1"),
    "ml2-2": ("ml2-2", "ml2-ii", "ml2-typeii", "ml22", "ml2-typeII", "ml2_typeii"),
}
CASES = [(name, canonical) for canonical, names in SPELLINGS.items() for name in names]

# per family: mop arguments, the API constructor call they must reproduce, and limit arguments
JP, ML1, ML2 = JPSpec((F(1, 2), F(3, 7)), F(1)), ML1Spec((F(1, 2), F(3, 7))), ML2Spec(F(1, 2), (F(1), F(2)))
JP_ARGS = ["--alpha", "1/2,3/7", "--beta", "1"]
ML1_ARGS = ["--alpha", "1/2,3/7"]
ML2_ARGS = ["--alpha", "1/2", "--c", "1,2"]
MOP = {
    "jp1": (JP_ARGS + ["--i", "2"], lambda n: jp_typeI(JP, n, 2)),
    "jp2": (JP_ARGS, lambda n: jp_typeII(JP, n)),
    "ml1-1": (ML1_ARGS + ["--i", "2"], lambda n: ml1_typeI(ML1, n, 2)),
    "ml1-2": (ML1_ARGS, lambda n: ml1_typeII(ML1, n)),
    "ml2-1": (ML2_ARGS + ["--i", "2"], lambda n: ml2_typeI(ML2, n, 2)),
    "ml2-2": (ML2_ARGS, lambda n: ml2_typeII(ML2, n)),
}
LIMIT = {name: [] for name in ("jp1", "jp2", "ml1-1", "ml1-2")}
LIMIT.update({"ml2-1": ["--A", "1/2", "--c", "1,3"], "ml2-2": ["--A", "1/2", "--c", "1,3"]})


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def test_the_registry_names_six_families_with_disjoint_spellings():
    assert [f.name for f in FAMILIES] == ["jp1", "jp2", "ml1-1", "ml1-2", "ml2-1", "ml2-2"]
    names = [s for f in FAMILIES for s in (f.name, *f.spellings)]
    assert len(names) == len(set(names))
    kinds = {(k, t) for k in ("jp", "ml1", "ml2") for t in ("I", "II")}
    assert {(f.kind, f.type_) for f in FAMILIES} == kinds


@pytest.mark.parametrize("name,canonical", CASES)
def test_every_spelling_resolves_alike_in_mop_and_limit(tmp_path, name, canonical):
    assert resolve(name).name == resolve(name.upper()).name == canonical
    assert run(tmp_path, "limit", "--family", name, "--theta", "1/3,2/3", "--K", "3", "--out", "fam.json",
               *LIMIT[canonical]) == 0
    assert json.loads((tmp_path / "fam.json").read_text())["family"] == canonical
    argv, build = MOP[canonical]
    assert run(tmp_path, "mop", "--family", name, "--n", "2,3", *argv, "--out", "P.json") == 0
    assert (tmp_path / "P.json").read_text().strip() == build((2, 3)).to_json()


@pytest.mark.parametrize(
    "name", ["jp1-r2", "JP1-r2", "Jp-I-R2", "jp_typeI_r2", "JP2-R2", "jp-ii-r2", "JP_II_r2"]
)
def test_density_accepts_any_capitalisation(tmp_path, name):
    assert run(tmp_path, "density", "--family", name, "--theta", "1/3", "--grid", "5", "--emit", "d.csv") == 0
    assert len((tmp_path / "d.csv").read_text().splitlines()) == 6


def test_endpoints_accept_any_capitalisation_and_spelling():
    third = F(1, 3)
    assert endpoints("jp-i-r2", theta=third) == endpoints("JP1-R2", theta=third) == F(243, 100)
    assert endpoints("jp_ii_r2_a", A=1) == endpoints("JP2-r2-A", A=1) == F(32, 375)
    assert endpoints("jp-typeII-R2-b", B=0) == 1
    assert endpoints("ml11-r2", theta=third) == endpoints("ML1-I-r2", theta=third)
    assert endpoints("ml1-typeII-r2", theta=F(1, 2)) == F(27, 8)
    for bad in ("JP-II-r2", "ml2-1-r2", "jp1-r2-c", "jp1-r2x", "JP-I"):
        with pytest.raises(UnknownFamily):
            endpoints(bad, theta=third)


@pytest.mark.parametrize(
    "argv",
    [
        ["mop", "--family", "nope", "--n", "2,2", "--alpha", "1/2,3/7"],
        ["limit", "--family", "nope", "--theta", "1/2,1/2", "--out", "fam.json"],
        ["density", "--family", "nope-r2", "--theta", "1/3", "--emit", "d.csv"],
        ["density", "--family", "nope", "--theta", "1/3", "--emit", "d.csv"],
    ],
    ids=["mop", "limit", "density-r2", "density"],
)
def test_unknown_family_is_one_diagnostic_everywhere(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    assert capsys.readouterr().err.startswith("error: unknown family 'nope")


@pytest.mark.parametrize(
    "argv",
    [
        ["limit", "--family", "ml2-1", "--theta", "1/2,1/2", "--out", "fam.json"],  # no --c
        ["limit", "--family", "jp1", "--theta", "1/2,1/2", "--A", "1", "--out", "fam.json"],  # 1 A for r = 2
        ["limit", "--family", "ml2-2", "--theta", "1/2,1/2", "--A", "1,2", "--c", "1,2", "--out", "fam.json"],
        ["limit", "--family", "jp1", "--theta", "1/2,1/2", "--i", "3", "--out", "fam.json"],
        ["mop", "--family", "ml22", "--n", "2,2", "--alpha", "1/2"],  # no --c
        # the second alpha used to be dropped
        ["mop", "--family", "ml2-typeii", "--n", "2,2", "--alpha", "1/2,1/3", "--c", "1,2"],
        ["mop", "--family", "jp1", "--n", "2,2", "--alpha", "1/2,3/7", "--i", "3"],
        ["mop", "--family", "jp2", "--n", "2,2,2", "--alpha", "1/2,3/7"],
    ],
)
def test_parameters_of_the_wrong_arity_are_diagnosed(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
