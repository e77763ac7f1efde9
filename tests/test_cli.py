import json

import pytest

from zinbiel.catalog import get_base_algebra
from zinbiel.cli import run
from zinbiel.core import Algebra
from zinbiel.exactlin import Matrix, Tensor3
from zinbiel.jsonio import algebra_to_json, bimodule_to_json, dumps, matched_to_json
from zinbiel.products import Bimodule, factorization_extract


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


def a3_pair():
    return factorization_extract(
        get_base_algebra("A3"),
        Matrix.from_rows([[1, 0, 0], [0, 0, 1]]),
        Matrix.from_rows([[0, 1, 0]]))


class TestCheck:
    def test_pass(self, tmp_path, capsys):
        path = write(tmp_path, "a1.json", algebra_to_json(get_base_algebra("A1")))
        assert run(["check", "zinbiel", path]) == 0
        assert "report: PASS" in capsys.readouterr().out

    def test_fail_prints_witness(self, tmp_path, capsys):
        bad = Algebra(1, Tensor3.from_map(1, 1, 1, {(0, 0, 0): 1}))
        path = write(tmp_path, "bad.json", algebra_to_json(bad))
        assert run(["check", "zinbiel", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL at (1,1,1)" in out and "lhs (1) != rhs (2)" in out

    def test_malformed_json_names_the_line(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", '{"dim": 1, ')
        assert run(["check", "zinbiel", path]) == 2
        assert "line 1 column 12" in capsys.readouterr().err

    def test_float_entry_names_the_field(self, tmp_path, capsys):
        path = write(tmp_path, "floaty.json",
                     '{"dim": 1, "products": {"1,1": {"1": 0.5}}}')
        assert run(["check", "zinbiel", path]) == 2
        assert "products.1,1.1" in capsys.readouterr().err

    def test_oversized_rational_names_the_field(self, tmp_path, capsys):
        path = write(tmp_path, "huge.json",
                     '{"dim": 2, "products": {"1,2": {"2": "1e400000"}}}')
        assert run(["check", "zinbiel", path]) == 2
        err = capsys.readouterr().err
        assert "products.1,2.2: more than 4300 digits" in err
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path, capsys):
        assert run(["check", "zinbiel", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_output_is_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "a6.json", algebra_to_json(get_base_algebra("A6")))
        assert run(["check", "zinbiel", path, "--json"]) == 0
        first = capsys.readouterr().out
        assert run(["check", "zinbiel", path, "--json"]) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["passed"] is True

    def test_usage_error(self, capsys):
        assert run(["check", "nonsense", "x.json"]) == 2
        assert "invalid choice" in capsys.readouterr().err


NOT_ZINBIEL = {"dim": 1, "products": {"1,1": {"1": "1"}}}   # e1.e1 = e1
NULL_LINE = {"dim": 1}

# Every check and build subject on a structure whose base (or top)
# algebra is not Zinbiel.  `check zinbiel` is missing on purpose: there the
# identity is the subject, not a precondition, and its FAIL is exit 1.
NON_ZINBIEL_CASES = [
    (verb, subject, doc)
    for verb, subjects in (
        ("check", ("datum", "crossed", "matched", "flag", "bimodule")),
        ("build", ("unified", "semidirect", "crossed", "bicrossed", "flag",
                   "rdeform")))
    for subject in subjects
    for doc in (
        [{"base": NOT_ZINBIEL, "top": NULL_LINE},
         {"base": NULL_LINE, "top": NOT_ZINBIEL}]
        if subject in ("crossed", "matched", "bicrossed", "rdeform")
        else [{"base": NOT_ZINBIEL, "dimV": 1}])
]


@pytest.mark.parametrize(
    "verb,subject,doc", NON_ZINBIEL_CASES,
    ids=[f"{v}-{s}-{'base' if d['base'] is NOT_ZINBIEL else 'top'}"
         for v, s, d in NON_ZINBIEL_CASES])
def test_non_zinbiel_input_is_unusable(tmp_path, capsys, verb, subject, doc):
    paths = [write(tmp_path, "in.json", doc)]
    if subject == "rdeform":
        paths.append(write(tmp_path, "r.json", "[[0]]\n"))
    assert run([verb, subject, *paths]) == 2
    err = capsys.readouterr().err
    assert "must be Zinbiel" in err
    assert "Traceback" not in err


class TestSolve:
    def test_recorded_example(self, tmp_path, capsys):
        path = write(tmp_path, "a2.json", algebra_to_json(get_base_algebra("A2")))
        assert run(["solve", "flag", path, "--mode", "D", "--mu", "1,0,1/2"]) == 0
        assert capsys.readouterr().out == \
            '{"linear_basis": [], "residuals": []}\n'

    def test_two_parameter_family(self, tmp_path, capsys):
        path = write(tmp_path, "a5.json",
                     algebra_to_json(get_base_algebra("A5", {"lambda": 1})))
        assert run(["solve", "flag", path, "--mode", "D", "--mu", "0,0,0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["linear_basis"]) == 2 and doc["residuals"] == []

    def test_bad_mu_is_usage_error(self, tmp_path, capsys):
        path = write(tmp_path, "a2.json", algebra_to_json(get_base_algebra("A2")))
        assert run(["solve", "flag", path, "--mode", "D", "--mu", "1,zz"]) == 2


class TestBuildAndExtract:
    def test_extract_then_unified_round_trip(self, tmp_path, capsys):
        a6 = write(tmp_path, "a6.json", algebra_to_json(get_base_algebra("A6")))
        assert run(["extract", a6, "--z", "2,3"]) == 0
        datum_doc = capsys.readouterr().out
        dpath = write(tmp_path, "datum.json", datum_doc)
        assert run(["check", "datum", dpath]) == 0
        capsys.readouterr()
        assert run(["build", "unified", dpath]) == 0
        built = write(tmp_path, "built.json", capsys.readouterr().out)
        assert run(["check", "zinbiel", built]) == 0

    def test_extract_open_span(self, tmp_path, capsys):
        a6 = write(tmp_path, "a6.json", algebra_to_json(get_base_algebra("A6")))
        assert run(["extract", a6, "--z", "1,3"]) == 1
        assert "not closed" in capsys.readouterr().err

    def test_extract_bad_indices(self, tmp_path, capsys):
        a6 = write(tmp_path, "a6.json", algebra_to_json(get_base_algebra("A6")))
        assert run(["extract", a6, "--z", "1,2,3"]) == 2
        assert run(["extract", a6, "--z", "0,1"]) == 2

    def test_flag_build_refused_without_force(self, tmp_path, capsys):
        capsys.readouterr()
        assert run(["catalog", "emit", "D1", "--param", "mu1=2",
                    "--param", "a21=3"]) == 0
        fd = write(tmp_path, "d1.json", capsys.readouterr().out)
        assert run(["build", "flag", fd]) == 1
        captured = capsys.readouterr()
        assert "F1: FAIL" in captured.out
        assert "--force" in captured.err
        assert run(["build", "flag", fd, "--force"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 4

    def test_semidirect(self, tmp_path, capsys):
        b = Bimodule.regular(get_base_algebra("A1"))
        path = write(tmp_path, "bim.json", bimodule_to_json(b))
        assert run(["build", "semidirect", path]) == 0
        built = write(tmp_path, "sd.json", capsys.readouterr().out)
        assert run(["check", "zinbiel", built]) == 0

    def test_rdeform(self, tmp_path, capsys):
        mp = write(tmp_path, "pair.json", matched_to_json(a3_pair()))
        rpath = write(tmp_path, "r.json", "[[0, 1]]\n")
        assert run(["build", "rdeform", mp, rpath]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 1

    def test_rdeform_rejects_non_map(self, tmp_path, capsys):
        # on the A1 pair r(u) = e1 breaks the condition: r(u).r(u) = e3
        pair = factorization_extract(
            get_base_algebra("A1"),
            Matrix.from_rows([[1, 0, 0], [0, 0, 1]]),
            Matrix.from_rows([[0, 1, 0]]))
        mp = write(tmp_path, "pair.json", matched_to_json(pair))
        rpath = write(tmp_path, "r.json", "[[1, 0]]\n")
        assert run(["build", "rdeform", mp, rpath]) == 1
        assert "not a deformation map" in capsys.readouterr().err

    def test_wrong_file_count(self, tmp_path, capsys):
        mp = write(tmp_path, "pair.json", matched_to_json(a3_pair()))
        assert run(["build", "rdeform", mp]) == 2


class TestCatalog:
    def test_list_covers_every_id(self, capsys):
        from zinbiel.catalog import all_ids
        assert run(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == all_ids()

    def test_emit_algebra_matches_library(self, capsys):
        assert run(["catalog", "emit", "A3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == algebra_to_json(get_base_algebra("A3"))

    def test_emit_extension(self, capsys):
        assert run(["catalog", "emit", "DA2", "--param", "mu1=2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 4
        assert doc["products"]["4,1"] == {"4": "2"}

    def test_emit_errors(self, capsys):
        assert run(["catalog", "emit", "A9"]) == 2
        assert run(["catalog", "emit", "D1"]) == 2
        assert run(["catalog", "emit", "A5", "--param", "lambda=0"]) == 2
        assert run(["catalog", "emit", "A5", "--param", "lambda"]) == 2


class TestVerify:
    def test_paper_json(self, capsys):
        assert run(["verify", "paper", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["criteria_run"] == 10 and doc["passed"] is True
        assert len(doc["known_inconsistencies"]) == 3
