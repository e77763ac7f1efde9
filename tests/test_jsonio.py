from fractions import Fraction

import pytest

from zinbiel.catalog import get_base_algebra, get_extension_datum, get_flag_datum
from zinbiel.core import Algebra, is_zinbiel
from zinbiel.exactlin import Tensor3
from zinbiel.flag import FlagDatum, solve_reduced
from zinbiel.jsonio import (FormatError, algebra_from_json, algebra_to_json,
                            bimodule_from_json, bimodule_to_json,
                            crossed_from_json, crossed_to_json, datum_from_json,
                            datum_to_json, dumps, family_to_json,
                            flag_datum_from_json, flag_datum_to_json,
                            matched_from_json, matched_to_json, report_to_json)
from zinbiel.products import Bimodule, CrossedSystem, MatchedPair

A1 = get_base_algebra("A1")
A2 = get_base_algebra("A2")
A6 = get_base_algebra("A6")


class TestAlgebra:
    def test_round_trip(self):
        doc = algebra_to_json(A6)
        assert doc == {"dim": 3, "products": {
            "1,1": {"2": "1"}, "1,2": {"3": "1/2"}, "2,1": {"3": "1"}}}
        assert algebra_from_json(doc) == A6

    def test_round_trip_with_names(self):
        a = Algebra(2, Tensor3.from_map(2, 2, 2, {(0, 0, 1): Fraction(1)}),
                    ("x", "y"))
        assert algebra_from_json(algebra_to_json(a)) == a

    def test_ints_accepted(self):
        doc = {"dim": 3, "products": {"1,1": {"3": 1}}}
        assert algebra_from_json(doc) == get_base_algebra("A1")

    def test_zero_entries_dropped_on_parse(self):
        doc = {"dim": 2, "products": {"1,1": {"1": "0"}}}
        assert algebra_from_json(doc).mult.is_zero()

    def test_float_rejected_with_path(self):
        doc = {"dim": 3, "products": {"1,1": {"3": 0.5}}}
        with pytest.raises(FormatError, match=r"products\.1,1\.3:.*float"):
            algebra_from_json(doc)

    def test_index_out_of_range(self):
        with pytest.raises(FormatError, match="outside 1..1"):
            algebra_from_json({"dim": 1, "products": {"2,1": {"1": "1"}}})

    def test_malformed_pair_key(self):
        with pytest.raises(FormatError, match="not of the form"):
            algebra_from_json({"dim": 1, "products": {"1": {"1": "1"}}})

    def test_missing_dim(self):
        with pytest.raises(FormatError, match="missing field 'dim'"):
            algebra_from_json({"products": {}})

    def test_dumps_is_stable(self):
        a = get_base_algebra("A5", {"lambda": Fraction(2, 3)})
        b = get_base_algebra("A5", {"lambda": Fraction(2, 3)})
        assert dumps(algebra_to_json(a)) == dumps(algebra_to_json(b))
        assert dumps(algebra_to_json(a)).endswith("\n")


class TestRationalSize:
    # Refused on the written text, before Fraction() builds anything; the
    # strings stay short, so the limit is reached through the exponent.
    @pytest.mark.parametrize("text", [
        "1e4300", "1E+4300", "1e-4300", "1.5e4299", "-2e0_4300",
        "1e99999999999999999999", "3" * 2200 + "/" + "7" * 2200])
    def test_too_many_digits_refused_with_path(self, text):
        doc = {"dim": 1, "products": {"1,1": {"1": text}}}
        with pytest.raises(FormatError,
                           match=r"products\.1,1\.1: more than 4300 digits"):
            algebra_from_json(doc)

    @pytest.mark.parametrize("text,value", [
        ("1e4299", Fraction(10) ** 4299), ("25e-2", Fraction(1, 4)),
        ("1_000", Fraction(1000)), ("-3/6", Fraction(-1, 2))])
    def test_within_limit_accepted(self, text, value):
        doc = {"dim": 1, "products": {"1,1": {"1": text}}}
        assert algebra_from_json(doc).mult.at(0, 0, 0) == value

    def test_malformed_exponent_is_not_a_rational(self):
        doc = {"dim": 1, "products": {"1,1": {"1": "1e4x"}}}
        with pytest.raises(FormatError, match="not a rational"):
            algebra_from_json(doc)


class TestDatum:
    def test_round_trip(self):
        d = get_extension_datum("D5", {"lambda": 2, "a13": 3, "a23": -1})
        assert datum_from_json(datum_to_json(d)) == d

    def test_omitted_tensors_are_zero(self):
        d = datum_from_json({"base": algebra_to_json(A1), "dimV": 2})
        assert d.dimV == 2
        for name in ("actL", "actR", "projL", "projR", "omega", "star"):
            assert getattr(d, name).is_zero()

    def test_missing_base(self):
        with pytest.raises(FormatError, match="missing field 'base'"):
            datum_from_json({"dimV": 1})

    def test_nested_path_in_message(self):
        doc = {"base": algebra_to_json(A1), "dimV": 1,
               "omega": {"1,1": {"4": "1"}}}
        with pytest.raises(FormatError, match=r"omega\.1,1: index 4 outside 1..3"):
            datum_from_json(doc)


class TestProducts:
    def test_bimodule_round_trip(self):
        b = Bimodule.regular(A1)
        assert bimodule_from_json(bimodule_to_json(b)) == b

    def test_crossed_round_trip(self):
        n, w = A1.dim, A2.dim
        cs = CrossedSystem(A1, A2, Tensor3.zero(w, n, n),
                           Tensor3.zero(n, w, n), Tensor3.zero(w, w, n))
        assert crossed_from_json(crossed_to_json(cs)) == cs

    def test_matched_round_trip(self):
        mp = MatchedPair.trivial(A1, A2)
        assert matched_from_json(matched_to_json(mp)) == mp


class TestFlagDatum:
    def test_round_trip(self):
        fd = get_flag_datum("T42", {"mu1": 2, "mu2": 4, "b11": 8, "b12": 6})
        assert flag_datum_from_json(flag_datum_to_json(fd)) == fd

    def test_defaults_give_zero_datum(self):
        fd = flag_datum_from_json({"base": algebra_to_json(A1)})
        assert fd == FlagDatum.zero(A1)

    def test_sparse_x0_and_int_k0(self):
        doc = {"base": algebra_to_json(A1), "x0": {"3": "1/2"}, "k0": 2}
        fd = flag_datum_from_json(doc)
        assert fd.x0 == (0, 0, Fraction(1, 2))
        assert fd.k0 == 2

    def test_float_in_mu_rejected(self):
        doc = {"base": algebra_to_json(A1), "mu": [0.5, 0, 0]}
        with pytest.raises(FormatError, match=r"mu\[0\]"):
            flag_datum_from_json(doc)

    def test_wrong_matrix_shape(self):
        doc = {"base": algebra_to_json(A1), "D": [[0, 0, 0]]}
        with pytest.raises(FormatError, match="expected 3 rows"):
            flag_datum_from_json(doc)


class TestOutputs:
    def test_family_json(self):
        lam = get_base_algebra("A5", {"lambda": 1})
        fam = solve_reduced(lam, (Fraction(0),) * 3, "T")
        doc = family_to_json(fam)
        assert doc["residuals"] == ["t3^2", "t2*t3", "t1*t3"]
        assert len(doc["linear_basis"]) == 3
        assert doc["linear_basis"][0] == [["0", "0", "1"],
                                          ["0", "0", "0"],
                                          ["0", "0", "0"]]

    def test_report_json(self):
        bad = Algebra(1, Tensor3.from_map(1, 1, 1, {(0, 0, 0): 1}))
        doc = report_to_json(is_zinbiel(bad))
        assert doc["passed"] is False
        assert doc["conditions"][0]["witness"]["basis_tuple"] == [1, 1, 1]

    def test_report_json_pass_has_no_witness(self):
        doc = report_to_json(is_zinbiel(A6))
        assert doc["passed"] is True
        assert all("witness" not in c for c in doc["conditions"])
