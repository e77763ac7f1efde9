from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zinbiel.exactlin import (
    Matrix,
    MultiPoly,
    Tensor3,
    inverse,
    nullspace,
    poly_expand_quadratic,
    rank,
    rat,
    rat_str,
    rref,
    vadd,
    vscale,
    vunit,
)

rationals = st.fractions(max_denominator=20)


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat("2/6") == Fraction(1, 3)
    assert rat(Fraction(-1, 2)) == Fraction(-1, 2)


def test_rat_refuses_inexact():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rat_str_lowest_terms():
    assert rat_str(Fraction(4, 8)) == "1/2"
    assert rat_str(Fraction(-3, 6)) == "-1/2"
    assert rat_str(Fraction(7)) == "7"


@given(rationals, rationals)
def test_rational_arithmetic_round_trips(a, b):
    assert (a + b) - b == a


def test_matrix_apply_row_convention():
    # row i holds the image of e_i, so e_1 -> e_2 is [[0,1],[0,0]]
    m = Matrix.from_rows([[0, 1], [0, 0]])
    assert m.apply(vunit(2, 0)) == (Fraction(0), Fraction(1))
    assert m.apply(vunit(2, 1)) == (Fraction(0), Fraction(0))


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix(2, 2, (Fraction(1),))
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix.identity(2).mul(Matrix.zero(3, 3))


def test_matrix_product_and_transpose():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b) == Matrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose() == Matrix.from_rows([[1, 3], [2, 4]])
    assert a.sub(a).is_zero()


def test_rref_and_rank():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    red, pivots = rref(m)
    assert red == Matrix.from_rows([[1, 2], [0, 0]])
    assert pivots == [0]
    assert rank(m) == 1
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix.zero(2, 3)) == 0


def test_nullspace_identity_is_empty():
    assert nullspace(Matrix.identity(2)) == []


def test_nullspace_rank_one():
    assert nullspace(Matrix.from_rows([[1, 2], [2, 4]])) == [
        (Fraction(-2), Fraction(1))
    ]


def test_nullspace_zero_matrix_is_standard_basis():
    assert nullspace(Matrix.zero(3, 3)) == [vunit(3, j) for j in range(3)]


def test_nullspace_normalization_clears_denominators():
    # x + y/3 = 0 has primitive solution (-1, 3)
    basis = nullspace(Matrix.from_rows([["1", "1/3"]]))
    assert basis == [(Fraction(-1), Fraction(3))]


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
).map(Matrix.from_rows)


@given(small_matrices)
@settings(max_examples=60)
def test_nullspace_vectors_are_solutions(m):
    basis = nullspace(m)
    for v in basis:
        image = tuple(
            sum((m.at(i, j) * v[j] for j in range(m.cols)), Fraction(0))
            for i in range(m.rows)
        )
        assert all(x == 0 for x in image)
    assert rank(m) + len(basis) == m.cols


def reference_nullspace(m):
    """The rref route: free coordinate 1, pivot coordinates read off the
    reduced rows, then scaled to a primitive integer vector."""
    if m.rows == 0:
        return [vunit(m.cols, j) for j in range(m.cols)]
    red, pivots = rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.at(r, fc)
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        basis.append(tuple(Fraction(x // g) for x in ints))
    return basis


@st.composite
def redundant_matrices(draw):
    """Rational rows plus zero rows, copies, multiples and combinations of
    them, in a drawn order."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                         min_size=1, max_size=4))
    extra = []
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(rationals)
        extra.append(draw(st.sampled_from([
            [0] * cols, list(a), [c * x for x in a],
            [x + c * y for x, y in zip(a, b)]])))
    everything = rows + extra
    order = draw(st.permutations(range(len(everything))))
    return Matrix.from_rows([everything[i] for i in order])


@given(small_matrices)
@settings(max_examples=60)
def test_nullspace_matches_rref_route(m):
    assert nullspace(m) == reference_nullspace(m)


@given(redundant_matrices())
@settings(max_examples=60)
def test_nullspace_matches_rref_route_on_redundant_rows(m):
    assert nullspace(m) == reference_nullspace(m)


def test_nullspace_ignores_zero_duplicate_and_dependent_rows():
    m = Matrix.from_rows([[0, 0, 0, 0], ["1/2", 1, 0, "-3/4"], [0, 0, 0, 0],
                          [2, 4, 0, -3], ["1/2", 1, 0, "-3/4"],
                          [0, 0, 1, 1], [1, 2, 1, "-1/2"]])
    assert nullspace(m) == reference_nullspace(m) == [
        (Fraction(-2), Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0), Fraction(-2), Fraction(2))]


def test_nullspace_without_rows_is_standard_basis():
    assert nullspace(Matrix(0, 2, ())) == [vunit(2, 0), vunit(2, 1)]


def test_inverse_known():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert inverse(m) == Matrix.from_rows([["-2", "1"], ["3/2", "-1/2"]])
    assert inverse(m).mul(m) == Matrix.identity(2)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        inverse(Matrix.zero(2, 3))


def test_tensor3_combine_is_bilinear_evaluation():
    # b(a_i, b_j) = coefficients along the third index
    t = Tensor3.from_map(2, 2, 2, {(0, 0, 1): 1, (1, 0, 0): "1/2"})
    u = (Fraction(2), Fraction(4))
    v = (Fraction(1), Fraction(0))
    # 2*1*b(a1,b1) + 4*1*b(a2,b1) = 2*e2 + 4*(1/2)e1
    assert t.combine(u, v) == (Fraction(2), Fraction(2))


def test_tensor3_validates_indices():
    with pytest.raises(ValueError):
        Tensor3.from_map(2, 2, 2, {(2, 0, 0): 1})
    with pytest.raises(ValueError):
        Tensor3.zero(2, 2, 2).combine((Fraction(1),), (Fraction(1), Fraction(0)))


def test_multipoly_str_forms():
    p = MultiPoly.from_terms(("t1", "t2"), {(1, 1): 1})
    assert str(p) == "t1*t2"
    q = MultiPoly.from_terms(("t1", "t2"), {(2, 0): 2, (0, 1): -1})
    assert str(q) == "2*t1^2 - t2"
    assert str(MultiPoly.zero(("t1",))) == "0"


def test_multipoly_drops_zero_terms():
    p = MultiPoly.from_terms(("t1",), {(1,): 0})
    assert p.is_zero()


def test_multipoly_normalized_is_primitive_with_positive_lead():
    p = MultiPoly.from_terms(("t1", "t2"), {(1, 1): Fraction(-2, 3), (0, 2): Fraction(4, 3)})
    n = p.normalized()
    assert [(e, c) for e, c in n.terms] == [((1, 1), Fraction(1)), ((0, 2), Fraction(-2))]


def test_multipoly_evaluate():
    p = MultiPoly.from_terms(("t1", "t2"), {(2, 0): 1, (1, 1): -3})
    assert p.evaluate([Fraction(2), Fraction(1, 2)]) == Fraction(1)


def _e(i, j):
    # 2x2 elementary matrix with a single 1 in position (i, j), 1-based
    return Matrix.from_rows(
        [[1 if (r + 1, c + 1) == (i, j) else 0 for c in range(2)] for r in range(2)]
    )


def test_expand_quadratic_zero_family():
    assert poly_expand_quadratic([Matrix.zero(2, 2)]) == []


def test_expand_quadratic_nilpotent_single():
    assert poly_expand_quadratic([_e(1, 2)]) == []


def test_expand_quadratic_two_elementaries():
    # (t1 E12 + t2 E21)^2 = t1 t2 I
    residuals = poly_expand_quadratic([_e(1, 2), _e(2, 1)])
    assert [str(p) for p in residuals] == ["t1*t2"]


def test_expand_quadratic_rejects_mixed_shapes():
    with pytest.raises(ValueError):
        poly_expand_quadratic([_e(1, 2), Matrix.zero(3, 3)])
    with pytest.raises(ValueError):
        poly_expand_quadratic([Matrix.zero(2, 3)])


@given(
    st.lists(
        st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                 min_size=2, max_size=2).map(Matrix.from_rows),
        min_size=1,
        max_size=3,
    ),
    st.data(),
)
@settings(max_examples=40)
def test_expand_quadratic_agrees_with_direct_evaluation(mats, data):
    residuals = poly_expand_quadratic(mats)
    point = [
        data.draw(st.fractions(max_denominator=6)) for _ in mats
    ]
    inst = Matrix.zero(2, 2)
    for c, b in zip(point, mats):
        inst = inst.add(b.scale(c))
    square_vanishes = inst.mul(inst).is_zero()
    residuals_vanish = all(p.evaluate(point) == 0 for p in residuals)
    assert square_vanishes == residuals_vanish
